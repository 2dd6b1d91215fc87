#pragma once

#include <cstddef>
#include <string>
#include <vector>

/// \file stats.hpp
/// Streaming and batch summary statistics for benchmark harnesses.

namespace goc {

/// Two-sided 95% normal quantile, the z of every CI half-width reported by
/// this repository.
inline constexpr double kZ95 = 1.959963984540054;

/// Welford-style running accumulator: O(1) per observation, numerically
/// stable mean/variance, tracks extrema. `add` is the one replica-order
/// fold: the batch engine's stop check and summaries and the checkpoint's
/// stored prefix state all run through it, so they agree bit for bit.
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }
  double mean() const noexcept;
  /// Sample variance (n-1 denominator); 0 for fewer than two observations.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept;
  double max() const noexcept;
  double sum() const noexcept { return sum_; }
  /// Sum of squared deviations from the running mean (Welford's M2).
  double m2() const noexcept { return m2_; }

  /// Half-width of the normal-approximation 95% confidence interval for the
  /// mean (`kZ95 * stddev / sqrt(n)`); 0 for fewer than two observations.
  double ci95_halfwidth() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Batch sample keeping all observations; supports exact percentiles.
class Sample {
 public:
  void add(double x) { values_.push_back(x); }
  void reserve(std::size_t n) { values_.reserve(n); }

  std::size_t count() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }
  double mean() const noexcept;
  double stddev() const noexcept;
  double min() const;
  double max() const;
  /// Linear-interpolated percentile, q in [0, 100]. Throws
  /// std::invalid_argument on empty sample or q out of range.
  double percentile(double q) const;
  double median() const { return percentile(50.0); }

  const std::vector<double>& values() const noexcept { return values_; }

  /// "mean=... sd=... p50=... p95=... min=... max=... n=..." summary line.
  std::string summary() const;

 private:
  mutable std::vector<double> sorted_cache_;
  mutable bool sorted_valid_ = false;
  std::vector<double> values_;

  const std::vector<double>& sorted() const;
};

}  // namespace goc
