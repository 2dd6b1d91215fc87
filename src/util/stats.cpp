#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/assert.hpp"

namespace goc {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::min() const noexcept { return n_ == 0 ? 0.0 : min_; }
double RunningStats::max() const noexcept { return n_ == 0 ? 0.0 : max_; }

double RunningStats::ci95_halfwidth() const noexcept {
  if (n_ < 2) return 0.0;
  return kZ95 * stddev() / std::sqrt(static_cast<double>(n_));
}

const std::vector<double>& Sample::sorted() const {
  if (!sorted_valid_ || sorted_cache_.size() != values_.size()) {
    sorted_cache_ = values_;
    std::sort(sorted_cache_.begin(), sorted_cache_.end());
    sorted_valid_ = true;
  }
  return sorted_cache_;
}

double Sample::mean() const noexcept {
  if (values_.empty()) return 0.0;
  double s = 0.0;
  for (double v : values_) s += v;
  return s / static_cast<double>(values_.size());
}

double Sample::stddev() const noexcept {
  if (values_.size() < 2) return 0.0;
  const double m = mean();
  double s = 0.0;
  for (double v : values_) s += (v - m) * (v - m);
  return std::sqrt(s / static_cast<double>(values_.size() - 1));
}

double Sample::min() const {
  GOC_CHECK_ARG(!values_.empty(), "min of empty sample");
  return sorted().front();
}

double Sample::max() const {
  GOC_CHECK_ARG(!values_.empty(), "max of empty sample");
  return sorted().back();
}

double Sample::percentile(double q) const {
  GOC_CHECK_ARG(!values_.empty(), "percentile of empty sample");
  GOC_CHECK_ARG(q >= 0.0 && q <= 100.0, "percentile out of [0,100]");
  const auto& s = sorted();
  if (s.size() == 1) return s.front();
  const double pos = q / 100.0 * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= s.size()) return s.back();
  return s[lo] * (1.0 - frac) + s[lo + 1] * frac;
}

std::string Sample::summary() const {
  std::ostringstream os;
  if (values_.empty()) {
    os << "n=0";
    return os.str();
  }
  os << "mean=" << mean() << " sd=" << stddev() << " p50=" << percentile(50)
     << " p95=" << percentile(95) << " min=" << min() << " max=" << max()
     << " n=" << values_.size();
  return os.str();
}

}  // namespace goc
