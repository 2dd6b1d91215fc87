#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "util/assert.hpp"

/// \file rng.hpp
/// Deterministic pseudo-random generation.
///
/// All stochastic components (workload generators, schedulers, market and
/// chain simulators) draw from `goc::Rng`, a xoshiro256** engine seeded via
/// splitmix64. Distributions are implemented in-house rather than with
/// `<random>` so that a given seed reproduces the same experiment on every
/// platform and standard library — benchmark tables in EXPERIMENTS.md cite
/// seeds and must be regenerable. The raw step, the uniform and the Pareto
/// draw are inline, so a sampling loop such as the fee market's makes no
/// call but the libm one.

namespace goc {

/// splitmix64 step; also used standalone for hashing seeds.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** 1.0 (Blackman & Vigna), with convenience distributions.
class Rng {
 public:
  /// Seeds the four lanes from `seed` via splitmix64 (never all-zero).
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  /// Satisfies UniformRandomBitGenerator.
  using result_type = std::uint64_t;
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }
  result_type operator()() noexcept { return next(); }

  /// Next raw 64-bit value.
  std::uint64_t next() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  /// `bound` must be positive.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in the closed range [lo, hi].
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform01() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// `uniform01` with 0 replaced by 2^-53, so in (0, 1): the draw behind
  /// `exponential` and `pareto` (it keeps their logs and powers finite).
  double uniform01_nonzero() noexcept {
    const double u = uniform01();
    return u <= 0.0 ? 0x1.0p-53 : u;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Exponential with the given rate (mean 1/rate); rate must be positive.
  double exponential(double rate) noexcept;

  /// Standard normal via the polar (Marsaglia) method.
  double normal() noexcept;
  double normal(double mean, double stddev) noexcept;

  /// Pareto with scale x_m > 0 and shape alpha > 0.
  double pareto(double scale, double shape) noexcept {
    GOC_DASSERT(scale > 0 && shape > 0, "pareto parameters must be positive");
    return scale / std::pow(uniform01_nonzero(), 1.0 / shape);
  }

  /// Uniformly chosen index into a non-empty container.
  template <typename Container>
  std::size_t pick_index(const Container& c) noexcept {
    GOC_DASSERT(!c.empty(), "pick_index on empty container");
    return static_cast<std::size_t>(next_below(c.size()));
  }

  /// Derives an independent child generator (for parallel workloads).
  Rng split() noexcept;

  /// Equal states: the two generators draw the same stream from here on.
  bool operator==(const Rng&) const noexcept = default;

 private:
  std::uint64_t s_[4];
};

}  // namespace goc
