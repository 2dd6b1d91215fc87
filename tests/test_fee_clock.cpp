/// \file test_fee_clock.cpp
/// `FeeMarket::accrue` decides its Poisson clock on the product of the gap
/// uniforms, and falls back to the running sum of exponential gaps when a
/// decision lies within its rounding margin. These tests hold it to the sum
/// clock it replaced, bit for bit: the fees added, the pending pool and the
/// generator's state afterwards. They are not labelled `slow`, so the Debug
/// and sanitizer lanes run them too.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "market/fee_market.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"

namespace goc::market {
namespace {

constexpr double kFeeScale = 0.0002;
constexpr double kFeeShape = 1.8;
constexpr double kWhale = 0.125;

/// The clock `accrue` used before the product clock: add exponential gaps
/// and accept an arrival, with its Pareto fee, while the sum is ≤ dt.
double sum_clock_accrue(double rate, double dt, Rng& rng) {
  double added = 0.0;
  double t = rng.exponential(rate);
  while (t <= dt) {
    added += rng.pareto(kFeeScale, kFeeShape);
    t += rng.exponential(rate);
  }
  return added;
}

/// The sum clock's own arrival times t_0..t_last from `rng`'s state.
std::vector<double> sum_clock_times(double rate, Rng rng, int last) {
  std::vector<double> times;
  double t = rng.exponential(rate);
  for (int k = 0; k <= last; ++k) {
    times.push_back(t);
    rng.pareto(kFeeScale, kFeeShape);
    t += rng.exponential(rate);
  }
  return times;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Accrues `dt` hours at `rate` from `seed` with `FeeMarket` and with the sum
/// clock. Returns false, after one failure naming the case, unless the fees,
/// the pool and the generator's next four draws are bit-equal.
bool accrues_like_sum_clock(double rate, double dt, std::uint64_t seed) {
  Rng ours(seed);
  Rng theirs(seed);
  FeeMarket fees(rate, kFeeScale, kFeeShape);
  fees.inject_whale(kWhale);
  const double added = fees.accrue(dt, ours);
  const double expected = sum_clock_accrue(rate, dt, theirs);
  bool same = bits(added) == bits(expected) &&
              bits(fees.pending()) == bits(kWhale + expected);
  for (int i = 0; i < 4; ++i) same = ours.next() == theirs.next() && same;
  if (!same) {
    ADD_FAILURE() << "rate " << rate << "/h, dt " << dt << " h, seed " << seed
                  << ": added " << added << " vs " << expected;
  }
  return same;
}

/// Turns recording on for the scope, so the fallback counter moves even
/// where `GOC_OBS_OFF` is set.
class RecordingOn {
 public:
  RecordingOn() : was_on_(obs::enabled()) { obs::set_enabled(true); }
  ~RecordingOn() { obs::set_enabled(was_on_); }
  RecordingOn(const RecordingOn&) = delete;
  RecordingOn& operator=(const RecordingOn&) = delete;

 private:
  bool was_on_;
};

obs::Counter& fallbacks() {
  return obs::Registry::instance().counter("market.fee.clock_fallbacks");
}

TEST(FeeClock, MatchesTheSumClockAcrossRatesAndHorizons) {
  // Rates up to fork-flip's 12 000/h; horizons from none through a
  // nanohour to a day (288 000 arrivals per call at the top).
  for (const double rate : {0.5, 3.0, 750.0, 3000.0, 12000.0}) {
    for (const double dt : {0.0, 1e-9, 0.25, 1.0, 24.0}) {
      for (std::uint64_t seed = 0; seed < 200; ++seed) {
        if (!accrues_like_sum_clock(rate, dt, seed)) return;
      }
    }
  }
}

TEST(FeeClock, FallsBackAtTheSumClocksOwnArrivalTimes) {
  // dt = t_k, or one ulp either side of it, puts decision k inside the
  // margin: only the fallback can match the sum clock there.
  const RecordingOn recording;
  for (const double rate : {0.5, 3000.0, 12000.0}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const std::vector<double> times = sum_clock_times(rate, Rng(seed), 5);
      for (const double t : times) {
        for (const double dt :
             {t, std::nextafter(t, std::numeric_limits<double>::infinity()),
              std::nextafter(t, -std::numeric_limits<double>::infinity())}) {
          const std::uint64_t before = fallbacks().total();
          if (!accrues_like_sum_clock(rate, dt, seed)) return;
          EXPECT_EQ(fallbacks().total(), before + 1)
              << "rate " << rate << "/h, seed " << seed << ", dt " << dt;
        }
      }
    }
  }
}

TEST(FeeClock, FallsBackAboveTheArrivalCap) {
  // 12 000/h for 100 h is ~1.2M arrivals, past the product clock's 2^20.
  const RecordingOn recording;
  const std::uint64_t before = fallbacks().total();
  EXPECT_TRUE(accrues_like_sum_clock(12000.0, 100.0, 2021));
  EXPECT_EQ(fallbacks().total(), before + 1);
}

TEST(FeeClock, TypicalEpochsNeedNoFallback) {
  // random_market_prototype's three coins over 200 one-hour epochs: the
  // margin is ~2^-27·(λ·dt + 1) wide, so no decision should land in it.
  const RecordingOn recording;
  const std::uint64_t before = fallbacks().total();
  Rng rng(2021);
  for (const double rate : {3000.0, 1500.0, 750.0}) {
    FeeMarket fees(rate, kFeeScale, kFeeShape);
    for (int epoch = 0; epoch < 200; ++epoch) fees.accrue(1.0, rng);
  }
  EXPECT_EQ(fallbacks().total(), before);
}

TEST(FeeClock, RefusesAnInfiniteHorizon) {
  FeeMarket fees(1.0, kFeeScale, kFeeShape);
  Rng rng(1);
  EXPECT_THROW(fees.accrue(std::numeric_limits<double>::infinity(), rng),
               std::invalid_argument);
  EXPECT_THROW(fees.accrue(-1.0, rng), std::invalid_argument);
}

}  // namespace
}  // namespace goc::market
