#include <gtest/gtest.h>

#include <cmath>

#include "market/fee_market.hpp"
#include "market/market_sim.hpp"
#include "market/price_process.hpp"
#include "market/scenario.hpp"
#include "util/stats.hpp"

namespace goc::market {
namespace {

// ---------------------------------------------------------- price processes

TEST(Gbm, PositiveAndDeterministic) {
  GbmProcess a(100.0, 0.0, 0.05);
  GbmProcess b(100.0, 0.0, 0.05);
  Rng r1(1), r2(1);
  for (int i = 0; i < 200; ++i) {
    const double pa = a.step(1.0, r1);
    const double pb = b.step(1.0, r2);
    ASSERT_GT(pa, 0.0);
    ASSERT_DOUBLE_EQ(pa, pb);
  }
}

TEST(Gbm, DriftMovesTheMean) {
  // Strong positive drift should lift the 30-day mean well above start.
  RunningStats finals;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    GbmProcess p(100.0, 0.05, 0.02);
    Rng rng(seed);
    for (int day = 0; day < 30 * 24; ++day) p.step(1.0, rng);
    finals.add(p.price());
  }
  EXPECT_GT(finals.mean(), 100.0 * std::exp(0.05 * 30) * 0.8);
}

TEST(Gbm, RejectsBadParameters) {
  EXPECT_THROW(GbmProcess(0.0, 0.0, 0.1), std::invalid_argument);
  EXPECT_THROW(GbmProcess(1.0, 0.0, -0.1), std::invalid_argument);
  GbmProcess p(1.0, 0.0, 0.1);
  Rng rng(1);
  EXPECT_THROW(p.step(0.0, rng), std::invalid_argument);
}

TEST(JumpDiffusion, JumpsWidenTheDistribution) {
  RunningStats no_jumps, jumps;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    JumpDiffusionProcess a(100.0, 0.0, 0.02, 0.0, 0.0, 0.3);
    JumpDiffusionProcess b(100.0, 0.0, 0.02, 1.0, 0.0, 0.3);
    Rng r1(seed), r2(seed + 1000);
    for (int h = 0; h < 24 * 20; ++h) {
      a.step(1.0, r1);
      b.step(1.0, r2);
    }
    no_jumps.add(std::log(a.price()));
    jumps.add(std::log(b.price()));
  }
  EXPECT_GT(jumps.stddev(), no_jumps.stddev());
}

TEST(ScheduledShock, FiresOnceAtTheRightTime) {
  // Constant base (σ=0, μ=0) isolates the scripted shock.
  auto base = std::make_unique<GbmProcess>(100.0, 0.0, 0.0);
  ScheduledShockProcess p(std::move(base),
                          {{10.0, 2.0}, {20.0, 0.5}});
  Rng rng(1);
  for (int h = 1; h <= 30; ++h) {
    p.step(1.0, rng);
    if (h < 10) {
      EXPECT_NEAR(p.price(), 100.0, 1e-9) << h;
    } else if (h < 20) {
      EXPECT_NEAR(p.price(), 200.0, 1e-9) << h;
    } else {
      EXPECT_NEAR(p.price(), 100.0, 1e-9) << h;
    }
  }
}

TEST(ScheduledShock, ClonesCarryTheShockClock) {
  // A replica starts from a clone of the unstepped prototype, so its shocks
  // fire afresh; a mid-run clone keeps the ones already fired.
  const ScheduledShockProcess prototype(
      std::make_unique<GbmProcess>(100.0, 0.0, 0.0), {{1.0, 3.0}});
  Rng rng(1);
  const auto first = prototype.clone();
  first->step(2.0, rng);
  EXPECT_NEAR(first->price(), 300.0, 1e-9);
  const auto mid_run = first->clone();
  mid_run->step(2.0, rng);
  EXPECT_NEAR(mid_run->price(), 300.0, 1e-9);
  const auto second = prototype.clone();
  EXPECT_NEAR(second->price(), 100.0, 1e-9);
  second->step(2.0, rng);
  EXPECT_NEAR(second->price(), 300.0, 1e-9);
}

// ---------------------------------------------------------------- fee market

TEST(FeeMarket, AccrualMatchesExpectation) {
  FeeMarket fees(100.0, 0.01, 2.0);  // mean fee = 0.02, so ≈ 2/hour
  Rng rng(5);
  double total = 0.0;
  const int hours = 2000;
  for (int h = 0; h < hours; ++h) total += fees.accrue(1.0, rng);
  EXPECT_NEAR(total / hours, fees.expected_hourly(), 0.25);
}

TEST(FeeMarket, CollectDrainsPool) {
  FeeMarket fees(10.0, 1.0, 2.0);
  Rng rng(7);
  fees.accrue(5.0, rng);
  EXPECT_GT(fees.pending(), 0.0);
  const double collected = fees.collect();
  EXPECT_GT(collected, 0.0);
  EXPECT_DOUBLE_EQ(fees.pending(), 0.0);
  EXPECT_DOUBLE_EQ(fees.collect(), 0.0);
}

TEST(FeeMarket, WhaleInjection) {
  FeeMarket fees(0.001, 1.0, 2.0);
  fees.inject_whale(500.0);
  fees.inject_whale(250.0);
  EXPECT_DOUBLE_EQ(fees.whale_total(), 750.0);
  EXPECT_GE(fees.pending(), 750.0);
  EXPECT_GE(fees.collect(), 750.0);
}

TEST(FeeMarket, RejectsBadParameters) {
  EXPECT_THROW(FeeMarket(-1.0, 1.0, 2.0), std::invalid_argument);
  EXPECT_THROW(FeeMarket(1.0, 0.0, 2.0), std::invalid_argument);
  EXPECT_THROW(FeeMarket(1.0, 1.0, 1.0), std::invalid_argument);
  FeeMarket fees(1.0, 1.0, 2.0);
  EXPECT_THROW(fees.inject_whale(-5.0), std::invalid_argument);
}

// ----------------------------------------------------------------- simulator

MarketSimulator tiny_market(std::uint64_t seed, std::uint64_t br_cap = 0) {
  std::vector<CoinSpec> coins;
  coins.emplace_back("a", 10.0, 6.0,
                     std::make_unique<GbmProcess>(100.0, 0.0, 0.01),
                     FeeMarket(10.0, 0.01, 2.0));
  coins.emplace_back("b", 10.0, 6.0,
                     std::make_unique<GbmProcess>(50.0, 0.0, 0.01),
                     FeeMarket(10.0, 0.01, 2.0));
  MarketOptions opts;
  opts.epochs = 48;
  opts.br_steps_per_epoch = br_cap;
  opts.seed = seed;
  return MarketSimulator({5, 4, 3, 2, 1, 1}, std::move(coins), opts);
}

TEST(MarketSim, SharesFormDistribution) {
  MarketSimulator sim = tiny_market(1);
  const auto records = sim.run();
  ASSERT_EQ(records.size(), 48u);
  for (const EpochRecord& rec : records) {
    double total = 0.0;
    for (const double share : rec.hashrate_share) {
      EXPECT_GE(share, 0.0);
      total += share;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_GT(rec.weights[0], 0.0);
    EXPECT_GT(rec.prices[0], 0.0);
  }
}

TEST(MarketSim, ConvergencePerEpochWhenUncapped) {
  // br_steps_per_epoch = 0 → run to equilibrium every epoch.
  MarketSimulator sim = tiny_market(2, 0);
  const auto records = sim.run();
  for (const EpochRecord& rec : records) {
    EXPECT_TRUE(rec.at_equilibrium);
  }
}

TEST(MarketSim, DeterministicForSeed) {
  MarketSimulator a = tiny_market(3);
  MarketSimulator b = tiny_market(3);
  const auto ra = a.run();
  const auto rb = b.run();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra[i].prices[0], rb[i].prices[0]);
    EXPECT_DOUBLE_EQ(ra[i].hashrate_share[1], rb[i].hashrate_share[1]);
  }
}

TEST(MarketSim, WhaleInjectionShiftsWeight) {
  MarketSimulator sim = tiny_market(4, 0);
  sim.inject_whale(1, 1e9);  // native units; enormous relative to subsidy
  const auto records = sim.run();
  // First epoch: coin b's weight dominated by the whale fee → everyone
  // migrates there.
  EXPECT_GT(records.front().weights[1], records.front().weights[0]);
  EXPECT_GT(records.front().hashrate_share[1], 0.99);
  // Whale gone: weights revert and so does hashrate (coin a is heavier).
  EXPECT_GT(records.back().hashrate_share[0], 0.5);
}

// ------------------------------------------------------------- fork flip E1/E2

TEST(ForkFlip, ReproducesFigureOneShape) {
  ForkFlipParams params;
  params.days = 20.0;
  params.shock_day = 8.0;
  params.revert_day = 12.0;
  MarketSimulator sim = fork_flip_scenario(params);
  const auto records = sim.run();
  ASSERT_EQ(records.size(), 480u);

  const auto share_at_day = [&](double day) {
    return records[static_cast<std::size_t>(day * 24.0) - 1].hashrate_share[1];
  };
  const auto price_ratio_at_day = [&](double day) {
    const auto& r = records[static_cast<std::size_t>(day * 24.0) - 1];
    return r.prices[1] / r.prices[0];
  };

  // Before the shock: BCH-like coin is minor in price and hashrate.
  EXPECT_LT(price_ratio_at_day(7.0), 0.25);
  EXPECT_LT(share_at_day(7.0), 0.35);
  // Right after the shock: price ratio jumps and miners pile in (Fig 1b's
  // spike).
  EXPECT_GT(price_ratio_at_day(9.0), price_ratio_at_day(7.0) * 2.0);
  EXPECT_GT(share_at_day(9.0), share_at_day(7.0));
  // After reversal, the inrush partially unwinds.
  EXPECT_LT(share_at_day(19.0), share_at_day(9.0));
}

TEST(ForkFlip, ValidatesParameters) {
  ForkFlipParams params;
  params.shock_day = 20.0;
  params.revert_day = 10.0;
  EXPECT_THROW(fork_flip_scenario(params), std::invalid_argument);
}

TEST(RandomMarket, RunsAndStaysConsistent) {
  MarketSimulator sim =
      random_market_prototype(24, 4, 5.0, 9).make_simulator(9);
  const auto records = sim.run();
  ASSERT_EQ(records.size(), 120u);
  for (const auto& rec : records) {
    double total = 0.0;
    for (double share : rec.hashrate_share) total += share;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace goc::market
