#include <gtest/gtest.h>

#include <cmath>

#include "chain/chain_sim.hpp"
#include "chain/difficulty.hpp"

namespace goc::chain {
namespace {

// --------------------------------------------------------------- difficulty

TEST(FixedWindowRetarget, ScalesByObservedSpan) {
  // Window of 4 blocks, target 1h. Blocks arriving every 0.5h → difficulty
  // doubles at the window boundary.
  FixedWindowRetarget daa(4, 1.0);
  double difficulty = 100.0;
  double t = 0.0;
  difficulty = daa.on_block(t, difficulty);  // primes the window start
  for (int b = 0; b < 4; ++b) {
    t += 0.5;
    difficulty = daa.on_block(t, difficulty);
  }
  EXPECT_NEAR(difficulty, 200.0, 1e-9);
}

TEST(FixedWindowRetarget, ClampsAtMaxFactor) {
  FixedWindowRetarget daa(4, 1.0, 4.0);
  double difficulty = 100.0;
  double t = 0.0;
  difficulty = daa.on_block(t, difficulty);
  for (int b = 0; b < 4; ++b) {
    t += 0.01;  // 100× too fast: clamp to ×4
    difficulty = daa.on_block(t, difficulty);
  }
  EXPECT_NEAR(difficulty, 400.0, 1e-9);
}

TEST(FixedWindowRetarget, SlowBlocksLowerDifficulty) {
  FixedWindowRetarget daa(4, 1.0);
  double difficulty = 100.0;
  double t = 0.0;
  difficulty = daa.on_block(t, difficulty);
  for (int b = 0; b < 4; ++b) {
    t += 2.0;
    difficulty = daa.on_block(t, difficulty);
  }
  EXPECT_NEAR(difficulty, 50.0, 1e-9);
}

TEST(SmaRetarget, TracksTargetInterval) {
  SmaRetarget daa(4, 1.0, 1.2);
  double difficulty = 100.0;
  double t = 0.0;
  // Fast blocks: difficulty creeps up, clamped to ×1.2 per block.
  for (int b = 0; b < 10; ++b) {
    t += 0.5;
    const double next = daa.on_block(t, difficulty);
    EXPECT_LE(next, difficulty * 1.2 + 1e-9);
    difficulty = next;
  }
  EXPECT_GT(difficulty, 100.0);
}

TEST(EmergencyAdjuster, DropsAfterStall) {
  EmergencyAdjuster daa(1000, 1.0, /*emergency_gap_hours=*/12.0, 0.20);
  double difficulty = 100.0;
  difficulty = daa.on_block(0.0, difficulty);
  EXPECT_NEAR(difficulty, 100.0, 1e-9);
  // 13-hour stall triggers the 20% cut.
  difficulty = daa.on_block(13.0, difficulty);
  EXPECT_NEAR(difficulty, 80.0, 1e-9);
  // Regular cadence afterwards: no further cuts.
  difficulty = daa.on_block(14.0, difficulty);
  EXPECT_NEAR(difficulty, 80.0, 1e-9);
}

TEST(EmergencyAdjuster, ProspectiveCompoundsWithoutConsumingState) {
  EmergencyAdjuster daa(1000, 1.0, /*emergency_gap_hours=*/2.0, 0.20);
  // Genesis at t=0; a 7-hour stall has seen 3 full gaps → 0.8³.
  EXPECT_NEAR(daa.prospective(7.0, 1000.0), 1000.0 * 0.8 * 0.8 * 0.8, 1e-9);
  // Repeated calls are pure.
  EXPECT_NEAR(daa.prospective(7.0, 1000.0), 512.0, 1e-9);
  // A deep stall is bounded below (never reaches zero).
  EXPECT_GT(daa.prospective(1e6, 1000.0), 1e-3);
  // on_block applies the same discount and re-anchors the stall clock.
  const double after = daa.on_block(7.0, 1000.0);
  EXPECT_NEAR(after, 512.0, 1e-9);
  EXPECT_NEAR(daa.prospective(8.0, after), after, 1e-9);
}

TEST(Difficulty, ParameterValidation) {
  EXPECT_THROW(FixedWindowRetarget(0, 1.0), std::invalid_argument);
  EXPECT_THROW(FixedWindowRetarget(4, -1.0), std::invalid_argument);
  EXPECT_THROW(SmaRetarget(1, 1.0), std::invalid_argument);
  EXPECT_THROW(EmergencyAdjuster(4, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(EmergencyAdjuster(4, 1.0, 1.0, 1.5), std::invalid_argument);
}

// ----------------------------------------------------------------- chain sim

ChainSpec make_chain(const std::string& name, double difficulty, double reward) {
  return ChainSpec{name, difficulty, 1.0 / 6.0, reward,
                   std::make_unique<FixedWindowRetarget>(144, 1.0 / 6.0)};
}

TEST(ChainSim, StaticPolicyMatchesProportionalSplit) {
  // E9's core validation: with no switching, each miner's realized reward
  // share converges to its power share within the chain.
  std::vector<ChainSpec> chains;
  chains.push_back(make_chain("solo", 600.0, 10.0));
  ChainSimOptions opts;
  opts.duration_hours = 24.0 * 60;  // ≈ 8640 expected blocks
  opts.policy = MinerPolicy::kStatic;
  opts.seed = 1;
  MultiChainSimulator sim({100.0, 50.0, 30.0, 20.0}, std::move(chains), opts);
  const auto result = sim.run();
  EXPECT_GT(result.blocks_per_chain[0], 5000u);
  EXPECT_LT(result.share_prediction_mae, 0.01);
  // Realized share of the largest miner ≈ 0.5.
  double total = 0.0;
  for (const double r : result.miner_rewards_fiat) total += r;
  EXPECT_NEAR(result.miner_rewards_fiat[0] / total, 0.5, 0.05);
  EXPECT_EQ(result.migrations, 0u);
}

TEST(ChainSim, BlockCadenceTracksTarget) {
  std::vector<ChainSpec> chains;
  chains.push_back(make_chain("c", 600.0, 10.0));
  ChainSimOptions opts;
  opts.duration_hours = 24.0 * 30;
  opts.policy = MinerPolicy::kStatic;
  opts.seed = 2;
  // Hashrate 100 vs difficulty 600 → raw cadence 1 block/6h; a 10-block
  // retarget window must retune toward 6 blocks/hour within a few windows.
  chains[0].adjuster = std::make_unique<FixedWindowRetarget>(10, 1.0 / 6.0);
  MultiChainSimulator sim({60.0, 40.0}, std::move(chains), opts);
  const auto result = sim.run();
  const double expected_blocks = 6.0 * opts.duration_hours;
  EXPECT_GT(static_cast<double>(result.blocks_per_chain[0]),
            0.7 * expected_blocks);
}

TEST(ChainSim, BetterResponseSplitsByWeight) {
  // Two chains with 3:1 fiat weight and equal target cadence: the game
  // equilibrium puts ≈ 3/4 of the hashrate on the heavy chain.
  std::vector<ChainSpec> chains;
  chains.push_back(make_chain("heavy", 600.0, 30.0));
  chains.push_back(make_chain("light", 600.0, 10.0));
  ChainSimOptions opts;
  opts.duration_hours = 24.0 * 20;
  opts.policy = MinerPolicy::kBetterResponse;
  opts.reevaluation_fraction = 0.5;
  opts.seed = 3;
  std::vector<double> powers(16, 10.0);
  MultiChainSimulator sim(std::move(powers), std::move(chains), opts);
  const auto result = sim.run();
  ASSERT_FALSE(result.timeline.empty());
  const TimelinePoint& last = result.timeline.back();
  const double total = last.hashrate[0] + last.hashrate[1];
  EXPECT_NEAR(last.hashrate[0] / total, 0.75, 0.07);
  EXPECT_GT(result.migrations, 0u);
}

TEST(ChainSim, EdaOscillatesUnderMyopicMiners) {
  // The 2017 BCH phenomenon: an EDA chain under myopic profit-chasers
  // attracts hashrate when its difficulty collapses, overshoots when the
  // inflow makes blocks too fast (difficulty retargets up), sheds hashrate,
  // stalls, cuts again — a sustained sawtooth. Initial difficulties are
  // calibrated to the starting 50/50 split (D = M·T) so the lag dynamics,
  // not an arbitrary cold start, drive the churn.
  // The major chain pays 6× more, so at retargeted difficulties it wins and
  // holds the hashrate; only the EDA chain's stall discounts periodically
  // tempt miners across — they strip the cheap blocks, the retarget snaps
  // difficulty back up, they leave, the chain stalls, and the cycle repeats.
  std::vector<ChainSpec> chains;
  chains.push_back(ChainSpec{"btc", 20.0, 1.0 / 6.0, 60.0,
                             std::make_unique<SmaRetarget>(20, 1.0 / 6.0, 1.2)});
  chains.push_back(ChainSpec{"bch", 20.0, 1.0 / 6.0, 10.0,
                             std::make_unique<EmergencyAdjuster>(
                                 20, 1.0 / 6.0, /*gap=*/0.5, 0.20)});
  ChainSimOptions opts;
  opts.duration_hours = 24.0 * 20;
  opts.policy = MinerPolicy::kMyopicDifficulty;
  opts.reevaluation_fraction = 0.5;
  opts.seed = 4;
  std::vector<double> powers(12, 10.0);
  MultiChainSimulator sim(std::move(powers), std::move(chains), opts);
  const auto result = sim.run();
  // Sustained churn (not a one-off settlement): migrations happen in the
  // second half of the run too.
  std::uint64_t late_moves = 0;
  for (std::size_t i = result.timeline.size() / 2; i + 1 < result.timeline.size(); ++i) {
    const auto& a = result.timeline[i];
    const auto& b = result.timeline[i + 1];
    if (std::fabs(a.hashrate[1] - b.hashrate[1]) > 1e-9) ++late_moves;
  }
  EXPECT_GT(late_moves, 5u);
  EXPECT_GT(result.migrations, 50u);
}

TEST(ChainSim, StablePolicyQuietAfterConvergence) {
  // Contrast with the EDA test: equilibrium-seeking miners settle.
  std::vector<ChainSpec> chains;
  chains.push_back(make_chain("a", 600.0, 20.0));
  chains.push_back(make_chain("b", 600.0, 20.0));
  ChainSimOptions opts;
  opts.duration_hours = 24.0 * 10;
  opts.policy = MinerPolicy::kBetterResponse;
  opts.seed = 5;
  std::vector<double> powers(10, 10.0);
  MultiChainSimulator sim(std::move(powers), std::move(chains), opts);
  const auto result = sim.run();
  // Hashrate split settles to ~50/50 and stops moving.
  std::uint64_t late_moves = 0;
  for (std::size_t i = result.timeline.size() / 2; i + 1 < result.timeline.size(); ++i) {
    if (std::fabs(result.timeline[i].hashrate[0] -
                  result.timeline[i + 1].hashrate[0]) > 1e-9) {
      ++late_moves;
    }
  }
  EXPECT_EQ(late_moves, 0u);
}

TEST(ChainSim, ValidatesInput) {
  std::vector<ChainSpec> chains;
  chains.push_back(make_chain("c", 600.0, 10.0));
  ChainSimOptions opts;
  EXPECT_THROW(MultiChainSimulator({}, std::move(chains), opts),
               std::invalid_argument);
  std::vector<ChainSpec> chains2;
  chains2.push_back(make_chain("c", 600.0, 10.0));
  EXPECT_THROW(
      MultiChainSimulator({-1.0}, std::move(chains2), opts),
      std::invalid_argument);
  std::vector<ChainSpec> chains3;
  chains3.push_back(make_chain("c", 600.0, 10.0));
  EXPECT_THROW(MultiChainSimulator({1.0}, std::move(chains3), opts, {5}),
               std::invalid_argument);
}

}  // namespace
}  // namespace goc::chain
