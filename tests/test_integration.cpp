#include <gtest/gtest.h>

#include <cmath>

#include "core/generators.hpp"
#include "core/moves.hpp"
#include "design/reward_design.hpp"
#include "dynamics/learning.hpp"
#include "equilibrium/construct.hpp"
#include "equilibrium/enumerate.hpp"
#include "equilibrium/welfare.hpp"
#include "market/market_sim.hpp"
#include "market/price_process.hpp"
#include "market/scenario.hpp"

namespace goc {
namespace {

/// Market → core: take the weights the simulator derived for some epoch and
/// confirm the recorded state is exactly the game the paper analyzes.
TEST(Integration, MarketWeightsInduceConsistentGame) {
  market::MarketSimulator sim =
      market::random_market_prototype(16, 3, 2.0, 21).make_simulator(21);
  const auto records = sim.run();
  const Game& game = sim.current_game();
  const Configuration& config = sim.configuration();
  // Mass shares recomputed from the configuration must match the record.
  const auto& last = records.back();
  const double total = game.system().total_power().to_double();
  for (std::uint32_t c = 0; c < game.num_coins(); ++c) {
    EXPECT_NEAR(config.mass(CoinId(c)).to_double() / total,
                last.hashrate_share[c], 1e-12);
  }
  // And the equilibrium flag must agree with a direct check.
  EXPECT_EQ(last.at_equilibrium, is_equilibrium(game, config));
}

/// Market → dynamics: freezing an epoch's weights, better-response learning
/// from the simulator's configuration converges (Theorem 1 on market data).
TEST(Integration, LearningConvergesOnMarketGame) {
  market::MarketSimulator sim =
      market::random_market_prototype(20, 4, 1.0, 23).make_simulator(23);
  sim.run();
  const Game& game = sim.current_game();
  auto sched = make_scheduler(SchedulerKind::kRandomMove, 7);
  LearningOptions opts;
  opts.audit_potential = true;
  const auto result = run_learning(game, sim.configuration(), *sched, opts);
  EXPECT_TRUE(result.converged);
  // Observation 3 at the reached equilibrium: all coins occupied ⇒ total
  // payoff equals total weight (miners always outnumber coins here).
  if (result.final_configuration.occupied_coins() == game.num_coins()) {
    EXPECT_TRUE(globally_optimal(game, result.final_configuration));
  }
}

/// Market → design: a manipulator drives the market's miner population from
/// one equilibrium of the epoch game to another via Algorithm 2 — the
/// paper's end-to-end story on simulator-derived weights.
TEST(Integration, RewardDesignOnMarketDerivedWeights) {
  market::MarketSimulator sim =
      market::random_market_prototype(8, 3, 1.0, 29).make_simulator(29);
  sim.run();
  const Game& epoch_game = sim.current_game();

  // Rebuild the game on a strictly-ordered copy of the miner population
  // (Section 5's standing assumption), with coarsely re-quantized weights so
  // the exact-arithmetic intermediates of the designed rewards stay small.
  std::vector<MinerId> perm;
  System sorted = epoch_game.system().sorted_by_power_desc(&perm);
  std::vector<Rational> weights;
  for (const auto& w : epoch_game.rewards().values()) {
    weights.push_back(
        Rational::from_double(std::max(w.to_double(), 1.0), 1000));
  }
  const Game game(with_distinct_powers(sorted),
                  RewardFunction(std::move(weights)));

  Rng rng(31);
  const auto equilibria = sample_equilibria(game, rng, 32);
  ASSERT_GE(equilibria.size(), 1u);
  const Configuration& s0 = equilibria.front();
  const Configuration& sf = equilibria.back();

  auto sched = make_scheduler(SchedulerKind::kRandomMiner, 13);
  DesignOptions opts;
  opts.audit = true;
  const auto result = run_reward_design(game, s0, sf, *sched, opts);
  EXPECT_TRUE(result.success);
  EXPECT_TRUE(is_equilibrium(game, result.final_configuration));
}

/// Whale manipulation end-to-end: injecting fees raises a minor coin's
/// weight enough to attract hashrate; when the whale stops, the market
/// reverts — unless it had been driven to another equilibrium.
TEST(Integration, WhaleAttackMovesHashrate) {
  std::vector<market::CoinSpec> coins;
  coins.emplace_back("major", 10.0, 6.0,
                     std::make_unique<market::GbmProcess>(100.0, 0.0, 0.005),
                     market::FeeMarket(10.0, 0.01, 2.0));
  coins.emplace_back("minor", 10.0, 6.0,
                     std::make_unique<market::GbmProcess>(10.0, 0.0, 0.005),
                     market::FeeMarket(1.0, 0.01, 2.0));
  market::MarketOptions opts;
  opts.epochs = 6;
  opts.br_steps_per_epoch = 0;  // converge each epoch
  opts.seed = 37;
  market::MarketSimulator sim({8, 5, 3, 2, 1}, std::move(coins), opts);
  sim.inject_whale(1, 5e7);
  const auto records = sim.run();
  EXPECT_GT(records.front().hashrate_share[1], 0.9);
  EXPECT_LT(records.back().hashrate_share[1], 0.5);
}

/// Cross-substrate sanity: the market's epoch game and the greedy
/// equilibrium construction agree on who the heavy coin is.
TEST(Integration, GreedyEquilibriumFavorsHeavyMarketCoin) {
  market::MarketSimulator sim =
      market::random_market_prototype(12, 3, 1.0, 41).make_simulator(41);
  sim.run();
  const Game& game = sim.current_game();
  const Configuration eq = greedy_equilibrium(game);
  EXPECT_TRUE(is_equilibrium(game, eq));
  // The heaviest coin must carry the largest mass at the greedy equilibrium
  // when it strictly dominates (generic case).
  std::uint32_t heavy = 0;
  for (std::uint32_t c = 1; c < game.num_coins(); ++c) {
    if (game.rewards()(CoinId(c)) > game.rewards()(CoinId(heavy))) heavy = c;
  }
  for (std::uint32_t c = 0; c < game.num_coins(); ++c) {
    EXPECT_GE(eq.mass(CoinId(heavy)), eq.mass(CoinId(c)) * Rational(1, 2));
  }
}

}  // namespace
}  // namespace goc
