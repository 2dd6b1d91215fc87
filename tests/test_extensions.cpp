#include <gtest/gtest.h>

#include <algorithm>

#include "core/access.hpp"
#include "core/generators.hpp"
#include "core/moves.hpp"
#include "dynamics/improvement_graph.hpp"
#include "dynamics/learning.hpp"
#include "equilibrium/construct.hpp"
#include "equilibrium/enumerate.hpp"
#include "equilibrium/security.hpp"
#include "potential/exact_potential.hpp"
#include "potential/list_potential.hpp"

namespace goc {
namespace {

// ------------------------------------------------------------ AccessPolicy

TEST(AccessPolicy, DefaultIsUnrestricted) {
  AccessPolicy policy;
  EXPECT_TRUE(policy.is_unrestricted());
  EXPECT_TRUE(policy.allowed(MinerId(5), CoinId(9)));
  EXPECT_DOUBLE_EQ(policy.density(4, 3), 1.0);
}

TEST(AccessPolicy, MatrixSemantics) {
  AccessPolicy policy({{true, false}, {false, true}});
  EXPECT_FALSE(policy.is_unrestricted());
  EXPECT_TRUE(policy.allowed(MinerId(0), CoinId(0)));
  EXPECT_FALSE(policy.allowed(MinerId(0), CoinId(1)));
  EXPECT_TRUE(policy.allowed(MinerId(1), CoinId(1)));
  EXPECT_DOUBLE_EQ(policy.density(2, 2), 0.5);
  const auto coins = policy.allowed_coins(MinerId(1), 2);
  ASSERT_EQ(coins.size(), 1u);
  EXPECT_EQ(coins[0], CoinId(1));
}

TEST(AccessPolicy, RejectsCoinlessMiner) {
  EXPECT_THROW(AccessPolicy({{false, false}}), std::invalid_argument);
  EXPECT_THROW(AccessPolicy({{true}, {true, true}}), std::invalid_argument);
}

TEST(AccessPolicy, RandomIsWellFormedAndDeterministic) {
  Rng r1(5), r2(5);
  const AccessPolicy a = AccessPolicy::random(10, 4, 0.3, r1);
  const AccessPolicy b = AccessPolicy::random(10, 4, 0.3, r2);
  for (std::uint32_t p = 0; p < 10; ++p) {
    EXPECT_FALSE(a.allowed_coins(MinerId(p), 4).empty());
    for (std::uint32_t c = 0; c < 4; ++c) {
      EXPECT_EQ(a.allowed(MinerId(p), CoinId(c)), b.allowed(MinerId(p), CoinId(c)));
    }
  }
}

TEST(AccessPolicy, HardwareClasses) {
  // Class 0 = SHA-256 ASICs (coins 0,1); class 1 = GPU (coins 1,2).
  const AccessPolicy policy = AccessPolicy::hardware_classes(
      {0, 0, 1}, {{true, true, false}, {false, true, true}});
  EXPECT_TRUE(policy.allowed(MinerId(0), CoinId(0)));
  EXPECT_FALSE(policy.allowed(MinerId(0), CoinId(2)));
  EXPECT_FALSE(policy.allowed(MinerId(2), CoinId(0)));
  EXPECT_TRUE(policy.allowed(MinerId(2), CoinId(2)));
  EXPECT_THROW(AccessPolicy::hardware_classes({0, 7}, {{true}}),
               std::invalid_argument);
}

TEST(AccessPolicy, GameValidatesShape) {
  EXPECT_THROW(Game(System::from_integer_powers({1, 2}, 2),
                    RewardFunction::from_integers({1, 1}),
                    AccessPolicy({{true, true}})),
               std::invalid_argument);
}

// ------------------------------------------------- restricted-game behavior

Game restricted_game() {
  // Two ASIC miners (coins 0,1) and two GPU miners (coins 1,2).
  return Game(System::from_integer_powers({8, 4, 2, 1}, 3),
              RewardFunction::from_integers({30, 20, 10}),
              AccessPolicy::hardware_classes(
                  {0, 0, 1, 1}, {{true, true, false}, {false, true, true}}));
}

TEST(RestrictedGame, MovesRespectAccess) {
  const Game g = restricted_game();
  const Configuration s(g.system_ptr(),
                        {CoinId(0), CoinId(0), CoinId(1), CoinId(1)});
  for (const Move& m : all_better_response_moves(g, s)) {
    EXPECT_TRUE(g.can_mine(m.miner, m.to));
  }
  // p0 (ASIC) can never be offered coin 2.
  for (const CoinId c : better_responses(g, s, MinerId(0))) {
    EXPECT_NE(c, CoinId(2));
  }
  EXPECT_THROW(g.payoff_if_move(s, MinerId(0), CoinId(2)),
               std::invalid_argument);
}

TEST(RestrictedGame, StabilityIsRelativeToAllowedCoins) {
  // One GPU miner alone on coin 2 may be "trapped": coin 0 would pay more
  // but is out of reach, so it is stable.
  Game g(System::from_integer_powers({10, 1}, 3),
         RewardFunction::from_integers({100, 1, 5}),
         AccessPolicy({{true, true, true}, {false, true, true}}));
  const Configuration s(g.system_ptr(), {CoinId(0), CoinId(2)});
  EXPECT_TRUE(is_stable(g, s, MinerId(1)));
  // The unrestricted twin is NOT stable there.
  Game open_game(System::from_integer_powers({10, 1}, 3),
                 RewardFunction::from_integers({100, 1, 5}));
  const Configuration s2(open_game.system_ptr(), {CoinId(0), CoinId(2)});
  EXPECT_FALSE(is_stable(open_game, s2, MinerId(1)));
}

/// §6 asymmetric case: Theorem 1's convergence survives arbitrary access
/// policies — the ordinal potential only inspects the moves actually taken.
/// Sparse to dense access matrices (E11's claim: convergence at every
/// density).
class RestrictedConvergence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RestrictedConvergence, AnySchedulerConverges) {
  Rng rng(GetParam());
  GameSpec spec;
  spec.num_miners = 3 + static_cast<std::size_t>(rng.next_below(10));
  spec.num_coins = 2 + static_cast<std::size_t>(rng.next_below(4));
  const Game base = random_game(spec, rng);
  for (const double density : {0.4, 0.25, 0.75}) {
    const AccessPolicy policy = AccessPolicy::random(
        base.num_miners(), base.num_coins(), density, rng);
    const Game g(base.system_ptr(), base.rewards(), policy);
    const Configuration start = random_configuration(g, rng);
    ASSERT_TRUE(g.respects_access(start));

    for (const SchedulerKind kind :
         {SchedulerKind::kRandomMove, SchedulerKind::kMinGain}) {
      auto sched = make_scheduler(kind, GetParam() ^ 0xACC);
      LearningOptions opts;
      opts.audit_potential = true;
      const auto result = run_learning(g, start, *sched, opts);
      EXPECT_TRUE(result.converged) << "density " << density;
      EXPECT_TRUE(g.respects_access(result.final_configuration));
      EXPECT_TRUE(is_equilibrium(g, result.final_configuration));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RestrictedConvergence,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(RestrictedGame, GreedyConstructionRefuses) {
  const Game g = restricted_game();
  EXPECT_THROW(greedy_equilibrium(g), std::invalid_argument);
}

TEST(RestrictedGame, EnumerationFiltersAccessViolations) {
  const Game g = restricted_game();
  const auto eqs = enumerate_equilibria(g);
  ASSERT_FALSE(eqs.empty());  // learning converges ⇒ equilibria exist
  for (const auto& eq : eqs) {
    EXPECT_TRUE(g.respects_access(eq));
    EXPECT_TRUE(is_equilibrium(g, eq));
  }
}

TEST(RestrictedGame, LearningRejectsIllegalStart) {
  const Game g = restricted_game();
  // p3 (GPU) on coin 0 violates the policy.
  const Configuration bad(g.system_ptr(),
                          {CoinId(0), CoinId(1), CoinId(1), CoinId(0)});
  auto sched = make_scheduler(SchedulerKind::kMaxGain);
  EXPECT_THROW(run_learning(g, bad, *sched), std::invalid_argument);
}

// ------------------------------------------------------------- security §6

TEST(Security, DominationShare) {
  Game g(System::from_integer_powers({6, 3, 1}, 2),
         RewardFunction::from_integers({10, 10}));
  const Configuration s(g.system_ptr(), {CoinId(0), CoinId(0), CoinId(1)});
  EXPECT_EQ(domination_share(g, s, CoinId(0)), Rational(6, 9));
  EXPECT_EQ(domination_share(g, s, CoinId(1)), Rational(1));
  // Empty coin: share 0, no controller.
  const Configuration t(g.system_ptr(), {CoinId(0), CoinId(0), CoinId(0)});
  EXPECT_EQ(domination_share(g, t, CoinId(1)), Rational(0));
  EXPECT_FALSE(majority_controller(g, t, CoinId(1)).has_value());
}

TEST(Security, MajorityController) {
  Game g(System::from_integer_powers({6, 3, 1}, 2),
         RewardFunction::from_integers({10, 10}));
  const Configuration s(g.system_ptr(), {CoinId(0), CoinId(0), CoinId(0)});
  const auto controller = majority_controller(g, s, CoinId(0));
  ASSERT_TRUE(controller.has_value());
  EXPECT_EQ(*controller, MinerId(0));  // 6 of 10 > 1/2
  // Exactly half is NOT a strict majority.
  Game g2(System::from_integer_powers({5, 5}, 2),
          RewardFunction::from_integers({10, 10}));
  const Configuration even(g2.system_ptr(), {CoinId(0), CoinId(0)});
  EXPECT_FALSE(majority_controller(g2, even, CoinId(0)).has_value());
}

TEST(Security, ReportAggregates) {
  Game g(System::from_integer_powers({6, 3, 1}, 3),
         RewardFunction::from_integers({10, 10, 10}));
  const Configuration s(g.system_ptr(), {CoinId(0), CoinId(1), CoinId(1)});
  const SecurityReport report = security_report(g, s);
  EXPECT_EQ(report.occupied, 2u);
  EXPECT_EQ(report.majority_controlled, 2u);  // p0 solo; p1 holds 3 of 4
  EXPECT_EQ(report.max_share[2], Rational(0));
}

TEST(Security, BestDominationTargetPicksMaxShare) {
  Game g(System::from_integer_powers({2, 1}, 2),
         RewardFunction::from_integers({1, 1}));
  const auto eqs = enumerate_equilibria(g);
  ASSERT_EQ(eqs.size(), 2u);
  const auto target = best_domination_target(g, MinerId(1), eqs);
  ASSERT_TRUE(target.has_value());
  // In both equilibria p1 is alone on a coin → share 1.
  EXPECT_EQ(target->attacker_share, Rational(1));
  EXPECT_FALSE(best_domination_target(g, MinerId(0), {}).has_value());

  // Shares that differ by equilibrium (E12's attack): with m = (2,1,1) and
  // F = (2,1), p1 holds 1/2 of c0 in <c1,c0,c0>, all of c1 in <c0,c1,c0>
  // and 1/3 of c0 in <c0,c0,c1>; the target is the second, in any order.
  Game h(System::from_integer_powers({2, 1, 1}, 2),
         RewardFunction::from_integers({2, 1}));
  auto h_eqs = enumerate_equilibria(h);
  ASSERT_EQ(h_eqs.size(), 3u);
  const Configuration alone(h.system_ptr(), {CoinId(0), CoinId(1), CoinId(0)});
  for (int pass = 0; pass < 2; ++pass) {
    const auto best = best_domination_target(h, MinerId(1), h_eqs);
    ASSERT_TRUE(best.has_value());
    EXPECT_TRUE(best->equilibrium == alone);
    EXPECT_EQ(best->coin, CoinId(1));
    EXPECT_EQ(best->attacker_share, Rational(1));
    std::reverse(h_eqs.begin(), h_eqs.end());
  }
}

// ------------------------------------------------------- improvement graph

TEST(ImprovementGraph, Proposition1GameExactValues) {
  const Game g = proposition1_game();
  const ImprovementGraphStats stats = analyze_improvement_graph(g);
  EXPECT_EQ(stats.configurations, 4u);
  EXPECT_EQ(stats.equilibria, 2u);
  // From ⟨c0,c0⟩: both miners want out (2 edges); same from ⟨c1,c1⟩.
  EXPECT_EQ(stats.edges, 4u);
  // Any improving path is a single step: unstable → split.
  EXPECT_EQ(stats.longest_path, 1u);
}

TEST(ImprovementGraph, LongestPathFromEquilibriumIsZero) {
  Rng rng(3);
  GameSpec spec;
  spec.num_miners = 5;
  spec.num_coins = 3;
  const Game g = random_game(spec, rng);
  const auto eqs = enumerate_equilibria(g);
  ASSERT_FALSE(eqs.empty());
  EXPECT_EQ(longest_path_from(g, eqs.front()), 0u);
}

TEST(ImprovementGraph, DominatesObservedSchedulerSteps) {
  // The graph's longest path upper-bounds every scheduler trajectory.
  Rng rng(7);
  GameSpec spec;
  spec.num_miners = 6;
  spec.num_coins = 2;
  const Game g = random_game(spec, rng);
  const ImprovementGraphStats stats = analyze_improvement_graph(g);
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    auto sched = make_scheduler(kind, 11);
    const Configuration start = random_configuration(g, rng);
    const auto result = run_learning(g, start, *sched);
    EXPECT_LE(result.steps, stats.longest_path) << scheduler_kind_name(kind);
  }
}

TEST(ImprovementGraph, RespectsAccessFilter) {
  const Game g = restricted_game();
  const ImprovementGraphStats stats = analyze_improvement_graph(g);
  // ASIC miners have 2 choices each, GPU miners 2 each → 16 valid configs
  // out of 3^4 = 81.
  EXPECT_EQ(stats.configurations, 16u);
  EXPECT_GE(stats.equilibria, 1u);
}

TEST(ImprovementGraph, RefusesHugeSpaces) {
  Rng rng(9);
  GameSpec spec;
  spec.num_miners = 30;
  spec.num_coins = 4;
  const Game g = random_game(spec, rng);
  EXPECT_THROW(analyze_improvement_graph(g, 1u << 10), std::invalid_argument);
}

}  // namespace
}  // namespace goc
