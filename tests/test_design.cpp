#include <gtest/gtest.h>

#include "core/generators.hpp"
#include "core/moves.hpp"
#include "design/intermediate.hpp"
#include "design/naive.hpp"
#include "design/progress.hpp"
#include "design/reward_design.hpp"
#include "design/stage_rewards.hpp"
#include "equilibrium/enumerate.hpp"

namespace goc {
namespace {

/// A strictly-decreasing-powers game with at least two equilibria, plus two
/// of them, produced deterministically from `seed`. Returns nullopt when
/// the drawn game has fewer than two sampled equilibria.
struct DesignFixture {
  Game game;
  Configuration s0;
  Configuration sf;
};

std::optional<DesignFixture> make_fixture(std::uint64_t seed,
                                          std::size_t miners = 6,
                                          std::size_t coins = 3) {
  Rng rng(seed);
  GameSpec spec;
  spec.num_miners = miners;
  spec.num_coins = coins;
  spec.power_lo = 1;
  spec.power_hi = 100;
  spec.reward_lo = 50;
  spec.reward_hi = 900;
  spec.distinct_powers = true;
  spec.sort_desc = true;
  Game game = random_game(spec, rng);
  auto equilibria = sample_equilibria(game, rng, 48);
  if (equilibria.size() < 2) return std::nullopt;
  return DesignFixture{std::move(game), std::move(equilibria[0]),
                       std::move(equilibria[1])};
}

// ----------------------------------------------------------- Eq 3 geometry

TEST(Intermediate, MatchesEquationThree) {
  auto system = std::make_shared<const System>(
      System::from_integer_powers({50, 40, 30, 20, 10}, 3));
  const Configuration sf(
      system, {CoinId(0), CoinId(1), CoinId(2), CoinId(0), CoinId(1)});
  // Stage 2: p1,p2 final; p3..p5 at sf.p2 = c1.
  const Configuration s2 = intermediate_configuration(sf, 2);
  EXPECT_EQ(s2.of(MinerId(0)), CoinId(0));
  EXPECT_EQ(s2.of(MinerId(1)), CoinId(1));
  EXPECT_EQ(s2.of(MinerId(2)), CoinId(1));
  EXPECT_EQ(s2.of(MinerId(3)), CoinId(1));
  EXPECT_EQ(s2.of(MinerId(4)), CoinId(1));
  // Stage n: s^n == sf.
  EXPECT_TRUE(intermediate_configuration(sf, 5) == sf);
  // Stage 1: everyone at sf.p1.
  const Configuration s1 = intermediate_configuration(sf, 1);
  for (std::uint32_t p = 0; p < 5; ++p) {
    EXPECT_EQ(s1.of(MinerId(p)), CoinId(0));
  }
}

TEST(Intermediate, StageBoundsChecked) {
  auto system = std::make_shared<const System>(
      System::from_integer_powers({3, 2}, 2));
  const Configuration sf(system, {CoinId(0), CoinId(1)});
  EXPECT_THROW(intermediate_configuration(sf, 0), std::invalid_argument);
  EXPECT_THROW(intermediate_configuration(sf, 3), std::invalid_argument);
}

TEST(StageSet, MembershipRules) {
  auto system = std::make_shared<const System>(
      System::from_integer_powers({50, 40, 30, 20}, 3));
  const Configuration sf(system, {CoinId(0), CoinId(1), CoinId(2), CoinId(0)});
  // T_2: p1 at c0; p2..p4 each at sf.p2=c1 or sf.p1=c0.
  EXPECT_TRUE(in_stage_set(
      Configuration(system, {CoinId(0), CoinId(0), CoinId(1), CoinId(0)}), sf, 2));
  EXPECT_TRUE(in_stage_set(intermediate_configuration(sf, 1), sf, 2));
  EXPECT_TRUE(in_stage_set(intermediate_configuration(sf, 2), sf, 2));
  // p1 displaced → not in T_2.
  EXPECT_FALSE(in_stage_set(
      Configuration(system, {CoinId(1), CoinId(0), CoinId(1), CoinId(0)}), sf, 2));
  // p3 on a coin outside {c0, c1} → not in T_2.
  EXPECT_FALSE(in_stage_set(
      Configuration(system, {CoinId(0), CoinId(1), CoinId(2), CoinId(0)}), sf, 2));
}

TEST(Mover, PaperDefinition) {
  auto system = std::make_shared<const System>(
      System::from_integer_powers({50, 40, 30, 20, 10}, 2));
  const Configuration sf(
      system, {CoinId(0), CoinId(1), CoinId(1), CoinId(1), CoinId(1)});
  // Stage 2 start (s^1): everyone at c0; mover is p_n = p5.
  const Configuration start = intermediate_configuration(sf, 1);
  EXPECT_EQ(mover_index(start, sf, 2), 5u);
  EXPECT_EQ(anchor_index(start, sf, 2), 4u);
  // p5 placed: mover is p4.
  Configuration mid = start;
  mid.move(MinerId(4), CoinId(1));
  EXPECT_EQ(mover_index(mid, sf, 2), 4u);
  EXPECT_EQ(anchor_index(mid, sf, 2), 3u);
  // At s^2 the mover is undefined.
  EXPECT_FALSE(mover_index(intermediate_configuration(sf, 2), sf, 2).has_value());
}

TEST(Mover, SkipsHoles) {
  // p5 on target but p4 not: the mover is p4 (largest index not on target
  // with everyone after it on target — p4 qualifies, p3 does not).
  auto system = std::make_shared<const System>(
      System::from_integer_powers({50, 40, 30, 20, 10}, 2));
  const Configuration sf(
      system, {CoinId(0), CoinId(1), CoinId(1), CoinId(1), CoinId(1)});
  const Configuration s(
      system, {CoinId(0), CoinId(0), CoinId(0), CoinId(0), CoinId(1)});
  EXPECT_EQ(mover_index(s, sf, 2), 4u);
}

// ------------------------------------------------------------ progress Φ_i

TEST(Progress, VectorAndOrder) {
  auto system = std::make_shared<const System>(
      System::from_integer_powers({50, 40, 30, 20}, 2));
  const Configuration sf(system, {CoinId(0), CoinId(1), CoinId(1), CoinId(1)});
  const Configuration start = intermediate_configuration(sf, 1);
  Configuration mid = start;
  mid.move(MinerId(3), CoinId(1));
  const auto v0 = progress_vector(start, sf, 2);
  const auto v1 = progress_vector(mid, sf, 2);
  EXPECT_EQ(v0, (std::vector<bool>{false, false, false}));
  EXPECT_EQ(v1, (std::vector<bool>{false, false, true}));
  EXPECT_TRUE(progress_less(v0, v1));
  EXPECT_FALSE(progress_less(v1, v0));
  EXPECT_FALSE(progress_less(v0, v0));
  // Lexicographic: placing an earlier miner dominates later bits.
  Configuration mid2 = start;
  mid2.move(MinerId(1), CoinId(1));
  EXPECT_TRUE(progress_less(v1, progress_vector(mid2, sf, 2)));
}

// ----------------------------------------------------------- stage rewards

TEST(StageRewards, DominateBaseAndLevelFloor) {
  const auto fixture = make_fixture(1);
  ASSERT_TRUE(fixture.has_value());
  const Game& g = fixture->game;
  const Rational lambda =
      Rational(2) * g.rewards().max_reward() / g.system().min_power();
  EXPECT_GE(design_level(g, fixture->s0), lambda);
  const RewardFunction h1 = stage_reward_function(g, fixture->sf, 1, fixture->s0);
  EXPECT_TRUE(h1.dominates(g.rewards()));
}

TEST(StageRewards, StageOneAttractsEveryoneEverywhere) {
  const auto fixture = make_fixture(2);
  ASSERT_TRUE(fixture.has_value());
  const Game& g = fixture->game;
  const CoinId target = fixture->sf.of(MinerId(0));
  const Game designed =
      g.with_rewards(stage_reward_function(g, fixture->sf, 1, fixture->s0));
  // From any configuration, any miner not on the target strictly gains by
  // moving there — the stage-1 robustification property.
  Rng rng(5);
  for (int trial = 0; trial < 15; ++trial) {
    const Configuration s = random_configuration(designed, rng);
    for (std::uint32_t p = 0; p < designed.num_miners(); ++p) {
      const MinerId miner(p);
      if (s.of(miner) == target) continue;
      EXPECT_TRUE(is_better_response(designed, s, miner, target));
    }
  }
}

TEST(StageRewards, UniqueBetterResponseAtStageStart) {
  // At the start of stage i ≥ 2, the designed game admits exactly one
  // better-response move: the mover to the stage target (Lemma 1).
  const auto fixture = make_fixture(3);
  ASSERT_TRUE(fixture.has_value());
  const Game& g = fixture->game;
  const Configuration& sf = fixture->sf;
  for (std::size_t stage = 2; stage <= g.num_miners(); ++stage) {
    const Configuration start = intermediate_configuration(sf, stage - 1);
    if (start == intermediate_configuration(sf, stage)) continue;
    ASSERT_TRUE(in_stage_set(start, sf, stage));
    const Game designed =
        g.with_rewards(stage_reward_function(g, sf, stage, start));
    const auto moves = all_better_response_moves(designed, start);
    ASSERT_EQ(moves.size(), 1u) << "stage " << stage;
    const auto mover = mover_index(start, sf, stage);
    ASSERT_TRUE(mover.has_value());
    EXPECT_EQ(moves.front().miner,
              MinerId(static_cast<std::uint32_t>(*mover - 1)));
    EXPECT_EQ(moves.front().to, sf.of(MinerId(static_cast<std::uint32_t>(stage - 1))));
  }
}

TEST(StageRewards, RequiresStrictPowerOrder) {
  Game g(System::from_integer_powers({5, 5}, 2),
         RewardFunction::from_integers({10, 10}));
  const Configuration sf(g.system_ptr(), {CoinId(0), CoinId(1)});
  EXPECT_THROW(stage_reward_function(g, sf, 1, sf), std::invalid_argument);
}

// -------------------------------------------------------------- Algorithm 2

/// End-to-end Theorem 2: the mechanism reaches sf for every scheduler, with
/// all invariants audited.
class RewardDesignProperty
    : public ::testing::TestWithParam<std::tuple<SchedulerKind, std::uint64_t>> {};

TEST_P(RewardDesignProperty, ReachesTargetUnderAudit) {
  const auto [kind, seed] = GetParam();
  const auto fixture = make_fixture(seed);
  if (!fixture) GTEST_SKIP() << "game with <2 sampled equilibria";
  auto sched = make_scheduler(kind, seed * 31 + 7);
  DesignOptions opts;
  opts.audit = true;
  const DesignResult result = run_reward_design(
      fixture->game, fixture->s0, fixture->sf, *sched, opts);
  EXPECT_TRUE(result.success);
  EXPECT_TRUE(result.final_configuration == fixture->sf);
  EXPECT_EQ(result.stages.size(), fixture->game.num_miners());
  EXPECT_TRUE(result.total_cost.is_positive());
  EXPECT_GE(result.total_iterations, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RewardDesignProperty,
    ::testing::Combine(::testing::ValuesIn(all_scheduler_kinds()),
                       ::testing::Values(11u, 22u, 33u)));

TEST(RewardDesign, IdentityTargetStillTraversesStages) {
  // s0 == sf: stage 1 still herds everyone to sf.p1 and the remaining
  // stages fan them back out — the mechanism is not a no-op, by design.
  const auto fixture = make_fixture(4);
  ASSERT_TRUE(fixture.has_value());
  auto sched = make_scheduler(SchedulerKind::kLexicographic);
  DesignOptions opts;
  opts.audit = true;
  const auto result = run_reward_design(fixture->game, fixture->s0,
                                        fixture->s0, *sched, opts);
  EXPECT_TRUE(result.success);
  EXPECT_TRUE(result.final_configuration == fixture->s0);
}

TEST(RewardDesign, TwoMinerMinimal) {
  Game g(System::from_integer_powers({2, 1}, 2),
         RewardFunction::from_integers({1, 1}));
  const Configuration s0(g.system_ptr(), {CoinId(0), CoinId(1)});
  const Configuration sf(g.system_ptr(), {CoinId(1), CoinId(0)});
  ASSERT_TRUE(is_equilibrium(g, s0));
  ASSERT_TRUE(is_equilibrium(g, sf));
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    auto sched = make_scheduler(kind, 99);
    DesignOptions opts;
    opts.audit = true;
    const auto result = run_reward_design(g, s0, sf, *sched, opts);
    EXPECT_TRUE(result.success) << scheduler_kind_name(kind);
  }
}

TEST(RewardDesign, SingleMinerTrivial) {
  Game g(System::from_integer_powers({5}, 2),
         RewardFunction::from_integers({10, 4}));
  const Configuration s0(g.system_ptr(), {CoinId(0)});
  ASSERT_TRUE(is_equilibrium(g, s0));
  auto sched = make_scheduler(SchedulerKind::kMaxGain);
  const auto result = run_reward_design(g, s0, s0, *sched);
  EXPECT_TRUE(result.success);
}

TEST(RewardDesign, SharedFinalCoins) {
  // sf stacks several miners on one coin; consecutive-equal-target stages
  // must collapse to no-ops.
  Rng rng(55);
  GameSpec spec;
  spec.num_miners = 5;
  spec.num_coins = 2;
  spec.distinct_powers = true;
  spec.sort_desc = true;
  const Game g = random_game(spec, rng);
  const auto eqs = enumerate_equilibria(g);
  ASSERT_GE(eqs.size(), 1u);
  auto sched = make_scheduler(SchedulerKind::kRandomMove, 3);
  DesignOptions opts;
  opts.audit = true;
  const auto result = run_reward_design(g, eqs.front(), eqs.back(), *sched, opts);
  EXPECT_TRUE(result.success);
}

TEST(RewardDesign, PreconditionsEnforced) {
  Game equal_powers(System::from_integer_powers({3, 3}, 2),
                    RewardFunction::from_integers({5, 5}));
  const Configuration eq(equal_powers.system_ptr(), {CoinId(0), CoinId(1)});
  auto sched = make_scheduler(SchedulerKind::kMaxGain);
  EXPECT_THROW(run_reward_design(equal_powers, eq, eq, *sched),
               std::invalid_argument);

  Game g(System::from_integer_powers({2, 1}, 2),
         RewardFunction::from_integers({1, 1}));
  const Configuration unstable_cfg(g.system_ptr(), {CoinId(0), CoinId(0)});
  const Configuration stable_cfg(g.system_ptr(), {CoinId(0), CoinId(1)});
  EXPECT_THROW(run_reward_design(g, unstable_cfg, stable_cfg, *sched),
               std::invalid_argument);
  EXPECT_THROW(run_reward_design(g, stable_cfg, unstable_cfg, *sched),
               std::invalid_argument);
}

TEST(RewardDesign, CostAccountingConsistent) {
  const auto fixture = make_fixture(6);
  ASSERT_TRUE(fixture.has_value());
  auto sched = make_scheduler(SchedulerKind::kRoundRobin);
  const auto result =
      run_reward_design(fixture->game, fixture->s0, fixture->sf, *sched);
  Rational stage_sum(0);
  std::uint64_t iter_sum = 0;
  for (const StageRecord& rec : result.stages) {
    stage_sum += rec.stage_cost;
    iter_sum += rec.iterations;
    EXPECT_LE(rec.peak_overpayment, result.peak_overpayment);
  }
  EXPECT_EQ(stage_sum, result.total_cost);
  EXPECT_EQ(iter_sum, result.total_iterations);
  EXPECT_GE(result.peak_overpayment, Rational(0));
}

// -------------------------------------------------------------------- naive

TEST(Naive, MethodsRunAndReport) {
  const auto fixture = make_fixture(7);
  ASSERT_TRUE(fixture.has_value());
  auto sched = make_scheduler(SchedulerKind::kRandomMiner, 17);
  const auto prop = naive_proportional_pump(fixture->game, fixture->s0,
                                            fixture->sf, *sched);
  EXPECT_EQ(prop.method, "proportional-pump");
  EXPECT_GE(prop.iterations, 2u);
  EXPECT_TRUE(is_equilibrium(fixture->game, prop.final_configuration));

  const auto deficit =
      naive_deficit_pump(fixture->game, fixture->s0, fixture->sf, *sched);
  EXPECT_EQ(deficit.method, "deficit-pump");
  EXPECT_TRUE(is_equilibrium(fixture->game, deficit.final_configuration));
}

TEST(Naive, SuccessFlagMatchesOutcome) {
  const auto fixture = make_fixture(8);
  ASSERT_TRUE(fixture.has_value());
  auto sched = make_scheduler(SchedulerKind::kLexicographic);
  const auto r = naive_proportional_pump(fixture->game, fixture->s0,
                                         fixture->sf, *sched);
  EXPECT_EQ(r.success, r.final_configuration == fixture->sf);
}

TEST(Naive, FailsSomewhereAlgorithm2Succeeds) {
  // Find seeds where a naive pump misses the target; Algorithm 2 must
  // still succeed there. (Existence of such cases for both naive methods
  // is the point of E8.)
  bool proportional_failed = false;
  bool deficit_failed = false;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const auto fixture = make_fixture(seed);
    if (!fixture) continue;
    auto sched = make_scheduler(SchedulerKind::kRandomMiner, seed);
    const bool proportional_ok =
        naive_proportional_pump(fixture->game, fixture->s0, fixture->sf,
                                *sched)
            .success;
    sched = make_scheduler(SchedulerKind::kRandomMiner, seed);
    const bool deficit_ok =
        naive_deficit_pump(fixture->game, fixture->s0, fixture->sf, *sched)
            .success;
    if (proportional_ok && deficit_ok) continue;
    proportional_failed |= !proportional_ok;
    deficit_failed |= !deficit_ok;
    sched = make_scheduler(SchedulerKind::kRandomMiner, seed);
    const auto principled = run_reward_design(fixture->game, fixture->s0,
                                              fixture->sf, *sched);
    EXPECT_TRUE(principled.success) << "seed " << seed;
  }
  EXPECT_TRUE(proportional_failed)
      << "proportional pump never failed across 60 seeds — baseline too "
         "strong?";
  EXPECT_TRUE(deficit_failed)
      << "deficit pump never failed across 60 seeds — baseline too strong?";
}

}  // namespace
}  // namespace goc
