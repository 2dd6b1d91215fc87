#include <gtest/gtest.h>

#include <cmath>

#include "core/generators.hpp"
#include "core/moves.hpp"
#include "design/intermediate.hpp"
#include "design/stage_rewards.hpp"
#include "dynamics/learning.hpp"
#include "market/market_sim.hpp"
#include "market/price_process.hpp"

namespace goc {
namespace {

// -------------------------------------------------- malicious schedulers

/// Returns a syntactically valid move that is NOT a better response.
class NonImprovingScheduler final : public Scheduler {
 public:
  std::optional<Move> pick(const Game& game, const Configuration& s) override {
    // Claim a zero-gain "improvement" of miner 0 to the next coin.
    const MinerId p(0);
    const CoinId from = s.of(p);
    const CoinId to((from.value + 1) % static_cast<std::uint32_t>(game.num_coins()));
    return Move{p, from, to, Rational(0)};
  }
  std::optional<Move> pick_indexed(
      const Game& game, const Configuration& s,
      const dynamics::BestResponseIndex& /*index*/) override {
    return pick(game, s);
  }
  std::string name() const override { return "malicious-nonimproving"; }
};

/// Returns a move whose `from` does not match the configuration.
class MisappliedScheduler final : public Scheduler {
 public:
  std::optional<Move> pick(const Game& game, const Configuration& s) override {
    const MinerId p(0);
    const CoinId wrong_from(
        (s.of(p).value + 1) % static_cast<std::uint32_t>(game.num_coins()));
    return Move{p, wrong_from, s.of(p), Rational(1)};
  }
  std::optional<Move> pick_indexed(
      const Game& game, const Configuration& s,
      const dynamics::BestResponseIndex& /*index*/) override {
    return pick(game, s);
  }
  std::string name() const override { return "malicious-misapplied"; }
};

TEST(FailureInjection, LearningRejectsNonImprovingMove) {
  Game g(System::from_integer_powers({2, 1}, 2),
         RewardFunction::from_integers({1, 1}));
  const Configuration s(g.system_ptr(), {CoinId(0), CoinId(0)});
  NonImprovingScheduler sched;
  for (const bool use_index : {true, false}) {
    LearningOptions options;
    options.use_index = use_index;
    EXPECT_THROW(run_learning(g, s, sched, options), InvariantError)
        << "use_index=" << use_index;
  }
}

TEST(FailureInjection, LearningRejectsMisappliedMove) {
  Game g(System::from_integer_powers({2, 1}, 2),
         RewardFunction::from_integers({1, 1}));
  const Configuration s(g.system_ptr(), {CoinId(0), CoinId(0)});
  MisappliedScheduler sched;
  for (const bool use_index : {true, false}) {
    LearningOptions options;
    options.use_index = use_index;
    EXPECT_THROW(run_learning(g, s, sched, options), InvariantError)
        << "use_index=" << use_index;
  }
}

// ------------------------------------------ exact arithmetic vs double ref

TEST(ExactArithmetic, AgreesWithDoubleReferenceOnRandomExpressions) {
  Rng rng(123);
  for (int trial = 0; trial < 500; ++trial) {
    const Rational a(rng.uniform_int(-1000, 1000), rng.uniform_int(1, 1000));
    const Rational b(rng.uniform_int(-1000, 1000), rng.uniform_int(1, 1000));
    const Rational c(rng.uniform_int(1, 1000), rng.uniform_int(1, 1000));
    const Rational exact = (a + b) * c - a / c;
    const double ref =
        (a.to_double() + b.to_double()) * c.to_double() - a.to_double() / c.to_double();
    EXPECT_NEAR(exact.to_double(), ref, 1e-9 * (1.0 + std::fabs(ref)));
  }
}

TEST(ExactArithmetic, FieldAxiomsHoldExactly) {
  Rng rng(321);
  for (int trial = 0; trial < 200; ++trial) {
    const Rational a(rng.uniform_int(-500, 500), rng.uniform_int(1, 500));
    const Rational b(rng.uniform_int(-500, 500), rng.uniform_int(1, 500));
    const Rational c(rng.uniform_int(-500, 500), rng.uniform_int(1, 500));
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    if (!c.is_zero()) {
      EXPECT_EQ((a / c) * c, a);
    }
  }
}

TEST(ExactArithmetic, PayoffConservationOnRandomConfigurations) {
  // Σ_p u_p(s) over a coin's members is exactly F(c) — no float drift.
  Rng rng(77);
  GameSpec spec;
  spec.num_miners = 12;
  spec.num_coins = 4;
  const Game g = random_game(spec, rng);
  for (int trial = 0; trial < 20; ++trial) {
    const Configuration s = random_configuration(g, rng);
    for (std::uint32_t c = 0; c < 4; ++c) {
      const CoinId coin(c);
      if (s.empty_coin(coin)) continue;
      Rational sum(0);
      for (const MinerId p : s.members(coin)) sum += g.payoff(s, p);
      EXPECT_EQ(sum, g.rewards()(coin));
    }
  }
}

// ------------------------------------------------ designed-reward edges

TEST(StageRewardEdge, EmptyTargetCoinHandled) {
  // Build sf whose stage-4 target coin (sf.p4 = c2) is empty at the stage
  // start: in s^3, miners sit only on sf.p1..sf.p3 ∪ {sf.p3}. The
  // robustified H must still dominate F and admit exactly one better
  // response.
  auto system = std::make_shared<const System>(
      System::from_integer_powers({50, 40, 30, 20}, 3));
  const Game g(system, RewardFunction::from_integers({100, 90, 80}));
  const Configuration sf(system, {CoinId(0), CoinId(1), CoinId(0), CoinId(2)});
  const Configuration start = intermediate_configuration(sf, 3);
  ASSERT_TRUE(start.empty_coin(CoinId(2)));  // c2 = stage-4 target, empty
  const RewardFunction h = stage_reward_function(g, sf, 4, start);
  EXPECT_TRUE(h.dominates(g.rewards()));
  const Game designed = g.with_rewards(h);
  const auto moves = all_better_response_moves(designed, start);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves.front().miner, MinerId(3));
  EXPECT_EQ(moves.front().to, CoinId(2));
}

TEST(StageRewardEdge, SubUnitPowersStillAttract) {
  // Powers below 1 break the paper's literal Eq. 5 (see DESIGN.md §2.2);
  // the robustified stage-1 function must still pull everyone in.
  auto system = std::make_shared<const System>(System(
      {Rational(3, 10), Rational(2, 10), Rational(1, 10)}, 2));
  const Game g(system, RewardFunction::from_integers({7, 5}));
  const Configuration sf(system, {CoinId(1), CoinId(0), CoinId(1)});
  const Configuration anywhere(system, {CoinId(0), CoinId(1), CoinId(0)});
  const Game designed = g.with_rewards(stage_reward_function(g, sf, 1, anywhere));
  for (std::uint32_t p = 0; p < 3; ++p) {
    const MinerId miner(p);
    if (anywhere.of(miner) == CoinId(1)) continue;
    EXPECT_TRUE(is_better_response(designed, anywhere, miner, CoinId(1)));
  }
}

// --------------------------------------------------------- market validation

TEST(MarketValidation, RejectsBadConstruction) {
  using namespace goc::market;
  MarketOptions opts;
  EXPECT_THROW(MarketSimulator({1, 2}, {}, opts), std::invalid_argument);

  std::vector<CoinSpec> coins;
  coins.emplace_back("c", 10.0, 6.0,
                     std::make_unique<GbmProcess>(10.0, 0.0, 0.01),
                     FeeMarket(1.0, 0.01, 2.0));
  MarketOptions bad;
  bad.epoch_hours = 0.0;
  EXPECT_THROW(MarketSimulator({1, 2}, std::move(coins), bad),
               std::invalid_argument);
}

TEST(MarketValidation, WhaleIndexChecked) {
  using namespace goc::market;
  std::vector<CoinSpec> coins;
  coins.emplace_back("c", 10.0, 6.0,
                     std::make_unique<GbmProcess>(10.0, 0.0, 0.01),
                     FeeMarket(1.0, 0.01, 2.0));
  MarketOptions opts;
  MarketSimulator sim({1, 2}, std::move(coins), opts);
  EXPECT_THROW(sim.inject_whale(3, 100.0), std::invalid_argument);
  EXPECT_THROW(sim.current_game(), std::invalid_argument);  // no epoch yet
}

// ------------------------------------------------------------ access + reward

TEST(AccessCarriesThroughWithRewards, DesignedGamesKeepThePolicy) {
  Game g(System::from_integer_powers({2, 1}, 2),
         RewardFunction::from_integers({3, 4}),
         AccessPolicy({{true, false}, {true, true}}));
  const Game designed = g.with_rewards(RewardFunction::from_integers({9, 9}));
  EXPECT_FALSE(designed.can_mine(MinerId(0), CoinId(1)));
  EXPECT_TRUE(designed.can_mine(MinerId(1), CoinId(1)));
}

}  // namespace
}  // namespace goc
