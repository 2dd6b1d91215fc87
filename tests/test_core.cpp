#include <gtest/gtest.h>

#include "core/configuration.hpp"
#include "core/enumerate.hpp"
#include "core/game.hpp"
#include "core/generators.hpp"
#include "core/moves.hpp"
#include "core/reward.hpp"
#include "core/system.hpp"

namespace goc {
namespace {

Game prop1_game() {
  // The worked example from Proposition 1: m = (2, 1), F ≡ 1, two coins.
  return Game(System::from_integer_powers({2, 1}, 2),
              RewardFunction::from_integers({1, 1}));
}

// ---------------------------------------------------------------- System

TEST(System, BasicAccessors) {
  System s = System::from_integer_powers({5, 3, 1}, 2);
  EXPECT_EQ(s.num_miners(), 3u);
  EXPECT_EQ(s.num_coins(), 2u);
  EXPECT_EQ(s.power(MinerId(0)), Rational(5));
  EXPECT_EQ(s.total_power(), Rational(9));
  EXPECT_EQ(s.min_power(), Rational(1));
  EXPECT_EQ(s.max_power(), Rational(5));
}

TEST(System, RejectsBadInput) {
  EXPECT_THROW(System({}, 2), std::invalid_argument);
  EXPECT_THROW(System::from_integer_powers({1}, 0), std::invalid_argument);
  EXPECT_THROW(System::from_integer_powers({0}, 1), std::invalid_argument);
  EXPECT_THROW(System::from_integer_powers({-2}, 1), std::invalid_argument);
  System s = System::from_integer_powers({1}, 1);
  EXPECT_THROW(s.power(MinerId(5)), std::invalid_argument);
}

TEST(System, PowerOrderPredicates) {
  EXPECT_TRUE(System::from_integer_powers({5, 3, 1}, 2).strictly_decreasing_powers());
  EXPECT_FALSE(System::from_integer_powers({5, 5, 1}, 2).strictly_decreasing_powers());
  EXPECT_TRUE(System::from_integer_powers({5, 5, 1}, 2).non_increasing_powers());
  EXPECT_FALSE(System::from_integer_powers({1, 5}, 2).non_increasing_powers());
}

TEST(System, SortedByPowerDesc) {
  System s = System::from_integer_powers({1, 5, 3}, 2);
  std::vector<MinerId> perm;
  System sorted = s.sorted_by_power_desc(&perm);
  EXPECT_TRUE(sorted.non_increasing_powers());
  ASSERT_EQ(perm.size(), 3u);
  EXPECT_EQ(perm[0], MinerId(1));  // power 5
  EXPECT_EQ(perm[1], MinerId(2));  // power 3
  EXPECT_EQ(perm[2], MinerId(0));  // power 1
  EXPECT_EQ(sorted.power(MinerId(0)), Rational(5));
}

// ---------------------------------------------------------------- RewardFunction

TEST(RewardFunction, BasicAccessors) {
  RewardFunction f = RewardFunction::from_integers({10, 20, 5});
  EXPECT_EQ(f.num_coins(), 3u);
  EXPECT_EQ(f(CoinId(1)), Rational(20));
  EXPECT_EQ(f.max_reward(), Rational(20));
  EXPECT_EQ(f.min_reward(), Rational(5));
  EXPECT_EQ(f.total_reward(), Rational(35));
  EXPECT_FALSE(f.is_symmetric());
  EXPECT_TRUE(RewardFunction::constant(3, Rational(7)).is_symmetric());
}

TEST(RewardFunction, RejectsNonPositive) {
  EXPECT_THROW(RewardFunction::from_integers({1, 0}), std::invalid_argument);
  EXPECT_THROW(RewardFunction::from_integers({-1}), std::invalid_argument);
  EXPECT_THROW(RewardFunction({}), std::invalid_argument);
}

TEST(RewardFunction, WithReplacesOneCoin) {
  RewardFunction f = RewardFunction::from_integers({10, 20});
  RewardFunction g = f.with(CoinId(0), Rational(50));
  EXPECT_EQ(g(CoinId(0)), Rational(50));
  EXPECT_EQ(g(CoinId(1)), Rational(20));
  EXPECT_EQ(f(CoinId(0)), Rational(10));  // original untouched
}

TEST(RewardFunction, DominanceAndOverpayment) {
  RewardFunction base = RewardFunction::from_integers({10, 20});
  RewardFunction high = RewardFunction::from_integers({15, 20});
  RewardFunction low = RewardFunction::from_integers({9, 25});
  EXPECT_TRUE(high.dominates(base));
  EXPECT_FALSE(low.dominates(base));
  EXPECT_EQ(high.overpayment(base), Rational(5));
  EXPECT_THROW(low.overpayment(base), std::invalid_argument);
}

// ---------------------------------------------------------------- Configuration

TEST(Configuration, MassAndPopulationTracking) {
  auto system = std::make_shared<const System>(
      System::from_integer_powers({5, 3, 1}, 3));
  Configuration s(system, {CoinId(0), CoinId(0), CoinId(2)});
  EXPECT_EQ(s.mass(CoinId(0)), Rational(8));
  EXPECT_EQ(s.mass(CoinId(1)), Rational(0));
  EXPECT_EQ(s.mass(CoinId(2)), Rational(1));
  EXPECT_EQ(s.population(CoinId(0)), 2u);
  EXPECT_TRUE(s.empty_coin(CoinId(1)));
  EXPECT_EQ(s.occupied_coins(), 2u);
}

TEST(Configuration, MoveUpdatesIncrementally) {
  auto system = std::make_shared<const System>(
      System::from_integer_powers({5, 3, 1}, 3));
  Configuration s(system, {CoinId(0), CoinId(0), CoinId(2)});
  s.move(MinerId(0), CoinId(1));
  EXPECT_EQ(s.of(MinerId(0)), CoinId(1));
  EXPECT_EQ(s.mass(CoinId(0)), Rational(3));
  EXPECT_EQ(s.mass(CoinId(1)), Rational(5));
  EXPECT_EQ(s.occupied_coins(), 3u);
  // Move back and verify full restoration.
  s.move(MinerId(0), CoinId(0));
  EXPECT_EQ(s.mass(CoinId(0)), Rational(8));
  EXPECT_TRUE(s.empty_coin(CoinId(1)));
}

TEST(Configuration, MoveToSameCoinIsNoop) {
  auto system = std::make_shared<const System>(
      System::from_integer_powers({5, 3}, 2));
  Configuration s(system, {CoinId(0), CoinId(1)});
  s.move(MinerId(0), CoinId(0));
  EXPECT_EQ(s.mass(CoinId(0)), Rational(5));
  EXPECT_EQ(s.population(CoinId(0)), 1u);
}

TEST(Configuration, MembersInIdOrder) {
  auto system = std::make_shared<const System>(
      System::from_integer_powers({5, 3, 1, 2}, 2));
  Configuration s(system, {CoinId(1), CoinId(0), CoinId(1), CoinId(1)});
  const auto members = s.members(CoinId(1));
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0], MinerId(0));
  EXPECT_EQ(members[1], MinerId(2));
  EXPECT_EQ(members[2], MinerId(3));
}

TEST(Configuration, WithMoveLeavesOriginal) {
  auto system = std::make_shared<const System>(
      System::from_integer_powers({5, 3}, 2));
  Configuration s(system, {CoinId(0), CoinId(0)});
  Configuration t = s.with_move(MinerId(1), CoinId(1));
  EXPECT_EQ(s.of(MinerId(1)), CoinId(0));
  EXPECT_EQ(t.of(MinerId(1)), CoinId(1));
}

TEST(Configuration, EqualityAndHash) {
  auto system = std::make_shared<const System>(
      System::from_integer_powers({5, 3}, 2));
  Configuration a(system, {CoinId(0), CoinId(1)});
  Configuration b(system, {CoinId(0), CoinId(1)});
  Configuration c(system, {CoinId(1), CoinId(0)});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(Configuration, RejectsBadInput) {
  auto system = std::make_shared<const System>(
      System::from_integer_powers({5, 3}, 2));
  EXPECT_THROW(Configuration(system, {CoinId(0)}), std::invalid_argument);
  EXPECT_THROW(Configuration(system, {CoinId(0), CoinId(7)}),
               std::invalid_argument);
  EXPECT_THROW(Configuration(nullptr, {}), std::invalid_argument);
}

// ---------------------------------------------------------------- Game payoffs

TEST(Game, Proposition1WorkedExample) {
  // The four configurations and payoffs from the proof of Proposition 1.
  const Game g = prop1_game();
  const auto sys = g.system_ptr();
  const Configuration s1(sys, {CoinId(0), CoinId(0)});
  const Configuration s2(sys, {CoinId(0), CoinId(1)});
  const Configuration s3(sys, {CoinId(1), CoinId(1)});
  const Configuration s4(sys, {CoinId(1), CoinId(0)});

  EXPECT_EQ(g.payoff(s1, MinerId(0)), Rational(2, 3));
  EXPECT_EQ(g.payoff(s1, MinerId(1)), Rational(1, 3));
  EXPECT_EQ(g.payoff(s2, MinerId(0)), Rational(1));
  EXPECT_EQ(g.payoff(s2, MinerId(1)), Rational(1));
  EXPECT_EQ(g.payoff(s3, MinerId(0)), Rational(2, 3));
  EXPECT_EQ(g.payoff(s3, MinerId(1)), Rational(1, 3));
  EXPECT_EQ(g.payoff(s4, MinerId(0)), Rational(1));
  EXPECT_EQ(g.payoff(s4, MinerId(1)), Rational(1));
}

TEST(Game, RpuIncludingEmptyCoin) {
  const Game g = prop1_game();
  const Configuration s(g.system_ptr(), {CoinId(0), CoinId(0)});
  EXPECT_EQ(g.rpu(s, CoinId(0)).finite_value(), Rational(1, 3));
  EXPECT_TRUE(g.rpu(s, CoinId(1)).is_infinite());
}

TEST(Game, PayoffIfMove) {
  const Game g = prop1_game();
  const Configuration s(g.system_ptr(), {CoinId(0), CoinId(0)});
  // p1 moving alone to c1 earns the whole reward.
  EXPECT_EQ(g.payoff_if_move(s, MinerId(1), CoinId(1)), Rational(1));
  // Staying is the current payoff.
  EXPECT_EQ(g.payoff_if_move(s, MinerId(1), CoinId(0)), Rational(1, 3));
}

TEST(Game, RejectsArityMismatch) {
  EXPECT_THROW(Game(System::from_integer_powers({1}, 2),
                    RewardFunction::from_integers({1})),
               std::invalid_argument);
}

TEST(Game, WithRewardsSharesSystem) {
  const Game g = prop1_game();
  const Game g2 = g.with_rewards(RewardFunction::from_integers({5, 1}));
  EXPECT_EQ(g.system_ptr().get(), g2.system_ptr().get());
  const Configuration s(g.system_ptr(), {CoinId(0), CoinId(0)});
  EXPECT_EQ(g2.payoff(s, MinerId(0)), Rational(10, 3));
}

// ---------------------------------------------------------------- moves

TEST(Moves, BetterResponseDetection) {
  const Game g = prop1_game();
  const Configuration s(g.system_ptr(), {CoinId(0), CoinId(0)});
  // Both miners gain by fleeing the shared coin.
  EXPECT_TRUE(is_better_response(g, s, MinerId(0), CoinId(1)));
  EXPECT_TRUE(is_better_response(g, s, MinerId(1), CoinId(1)));
  EXPECT_FALSE(is_better_response(g, s, MinerId(0), CoinId(0)));
}

TEST(Moves, GainValues) {
  const Game g = prop1_game();
  const Configuration s(g.system_ptr(), {CoinId(0), CoinId(0)});
  EXPECT_EQ(move_gain(g, s, MinerId(0), CoinId(1)), Rational(1, 3));
  EXPECT_EQ(move_gain(g, s, MinerId(1), CoinId(1)), Rational(2, 3));
}

TEST(Moves, EquilibriumDetection) {
  const Game g = prop1_game();
  const Configuration split(g.system_ptr(), {CoinId(0), CoinId(1)});
  const Configuration shared(g.system_ptr(), {CoinId(0), CoinId(0)});
  EXPECT_TRUE(is_equilibrium(g, split));
  EXPECT_FALSE(is_equilibrium(g, shared));
  EXPECT_TRUE(unstable_miners(g, split).empty());
  EXPECT_EQ(unstable_miners(g, shared).size(), 2u);
}

TEST(Moves, BestResponsePicksMaxGain) {
  // Three coins: the lone miner at a poor coin should pick the heaviest.
  Game g(System::from_integer_powers({1, 4}, 3),
         RewardFunction::from_integers({1, 9, 5}));
  const Configuration s(g.system_ptr(), {CoinId(0), CoinId(1)});
  // For miner 0: stay=1; c1 → 9·1/5; c2 → 5. Best is c2 (5 > 9/5 > 1).
  const auto br = best_response(g, s, MinerId(0));
  ASSERT_TRUE(br.has_value());
  EXPECT_EQ(*br, CoinId(2));
  // The one scan behind it sees both better responses, in coin-id order.
  std::vector<CoinId> improving;
  const MoveScan scan = scan_moves(g, s, MinerId(0), &improving);
  EXPECT_EQ(scan.current.to_rational(), Rational(1));
  EXPECT_EQ(scan.best, CoinId(2));
  EXPECT_EQ(scan.best_payoff.to_rational(), Rational(5));
  EXPECT_EQ(scan.best_gain(), Rational(4));
  EXPECT_EQ(improving, (std::vector<CoinId>{CoinId(1), CoinId(2)}));
  EXPECT_EQ(count_better_responses(g, s, MinerId(0)), 2u);
  // ε-stability is decided by the best response: gain 4 against payoff 1.
  EXPECT_FALSE(is_epsilon_stable(g, s, MinerId(0), Rational(3)));
  EXPECT_TRUE(is_epsilon_stable(g, s, MinerId(0), Rational(4)));

  // A lone miner on coin 0 (reward 1) facing coins 1 and 2 that both pay
  // 3: the exact tie goes to the lower coin id, with or without the list.
  Game tie(System::from_integer_powers({1}, 3),
           RewardFunction::from_integers({1, 3, 3}));
  const Configuration alone(tie.system_ptr(), {CoinId(0)});
  EXPECT_EQ(scan_moves(tie, alone, MinerId(0), &improving).best, CoinId(1));
  EXPECT_EQ(improving.size(), 2u);
  EXPECT_EQ(best_response(tie, alone, MinerId(0)), CoinId(1));
  // The buffer is cleared on reuse: a stable miner leaves it empty.
  const Configuration settled(tie.system_ptr(), {CoinId(1)});
  const MoveScan stable = scan_moves(tie, settled, MinerId(0), &improving);
  EXPECT_FALSE(stable.best.has_value());
  EXPECT_EQ(stable.best_payoff, stable.current);
  EXPECT_TRUE(improving.empty());
  EXPECT_TRUE(is_stable(tie, settled, MinerId(0)));
}

TEST(Moves, AllBetterResponseMovesComplete) {
  const Game g = prop1_game();
  const Configuration s(g.system_ptr(), {CoinId(0), CoinId(0)});
  const auto moves = all_better_response_moves(g, s);
  ASSERT_EQ(moves.size(), 2u);
  for (const Move& m : moves) {
    EXPECT_EQ(m.from, CoinId(0));
    EXPECT_EQ(m.to, CoinId(1));
    EXPECT_TRUE(m.gain.is_positive());
  }
  // The count and positional queries walk the same (miner, coin) order.
  EXPECT_EQ(count_all_better_response_moves(g, s), 2u);
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const auto nth = nth_better_response_move(g, s, i);
    ASSERT_TRUE(nth.has_value());
    EXPECT_EQ(nth->miner, moves[i].miner);
    EXPECT_EQ(nth->gain, moves[i].gain);
  }
  EXPECT_EQ(moves[0].gain, Rational(1, 3));
  EXPECT_EQ(moves[1].gain, Rational(2, 3));
  EXPECT_FALSE(nth_better_response_move(g, s, 2).has_value());
}

// ---------------------------------------------------------------- enumerate

TEST(Enumerate, CountsAndVisitsAll) {
  auto system = std::make_shared<const System>(
      System::from_integer_powers({2, 1}, 3));
  EXPECT_EQ(configuration_count(*system), 9u);
  std::size_t visited = 0;
  for_each_configuration(system, 100, [&](const Configuration&) {
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, 9u);
}

TEST(Enumerate, EarlyStop) {
  auto system = std::make_shared<const System>(
      System::from_integer_powers({2, 1}, 3));
  std::size_t visited = 0;
  for_each_configuration(system, 100, [&](const Configuration&) {
    ++visited;
    return visited < 4;
  });
  EXPECT_EQ(visited, 4u);
}

TEST(Enumerate, VisitsDistinctConfigurations) {
  auto system = std::make_shared<const System>(
      System::from_integer_powers({2, 1, 1}, 2));
  std::vector<std::vector<CoinId>> seen;
  for_each_configuration(system, 100, [&](const Configuration& s) {
    seen.push_back(s.assignment());
    return true;
  });
  EXPECT_EQ(seen.size(), 8u);
  std::sort(seen.begin(), seen.end(),
            [](const auto& a, const auto& b) {
              return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                                  b.end());
            });
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(Enumerate, RefusesHugeSpaces) {
  auto system = std::make_shared<const System>(
      System::from_integer_powers(std::vector<std::int64_t>(40, 1), 10));
  EXPECT_FALSE(configuration_count(*system).has_value());
  EXPECT_THROW(
      for_each_configuration(system, 1000, [](const Configuration&) { return true; }),
      std::invalid_argument);
}

// ---------------------------------------------------------------- generators

TEST(Generators, RespectsSpecShape) {
  GameSpec spec;
  spec.num_miners = 20;
  spec.num_coins = 4;
  spec.power_lo = 10;
  spec.power_hi = 99;
  spec.reward_lo = 5;
  spec.reward_hi = 50;
  Rng rng(1);
  const Game g = random_game(spec, rng);
  EXPECT_EQ(g.num_miners(), 20u);
  EXPECT_EQ(g.num_coins(), 4u);
  for (const auto& m : g.system().powers()) {
    EXPECT_GE(m, Rational(10));
    EXPECT_LE(m, Rational(99));
  }
  for (const auto& r : g.rewards().values()) {
    EXPECT_GE(r, Rational(5));
    EXPECT_LE(r, Rational(50));
  }
}

TEST(Generators, DistinctSortedPowers) {
  GameSpec spec;
  spec.num_miners = 30;
  spec.num_coins = 3;
  spec.power_lo = 1;
  spec.power_hi = 5;  // heavy collisions guaranteed
  spec.distinct_powers = true;
  spec.sort_desc = true;
  Rng rng(2);
  const Game g = random_game(spec, rng);
  EXPECT_TRUE(g.system().strictly_decreasing_powers());
}

TEST(Generators, DeterministicForSeed) {
  GameSpec spec;
  spec.num_miners = 10;
  Rng rng1(3), rng2(3);
  const Game a = random_game(spec, rng1);
  const Game b = random_game(spec, rng2);
  EXPECT_EQ(a.system().powers(), b.system().powers());
  EXPECT_EQ(a.rewards().values(), b.rewards().values());
}

TEST(Generators, ZipfSkew) {
  GameSpec spec;
  spec.num_miners = 10;
  spec.power_shape = PowerShape::kZipf;
  spec.power_hi = 1000;
  spec.zipf_s = 1.0;
  Rng rng(4);
  const Game g = random_game(spec, rng);
  EXPECT_EQ(g.system().powers()[0], Rational(1000));
  EXPECT_GT(g.system().powers()[0], g.system().powers()[9]);
}

TEST(Generators, WithDistinctPowersPreservesOrder) {
  System base = System::from_integer_powers({5, 5, 3, 3, 3, 1}, 2);
  System distinct = with_distinct_powers(base);
  EXPECT_TRUE(distinct.strictly_decreasing_powers());
  // m_i ↦ m_i·(n+1) + (n−i) with n = 6: integers in, integers out, and the
  // power *ratios* move by at most O(n/scale).
  const std::int64_t n = 6;
  for (std::size_t i = 0; i < base.num_miners(); ++i) {
    EXPECT_EQ(distinct.powers()[i],
              base.powers()[i] * Rational(n + 1) +
                  Rational(n - static_cast<std::int64_t>(i)));
    EXPECT_TRUE(distinct.powers()[i].is_integer());
  }
}

TEST(Generators, WithDistinctPowersRejectsFineGaps) {
  // A nonzero gap of 1/1000 is finer than n/scale for the default scale.
  System base({Rational(1), Rational(1) + Rational(1, 1000)}, 2);
  EXPECT_THROW(with_distinct_powers(base), std::invalid_argument);
  // A big enough scale accepts it.
  System ok = with_distinct_powers(base, 1 << 20);
  EXPECT_EQ(ok.num_miners(), 2u);
}

TEST(Generators, RandomConfigurationValid) {
  GameSpec spec;
  spec.num_miners = 12;
  spec.num_coins = 5;
  Rng rng(5);
  const Game g = random_game(spec, rng);
  const Configuration s = random_configuration(g, rng);
  EXPECT_EQ(s.num_miners(), 12u);
  Rational total(0);
  for (std::uint32_t c = 0; c < 5; ++c) total += s.mass(CoinId(c));
  EXPECT_EQ(total, g.system().total_power());
}

}  // namespace
}  // namespace goc
