#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <tuple>
#include <utility>

#include "core/enumerate.hpp"
#include "core/generators.hpp"
#include "core/move_compare.hpp"
#include "core/moves.hpp"
#include "dynamics/best_response_index.hpp"
#include "dynamics/learning.hpp"
#include "dynamics/scheduler.hpp"
#include "obs/registry.hpp"

/// The index contract: `dynamics::BestResponseIndex` must agree with the
/// scan-based reference implementation in core/moves.* on every cached
/// fact, and schedulers driven through it must pick bit-identical move
/// sequences — for every scheduler kind, under adversarial mass ties
/// (Assumption 2 off), under restricted access, and in the non-integer
/// exact-arithmetic fallback mode.

namespace goc {
namespace {

using dynamics::BestResponseIndex;

Game random_integer_game(Rng& rng) {
  GameSpec spec;
  spec.num_miners = 3 + static_cast<std::size_t>(rng.next_below(15));
  spec.num_coins = 2 + static_cast<std::size_t>(rng.next_below(5));
  spec.power_lo = 1;
  spec.power_hi = 500;
  spec.reward_lo = 10;
  spec.reward_hi = 5000;
  return random_game(spec, rng);
}

/// A game whose powers and rewards are non-integer rationals, forcing the
/// comparator off the i128 fast path.
Game rational_game() {
  std::vector<Rational> powers = {Rational(7, 3), Rational(5, 3),
                                  Rational(11, 7), Rational(1, 2),
                                  Rational(13, 6)};
  std::vector<Rational> rewards = {Rational(10, 3), Rational(7, 2),
                                   Rational(9, 4)};
  const std::size_t coins = rewards.size();
  return Game(System(std::move(powers), coins),
              RewardFunction(std::move(rewards)));
}

/// Equal powers and equal rewards: Assumption 2 (genericity) is maximally
/// violated, so post-move payoffs tie constantly and every tie-break in
/// the index is exercised.
Game tie_game(std::size_t miners, std::size_t coins) {
  return Game(System::from_integer_powers(
                  std::vector<std::int64_t>(miners, 3), coins),
              RewardFunction::constant(coins, Rational(12)));
}

/// 12 miners × 5 coins, each miner allowed on a random half of the coins.
Game restricted_game() {
  Rng rng(31);
  GameSpec spec;
  spec.num_miners = 12;
  spec.num_coins = 5;
  const Game base = random_game(spec, rng);
  AccessPolicy policy = AccessPolicy::random(12, 5, 0.5, rng);
  return Game(base.system_ptr(), base.rewards(), policy);
}

/// Every miner on its lowest allowed coin.
Configuration allowed_start(const Game& g) {
  std::vector<CoinId> assignment;
  for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
    assignment.push_back(g.allowed_coins(MinerId(p)).front());
  }
  return Configuration(g.system_ptr(), assignment);
}

/// The paper's definitions as a plain double loop over `payoff` and
/// `payoff_if_move`, independent of `scan_moves`: every improving move in
/// (miner, coin) order, and each miner's first maximal post-move payoff.
struct DoubleLoop {
  std::vector<Move> moves;
  std::vector<Rational> current;
  std::vector<std::optional<CoinId>> best;
  std::vector<Rational> best_payoff;  // current payoff when stable
};

DoubleLoop double_loop(const Game& g, const Configuration& s) {
  DoubleLoop out;
  for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
    const MinerId miner(p);
    const Rational current = g.payoff(s, miner);
    std::optional<CoinId> best;
    Rational best_payoff = current;
    for (std::uint32_t c = 0; c < g.num_coins(); ++c) {
      const CoinId coin(c);
      if (coin == s.of(miner) || !g.can_mine(miner, coin)) continue;
      const Rational after = g.payoff_if_move(s, miner, coin);
      if (after > current) {
        out.moves.push_back(Move{miner, s.of(miner), coin, after - current});
      }
      if (after > best_payoff) {
        best = coin;
        best_payoff = after;
      }
    }
    out.current.push_back(current);
    out.best.push_back(best);
    out.best_payoff.push_back(best_payoff);
  }
  return out;
}

/// Every `core/moves` query against the double loop.
void expect_moves_match_double_loop(const Game& g, const Configuration& s) {
  const DoubleLoop ref = double_loop(g, s);
  const auto moves = all_better_response_moves(g, s);
  ASSERT_EQ(moves.size(), ref.moves.size());
  for (std::size_t i = 0; i < moves.size(); ++i) {
    EXPECT_EQ(moves[i].miner, ref.moves[i].miner);
    EXPECT_EQ(moves[i].from, ref.moves[i].from);
    EXPECT_EQ(moves[i].to, ref.moves[i].to);
    EXPECT_EQ(moves[i].gain, ref.moves[i].gain);
  }
  EXPECT_EQ(count_all_better_response_moves(g, s), ref.moves.size());
  if (!ref.moves.empty()) {
    for (const std::size_t i :
         {std::size_t{0}, ref.moves.size() / 2, ref.moves.size() - 1}) {
      const auto nth = nth_better_response_move(g, s, i);
      ASSERT_TRUE(nth.has_value());
      EXPECT_EQ(nth->miner, ref.moves[i].miner);
      EXPECT_EQ(nth->to, ref.moves[i].to);
      EXPECT_EQ(nth->gain, ref.moves[i].gain);
    }
  }
  EXPECT_FALSE(nth_better_response_move(g, s, ref.moves.size()).has_value());

  std::vector<MinerId> unstable;
  std::vector<CoinId> improving;
  for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
    const MinerId miner(p);
    std::vector<CoinId> coins;
    for (const Move& m : ref.moves) {
      if (m.miner == miner) coins.push_back(m.to);
    }
    if (!coins.empty()) unstable.push_back(miner);
    const MoveScan scan = scan_moves(g, s, miner, &improving);
    EXPECT_EQ(scan.current.to_rational(), ref.current[p]);
    EXPECT_EQ(scan.best, ref.best[p]);
    EXPECT_EQ(scan.best_payoff.to_rational(), ref.best_payoff[p]);
    EXPECT_EQ(improving, coins);
    EXPECT_EQ(scan_moves(g, s, miner).best, ref.best[p]);
    EXPECT_EQ(better_responses(g, s, miner), coins);
    EXPECT_EQ(best_response(g, s, miner), ref.best[p]);
    EXPECT_EQ(is_stable(g, s, miner), coins.empty());
    EXPECT_EQ(count_better_responses(g, s, miner), coins.size());
    for (const Rational& eps :
         {Rational(0), Rational(1, 100), Rational(1, 4)}) {
      const Rational threshold = ref.current[p] + ref.current[p] * eps;
      EXPECT_EQ(is_epsilon_stable(g, s, miner, eps),
                !(ref.best_payoff[p] > threshold));
    }
  }
  EXPECT_EQ(unstable_miners(g, s), unstable);
  EXPECT_EQ(is_equilibrium(g, s), unstable.empty());
}

void expect_index_matches_scan(const Game& g, const Configuration& s,
                               const BestResponseIndex& index) {
  expect_moves_match_double_loop(g, s);
  ASSERT_NO_THROW(index.audit());
  EXPECT_EQ(index.unstable(), unstable_miners(g, s));
  EXPECT_EQ(index.total_improving(), all_better_response_moves(g, s).size());
  EXPECT_EQ(index.at_equilibrium(), is_equilibrium(g, s));
  for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
    const MinerId miner(p);
    EXPECT_EQ(index.best_of(miner), best_response(g, s, miner));
    const auto options = better_responses(g, s, miner);
    ASSERT_EQ(index.improving_count(miner), options.size());
    for (std::size_t i = 0; i < options.size(); ++i) {
      EXPECT_EQ(index.nth_improving(miner, i), options[i]);
    }
  }
}

// ------------------------------------------------------ payoff formula

/// The paper's payoff in reduced `Rational` arithmetic, as `Game::payoff`
/// and `Game::payoff_if_move` evaluated it before `payoff_fraction`.
Rational rational_payoff(const Game& g, const Configuration& s, MinerId p,
                         CoinId c) {
  const Rational& mp = g.system().power(p);
  const Rational& reward = g.rewards()(c);
  return s.of(p) == c ? mp * reward / s.mass(c)
                      : mp * reward / (s.mass(c) + mp);
}

struct PayoffCheckCounts {
  int values = 0;
  int payoff_overflows = 0;
  int gain_overflows = 0;
};

/// `payoff_fraction` against `rational_payoff` for every (miner, coin):
/// the same value, or OverflowError exactly when the reduced evaluation
/// throws; `payoff`, `payoff_if_move` and `move_gain` follow it.
void expect_payoff_fraction_matches(const Game& g, const Configuration& s,
                                    PayoffCheckCounts& counts) {
  for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
    const MinerId miner(p);
    const CoinId here = s.of(miner);
    std::optional<Rational> current;
    try {
      current = rational_payoff(g, s, miner, here);
    } catch (const OverflowError&) {
    }
    for (std::uint32_t c = 0; c < g.num_coins(); ++c) {
      const CoinId coin(c);
      if (coin != here && !g.can_mine(miner, coin)) {
        EXPECT_THROW(g.payoff_fraction(s, miner, coin), std::invalid_argument);
        EXPECT_THROW(g.payoff_if_move(s, miner, coin), std::invalid_argument);
        continue;
      }
      std::optional<Rational> expected;
      try {
        expected = rational_payoff(g, s, miner, coin);
      } catch (const OverflowError&) {
      }
      if (!expected) {
        ++counts.payoff_overflows;
        EXPECT_THROW(g.payoff_fraction(s, miner, coin), OverflowError);
        continue;
      }
      ++counts.values;
      const Fraction u = g.payoff_fraction(s, miner, coin);
      EXPECT_EQ(u.to_rational(), *expected);
      EXPECT_TRUE(u == (Fraction{expected->numerator(),
                                 expected->denominator()}));
      if (coin == here) {
        EXPECT_EQ(g.payoff(s, miner), *expected);
      }
      if (!g.can_mine(miner, coin)) {
        EXPECT_THROW(g.payoff_if_move(s, miner, coin), std::invalid_argument);
        EXPECT_THROW(move_gain(g, s, miner, coin), std::invalid_argument);
        continue;
      }
      EXPECT_EQ(g.payoff_if_move(s, miner, coin), *expected);
      if (!current) continue;
      std::optional<Rational> gain;
      try {
        gain = *expected - *current;
      } catch (const OverflowError&) {
      }
      if (gain) {
        EXPECT_EQ(move_gain(g, s, miner, coin), *gain);
      } else {
        ++counts.gain_overflows;
        EXPECT_THROW(move_gain(g, s, miner, coin), OverflowError);
      }
    }
  }
}

TEST(PayoffFraction, IntegerGameKeepsRawProductsUnreduced) {
  // m = (2, 4), F = (6, 3), both on coin 0 (mass 6): miner 0's payoff is
  // 2·6/6 and its move to coin 1 pays 2·3/(0 + 2), both as computed.
  const Game g(System::from_integer_powers({2, 4}, 2),
               RewardFunction::from_integers({6, 3}));
  const Configuration s(g.system_ptr(), {CoinId(0), CoinId(0)});
  const Fraction stay = g.payoff_fraction(s, MinerId(0), CoinId(0));
  EXPECT_EQ(stay.num, 12);
  EXPECT_EQ(stay.den, 6);
  const Fraction move = g.payoff_fraction(s, MinerId(0), CoinId(1));
  EXPECT_EQ(move.num, 6);
  EXPECT_EQ(move.den, 2);
  EXPECT_EQ(stay.to_rational(), g.payoff(s, MinerId(0)));
  EXPECT_EQ(move.to_rational(), g.payoff_if_move(s, MinerId(0), CoinId(1)));

  Rng rng(71);
  PayoffCheckCounts counts;
  for (int trial = 0; trial < 20; ++trial) {
    const Game random = random_integer_game(rng);
    expect_payoff_fraction_matches(random,
                                   random_configuration(random, rng), counts);
  }
  EXPECT_GT(counts.values, 0);
  EXPECT_EQ(counts.payoff_overflows + counts.gain_overflows, 0);
}

TEST(PayoffFraction, NonIntegerGameMatchesRationalPayoff) {
  const Game g = rational_game();
  Rng rng(72);
  PayoffCheckCounts counts;
  for (int trial = 0; trial < 20; ++trial) {
    expect_payoff_fraction_matches(g, random_configuration(g, rng), counts);
  }
  EXPECT_GT(counts.values, 0);
  EXPECT_EQ(counts.payoff_overflows + counts.gain_overflows, 0);
}

TEST(PayoffFraction, MinerOnAForbiddenCoinStillHasAPayoff) {
  const Game g = restricted_game();
  // Everyone on coin 0, including miners that may not mine it.
  const Configuration s = Configuration::all_at(g.system_ptr(), CoinId(0));
  std::size_t forbidden = 0;
  for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
    const MinerId miner(p);
    if (g.can_mine(miner, CoinId(0))) continue;
    ++forbidden;
    EXPECT_EQ(g.payoff_fraction(s, miner, CoinId(0)).to_rational(),
              g.payoff(s, miner));
    EXPECT_THROW(g.payoff_if_move(s, miner, CoinId(0)),
                 std::invalid_argument);
  }
  ASSERT_GT(forbidden, 0u);
  PayoffCheckCounts counts;
  expect_payoff_fraction_matches(g, s, counts);
  expect_payoff_fraction_matches(g, allowed_start(g), counts);
  EXPECT_GT(counts.values, 0);
  expect_moves_match_double_loop(g, s);
}

TEST(PayoffFraction, PowersNearTwoToThe63FallBackOrThrowLikeRational) {
  const std::int64_t big = std::numeric_limits<std::int64_t>::max();
  const i128 two64 = static_cast<i128>(1) << 64;
  PayoffCheckCounts counts;
  // Integer powers and rewards near 2^63: every payoff fits raw, and the
  // gains' raw products overflow, so `move_gain` takes the Rational
  // subtraction (and throws where it throws).
  const Game integer(System::from_integer_powers({big, big - 24, big / 2 + 3},
                                                 3),
                     RewardFunction::from_integers({big - 6, big / 3, 5}));
  // A reward near 2^64: m_p·F(c) overflows 128 bits, so the payoff falls
  // back to the Rational formula, which throws.
  const Game wide(integer.system_ptr(),
                  RewardFunction({Rational::from_parts(two64 + 13, 1),
                                  Rational(7), Rational(big - 2)}));
  // Non-integer powers near 2^63: the Rational fallback returns the value.
  const Game fractional(System({Rational(big, 3), Rational(big - 2, 7),
                                Rational(big / 5, 2)},
                               3),
                        RewardFunction({Rational(5, 2), Rational(big, 11),
                                        Rational(3)}));
  for (const Game* g : {&integer, &wide, &fractional}) {
    for_each_configuration(g->system_ptr(), 1u << 12,
                           [&](const Configuration& s) {
                             expect_payoff_fraction_matches(*g, s, counts);
                             return true;
                           });
  }
  EXPECT_GT(counts.values, 0);
  EXPECT_GT(counts.payoff_overflows, 0);
  EXPECT_GT(counts.gain_overflows, 0);
}

// ---------------------------------------------------- configuration hook

TEST(MoveEpoch, EffectiveMovesBumpEpochAndRecordDelta) {
  const Game g = tie_game(4, 3);
  Configuration s = Configuration::all_at(g.system_ptr(), CoinId(0));
  EXPECT_EQ(s.move_epoch(), 0u);
  s.move(MinerId(2), CoinId(1));
  EXPECT_EQ(s.move_epoch(), 1u);
  EXPECT_EQ(s.last_delta().miner, MinerId(2));
  EXPECT_EQ(s.last_delta().from, CoinId(0));
  EXPECT_EQ(s.last_delta().to, CoinId(1));
  // No-op move: epoch unchanged.
  s.move(MinerId(2), CoinId(1));
  EXPECT_EQ(s.move_epoch(), 1u);
  // Copies inherit the epoch counter.
  const Configuration copy = s;
  EXPECT_EQ(copy.move_epoch(), 1u);
}

// -------------------------------------------------------- move comparator

TEST(MoveComparator, AgreesWithPayoffOrderOnRandomConfigurations) {
  Rng rng(101);
  for (int trial = 0; trial < 10; ++trial) {
    const Game g = random_integer_game(rng);
    const MoveComparator cmp(g);
    EXPECT_TRUE(cmp.fast_mode());
    const Configuration s = random_configuration(g, rng);
    for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
      const MinerId miner(p);
      for (std::uint32_t a = 0; a < g.num_coins(); ++a) {
        for (std::uint32_t b = 0; b < g.num_coins(); ++b) {
          const Rational va = g.payoff_if_move(s, miner, CoinId(a));
          const Rational vb = g.payoff_if_move(s, miner, CoinId(b));
          EXPECT_EQ(cmp.compare(s, miner, CoinId(a), CoinId(b)), va <=> vb);
        }
      }
    }
  }
}

TEST(MoveComparator, ExactModeForNonIntegerGames) {
  const Game g = rational_game();
  const MoveComparator cmp(g);
  EXPECT_FALSE(cmp.fast_mode());
  Rng rng(7);
  const Configuration s = random_configuration(g, rng);
  for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
    const MinerId miner(p);
    for (std::uint32_t a = 0; a < g.num_coins(); ++a) {
      for (std::uint32_t b = 0; b < g.num_coins(); ++b) {
        const Rational va = g.payoff_if_move(s, miner, CoinId(a));
        const Rational vb = g.payoff_if_move(s, miner, CoinId(b));
        EXPECT_EQ(cmp.compare(s, miner, CoinId(a), CoinId(b)), va <=> vb);
      }
    }
  }
}

TEST(MoveComparator, FastModeForCommonDenominatorRewards) {
  // Non-integer rewards over integer powers: the rescaled-numerator path
  // applies — this is the market epoch engine's workload, whose weights
  // are from_double quantizations.
  const Game g(System::from_integer_powers({5, 9, 2, 14}, 3),
               RewardFunction({Rational(7, 4), Rational(3, 2),
                               Rational::from_double(0.371, 1 << 20)}));
  const MoveComparator cmp(g);
  EXPECT_TRUE(cmp.fast_mode());
  Rng rng(19);
  const Configuration s = random_configuration(g, rng);
  for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
    const MinerId miner(p);
    for (std::uint32_t a = 0; a < g.num_coins(); ++a) {
      for (std::uint32_t b = 0; b < g.num_coins(); ++b) {
        const Rational va = g.payoff_if_move(s, miner, CoinId(a));
        const Rational vb = g.payoff_if_move(s, miner, CoinId(b));
        EXPECT_EQ(cmp.compare(s, miner, CoinId(a), CoinId(b)), va <=> vb);
      }
    }
  }
  // Non-integer powers kill both modes regardless of the rewards.
  const MoveComparator exact(rational_game());
  EXPECT_FALSE(exact.fast_mode());
}

TEST(MoveComparator, RefreshTracksReweightedRewards) {
  Rng rng(23);
  Game g = random_integer_game(rng);
  const Configuration s = random_configuration(g, rng);
  MoveComparator cmp(g);
  EXPECT_TRUE(cmp.fast_mode());
  // Swing through fractional weights and back to integers; after every
  // reweight+refresh the comparator must agree with the exact payoff
  // order and stay on the fast path.
  std::vector<Rational> weights(g.num_coins());
  for (int round = 0; round < 4; ++round) {
    for (std::size_t c = 0; c < weights.size(); ++c) {
      weights[c] = round % 2 == 0
                       ? Rational::from_double(
                             0.2 + 0.37 * static_cast<double>(c + round),
                             1 << 20)
                       : Rational(static_cast<std::int64_t>(3 + c + round));
    }
    g.reweight(weights);
    cmp.refresh();
    EXPECT_TRUE(cmp.fast_mode());
    for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
      const MinerId miner(p);
      for (std::uint32_t a = 0; a < g.num_coins(); ++a) {
        for (std::uint32_t b = 0; b < g.num_coins(); ++b) {
          const Rational va = g.payoff_if_move(s, miner, CoinId(a));
          const Rational vb = g.payoff_if_move(s, miner, CoinId(b));
          EXPECT_EQ(cmp.compare(s, miner, CoinId(a), CoinId(b)), va <=> vb);
        }
      }
    }
  }
}

// --------------------------------------------------- reweight primitives

TEST(RewardFunctionAssign, ReplacesInPlaceWithConstructorValidation) {
  RewardFunction f = RewardFunction::constant(3, Rational(2));
  EXPECT_THROW(f.assign({Rational(1), Rational(2)}), std::invalid_argument);
  EXPECT_THROW(f.assign({Rational(1), Rational(0), Rational(2)}),
               std::invalid_argument);
  EXPECT_THROW(f.assign({Rational(1), Rational(-3), Rational(2)}),
               std::invalid_argument);
  // Failed assigns must leave the function untouched.
  EXPECT_EQ(f(CoinId(1)), Rational(2));
  f.assign({Rational(1, 2), Rational(5), Rational(9, 4)});
  EXPECT_EQ(f(CoinId(0)), Rational(1, 2));
  EXPECT_EQ(f.min_reward(), Rational(1, 2));
  EXPECT_EQ(f.max_reward(), Rational(5));
  EXPECT_EQ(f.total_reward(), Rational(1, 2) + Rational(5) + Rational(9, 4));
  EXPECT_FALSE(f.is_symmetric());
}

TEST(GameReweight, SwapsRewardsAndKeepsSystemAndAccess) {
  Rng rng(29);
  Game g = random_integer_game(rng);
  const auto system = g.system_ptr();
  const std::vector<Rational> weights(g.num_coins(), Rational(7, 3));
  g.reweight(weights);
  EXPECT_EQ(g.system_ptr(), system);
  EXPECT_EQ(g.rewards().values(), weights);
  EXPECT_THROW(g.reweight(std::vector<Rational>(g.num_coins() + 1,
                                                Rational(1))),
               std::invalid_argument);
}

// ------------------------------------------------------- index vs scan

TEST(BestResponseIndex, FreshBuildMatchesScan) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const Game g = random_integer_game(rng);
    const Configuration s = random_configuration(g, rng);
    const BestResponseIndex index(g, s);
    expect_index_matches_scan(g, s, index);
  }
}

TEST(BestResponseIndex, IncrementalSyncMatchesScanAlongTrajectories) {
  Rng rng(13);
  for (int trial = 0; trial < 5; ++trial) {
    const Game g = random_integer_game(rng);
    Configuration s = random_configuration(g, rng);
    BestResponseIndex index(g, s);
    auto scheduler = make_scheduler(SchedulerKind::kRandomMove, 99 + trial);
    for (int step = 0; step < 200; ++step) {
      const auto move = scheduler->pick(g, s);
      if (!move) break;
      s.move(move->miner, move->to);
      index.sync(s);
      expect_index_matches_scan(g, s, index);
    }
  }
}

TEST(BestResponseIndex, InvalidationStressUnderAdversarialMassTies) {
  // Assumption 2 off: every miner identical, every reward identical — the
  // payoff landscape is wall-to-wall exact ties, so stale-best and
  // tie-break bugs in the dirty-coin invalidation cannot hide.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Game g = tie_game(12, 4);
    Rng rng(seed);
    Configuration s = random_configuration(g, rng);
    BestResponseIndex index(g, s);
    auto scheduler = make_scheduler(SchedulerKind::kRandomMove, seed * 31);
    for (int step = 0; step < 300; ++step) {
      const auto move = scheduler->pick(g, s);
      if (!move) break;
      s.move(move->miner, move->to);
      index.sync(s);
      expect_index_matches_scan(g, s, index);
    }
    EXPECT_TRUE(is_equilibrium(g, s));
  }
}

TEST(BestResponseIndex, SpectatorExactTieBreaksTowardLowerCoin) {
  // Masses 3/2/2/5 miners on coins 0..3 (equal powers and rewards). The
  // miners on coin 3 prefer the lightest other coin: coin 1, the lower id
  // of the tied coins 1 and 2. Moving a miner from coin 0 to coin 2 ties
  // coin 0 with coin 1 for those spectators, so their best response must
  // become coin 0 without a rescan.
  const Game g = tie_game(12, 4);
  std::vector<CoinId> assignment;
  for (const auto& [coin, miners] :
       {std::pair{0u, 3}, std::pair{1u, 2}, std::pair{2u, 2},
        std::pair{3u, 5}}) {
    assignment.insert(assignment.end(), miners, CoinId(coin));
  }
  Configuration s(g.system_ptr(), assignment);
  BestResponseIndex index(g, s);
  const MinerId spectator(11);
  ASSERT_EQ(index.best_of(spectator), CoinId(1));
  s.move(MinerId(0), CoinId(2));
  index.sync(s);
  EXPECT_EQ(index.best_of(spectator), CoinId(0));
  expect_index_matches_scan(g, s, index);
}

TEST(BestResponseIndex, SyncRebuildsAfterBatchedForeignMoves) {
  const Game g = tie_game(8, 3);
  Rng rng(5);
  // Everyone piled onto one coin: far from equilibrium, so at least two
  // consecutive improving moves exist.
  Configuration s = Configuration::all_at(g.system_ptr(), CoinId(0));
  BestResponseIndex index(g, s);
  // Two moves without an intervening sync: the epoch jumps by 2, so sync
  // must fall back to a full rebuild rather than replaying one delta.
  const auto moves = all_better_response_moves(g, s);
  ASSERT_GE(moves.size(), 1u);
  s.move(moves.front().miner, moves.front().to);
  const auto more = all_better_response_moves(g, s);
  ASSERT_GE(more.size(), 1u);
  s.move(more.front().miner, more.front().to);
  EXPECT_FALSE(index.in_sync(s));
  index.sync(s);
  EXPECT_TRUE(index.in_sync(s));
  expect_index_matches_scan(g, s, index);
  // Syncing to a *different* configuration object also rebuilds.
  Configuration other = random_configuration(g, rng);
  index.sync(other);
  expect_index_matches_scan(g, other, index);
}

// ------------------------------------- threshold-crossing sync vs rebuild

/// Every fact of `synced` equals that of an index freshly built on `s`.
void expect_same_as_fresh(const Game& g, const Configuration& s,
                          const BestResponseIndex& synced) {
  const BestResponseIndex fresh(g, s);
  ASSERT_EQ(synced.unstable(), fresh.unstable());
  ASSERT_EQ(synced.total_improving(), fresh.total_improving());
  for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
    const MinerId miner(p);
    ASSERT_EQ(synced.best_of(miner), fresh.best_of(miner)) << "miner " << p;
    ASSERT_EQ(synced.improving_count(miner), fresh.improving_count(miner))
        << "miner " << p;
    for (std::size_t i = 0; i < fresh.improving_count(miner); ++i) {
      ASSERT_EQ(synced.nth_improving(miner, i), fresh.nth_improving(miner, i))
          << "miner " << p;
    }
  }
}

/// Applies `moves` random moves (a random miner to a random other coin it
/// may mine, improving or not) and checks the synced index against a fresh
/// rebuild after each one, and against the scan every `audit_every`
/// moves. With `reweight_every` > 0 the rewards are replaced by market-style
/// `Rational::from_double` weights that often, through `Game::reweight`
/// and `BestResponseIndex::reweight`.
void walk_against_rebuild(Game& g, Configuration s, std::uint64_t seed,
                          int moves, int audit_every, int reweight_every = 0) {
  Rng rng(seed);
  BestResponseIndex index(g, s);
  for (int step = 1; step <= moves; ++step) {
    const MinerId p(static_cast<std::uint32_t>(rng.next_below(g.num_miners())));
    std::vector<CoinId> options = g.allowed_coins(p);
    std::erase(options, s.of(p));
    if (options.empty()) continue;
    s.move(p, options[rng.pick_index(options)]);
    index.sync(s);
    if (reweight_every > 0 && step % reweight_every == 0) {
      std::vector<Rational> weights(g.num_coins());
      for (Rational& w : weights) {
        w = Rational::from_double(rng.uniform(0.05, 3.05), 1 << 20);
      }
      g.reweight(weights);
      index.reweight();
    }
    ASSERT_NO_FATAL_FAILURE(expect_same_as_fresh(g, s, index))
        << "after move " << step;
    if (step % audit_every == 0) {
      ASSERT_NO_THROW(index.audit());
    }
  }
}

TEST(ThresholdSync, MatchesRebuildWithManyEqualPowersAndRewards) {
  // Three distinct powers among 60 miners, and two coins with the same
  // reward: their order is the same for every power, so a move flips it
  // for all members of a home coin or for none.
  std::vector<std::int64_t> powers;
  for (int i = 0; i < 60; ++i) powers.push_back(std::int64_t{4} << (i % 3));
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Game g(System::from_integer_powers(powers, 4),
           RewardFunction::from_integers({300, 700, 300, 500}));
    Rng rng(seed);
    walk_against_rebuild(g, random_configuration(g, rng), seed, 300, 25);
  }
}

TEST(ThresholdSync, MatchesRebuildUnderRandomHalfAccess) {
  for (const std::uint64_t seed : {4u, 5u}) {
    Rng rng(seed);
    GameSpec spec;
    spec.num_miners = 40;
    spec.num_coins = 5;
    spec.power_shape = PowerShape::kPareto;
    spec.power_lo = 10;
    const Game base = random_game(spec, rng);
    Game g(base.system_ptr(), base.rewards(),
           AccessPolicy::random(40, 5, 0.5, rng));
    walk_against_rebuild(g, allowed_start(g), seed, 300, 25);
  }
}

TEST(ThresholdSync, MatchesRebuildWithNonIntegerPowers) {
  Rng rng(6);
  std::vector<Rational> powers;
  for (int i = 0; i < 30; ++i) {
    const auto num = 1 + static_cast<std::int64_t>(rng.next_below(9));
    const auto den = 2 + static_cast<std::int64_t>(rng.next_below(5));
    powers.push_back(Rational(num, den));
  }
  Game g(System(std::move(powers), 3),
         RewardFunction(std::vector<Rational>{Rational(10, 3), Rational(7, 2),
                                              Rational(9, 4)}));
  // Restricted access too: the exact fallback must compare coins a
  // listed member may not mine.
  Game restricted(g.system_ptr(), g.rewards(),
                  AccessPolicy::random(30, 3, 0.5, rng));
  walk_against_rebuild(g, random_configuration(g, rng), 6, 300, 25);
  walk_against_rebuild(restricted, allowed_start(restricted), 7, 300, 25);
}

TEST(ThresholdSync, MatchesRebuildThroughMarketReweights) {
  Rng rng(8);
  GameSpec spec;
  spec.num_miners = 48;
  spec.num_coins = 3;
  spec.power_shape = PowerShape::kPareto;
  spec.power_lo = 10;
  Game g = random_game(spec, rng);
  walk_against_rebuild(g, random_configuration(g, rng), 8, 300, 25, 20);
}

TEST(ThresholdSync, MatchesRebuildOnAnE3ShapedGame) {
  // The e3-sweep shape at its largest size: Pareto powers, 300 miners, 3
  // coins, rewards in [100, 100000].
  Rng rng(9);
  GameSpec spec;
  spec.num_miners = 300;
  spec.num_coins = 3;
  spec.power_shape = PowerShape::kPareto;
  spec.power_lo = 10;
  spec.reward_lo = 100;
  spec.reward_hi = 100000;
  Game g = random_game(spec, rng);
  walk_against_rebuild(g, random_configuration(g, rng), 9, 200, 50);
}

// -------------------------------------- audit: one scan per (class, home)

std::uint64_t audit_scans() {
  return obs::Registry::instance().counter("index.audit_scans").total();
}

/// The occupied (symmetry class, home coin) cells of s, counted from
/// `symmetry_classes` rather than from the index.
std::size_t occupied_cells(const Game& g, const Configuration& s) {
  const SymmetryClasses classes = symmetry_classes(g);
  std::set<std::pair<std::uint32_t, std::uint32_t>> cells;
  for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
    cells.emplace(classes.class_of[p], s.of(MinerId(p)).value);
  }
  return cells.size();
}

/// Random moves; after each, one audit must scan exactly once per
/// occupied cell.
void expect_one_scan_per_cell(const Game& g, Configuration s,
                              std::uint64_t seed, int moves) {
  Rng rng(seed);
  BestResponseIndex index(g, s);
  for (int step = 0; step < moves; ++step) {
    const MinerId p(static_cast<std::uint32_t>(rng.next_below(g.num_miners())));
    std::vector<CoinId> options = g.allowed_coins(p);
    std::erase(options, s.of(p));
    if (!options.empty()) s.move(p, options[rng.pick_index(options)]);
    index.sync(s);
    const std::uint64_t before = audit_scans();
    ASSERT_NO_THROW(index.audit());
    ASSERT_EQ(audit_scans() - before, occupied_cells(g, s)) << "step " << step;
  }
}

TEST(IndexAudit, ScansOncePerOccupiedClassAndHome) {
  // Classes by power: {0, 1, 2} (5), {3, 4} (3) and {5} (7).
  const Game g(System::from_integer_powers({5, 5, 5, 3, 3, 7}, 3),
               RewardFunction::from_integers({100, 70, 40}));
  const Configuration s(g.system_ptr(), {CoinId(0), CoinId(0), CoinId(1),
                                         CoinId(2), CoinId(2), CoinId(0)});
  const BestResponseIndex index(g, s);
  EXPECT_EQ(index.num_classes(), 3u);
  const std::uint64_t before = audit_scans();
  index.audit();
  // Cells (5, coin 0), (5, coin 1), (3, coin 2) and (7, coin 0).
  EXPECT_EQ(audit_scans() - before, 4u);

  // 60 miners in three powers: the count follows the cells as miners move.
  std::vector<std::int64_t> powers;
  for (int i = 0; i < 60; ++i) powers.push_back(std::int64_t{4} << (i % 3));
  const Game many(System::from_integer_powers(powers, 4),
                  RewardFunction::from_integers({300, 700, 300, 500}));
  Rng rng(3);
  expect_one_scan_per_cell(many, random_configuration(many, rng), 3, 200);
}

TEST(IndexAudit, EqualPowersWithDifferentAccessRowsNeverShareAScan) {
  // Four equal powers on one coin; only miners 1 and 3 share an access row.
  const AccessPolicy access({{true, true, true},
                             {true, true, false},
                             {true, false, true},
                             {true, true, false}});
  const Game g(System::from_integer_powers({4, 4, 4, 4}, 3),
               RewardFunction::from_integers({9, 5, 3}), access);
  const Configuration s = Configuration::all_at(g.system_ptr(), CoinId(0));
  const BestResponseIndex index(g, s);
  EXPECT_EQ(index.num_classes(), 3u);
  EXPECT_NE(index.class_of(MinerId(0)), index.class_of(MinerId(1)));
  EXPECT_NE(index.class_of(MinerId(1)), index.class_of(MinerId(2)));
  EXPECT_EQ(index.class_of(MinerId(1)), index.class_of(MinerId(3)));
  const std::uint64_t before = audit_scans();
  index.audit();
  EXPECT_EQ(audit_scans() - before, 3u);

  // Random half access over few powers: rows split the power classes.
  std::vector<std::int64_t> powers;
  for (int i = 0; i < 40; ++i) powers.push_back(std::int64_t{3} << (i % 2));
  Rng rng(4);
  const Game restricted(System::from_integer_powers(powers, 4),
                        RewardFunction::from_integers({300, 700, 300, 500}),
                        AccessPolicy::random(40, 4, 0.5, rng));
  expect_one_scan_per_cell(restricted, allowed_start(restricted), 4, 200);
}

TEST(IndexAudit, ChecksEveryClassmateNotOnlyTheFirst) {
  // One class (equal powers, unrestricted access), one member per coin.
  // Rewards the index is not told about leave miner 0 stable (1/2 < 3)
  // but make miner 1 unstable (3/2 > 1): only miner 1's facts go stale.
  Game g(System::from_integer_powers({1, 1}, 2),
         RewardFunction::from_integers({1, 1}));
  const Configuration s(g.system_ptr(), {CoinId(0), CoinId(1)});
  const BestResponseIndex index(g, s);
  ASSERT_EQ(index.num_classes(), 1u);
  ASSERT_NO_THROW(index.audit());
  g.reweight(std::vector<Rational>{Rational(3), Rational(1)});
  ASSERT_TRUE(is_stable(g, s, MinerId(0)));
  ASSERT_FALSE(is_stable(g, s, MinerId(1)));
  EXPECT_THROW(index.audit(), InvariantError);
}

// ------------------------------------- scheduler path equivalence (all 8)

class IndexedSchedulerEquivalence
    : public ::testing::TestWithParam<
          std::tuple<SchedulerKind, std::uint64_t>> {};

TEST_P(IndexedSchedulerEquivalence, TrajectoriesMatchMoveForMove) {
  const auto [kind, seed] = GetParam();
  Rng rng(seed);
  const Game g = random_integer_game(rng);
  const Configuration start = random_configuration(g, rng);

  LearningOptions scan_opts;
  scan_opts.use_index = false;
  scan_opts.record_moves = true;
  LearningOptions index_opts;
  index_opts.use_index = true;
  index_opts.record_moves = true;

  auto scan_sched = make_scheduler(kind, seed ^ 0xF00D);
  auto index_sched = make_scheduler(kind, seed ^ 0xF00D);
  const LearningResult scan = run_learning(g, start, *scan_sched, scan_opts);
  const LearningResult indexed =
      run_learning(g, start, *index_sched, index_opts);

  EXPECT_TRUE(scan.converged);
  EXPECT_TRUE(indexed.converged);
  ASSERT_EQ(scan.steps, indexed.steps) << scheduler_kind_name(kind);
  EXPECT_EQ(scan.move_hash, indexed.move_hash);
  EXPECT_TRUE(scan.final_configuration == indexed.final_configuration);
  ASSERT_EQ(scan.trace.size(), indexed.trace.size());
  for (std::size_t i = 0; i < scan.trace.size(); ++i) {
    const Move& a = scan.trace.moves()[i];
    const Move& b = indexed.trace.moves()[i];
    EXPECT_EQ(a.miner, b.miner) << "step " << i;
    EXPECT_EQ(a.from, b.from) << "step " << i;
    EXPECT_EQ(a.to, b.to) << "step " << i;
    EXPECT_EQ(a.gain, b.gain) << "step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IndexedSchedulerEquivalence,
    ::testing::Combine(::testing::ValuesIn(all_scheduler_kinds()),
                       ::testing::Values(21u, 22u, 23u, 24u)));

/// Scan and index paths of `kind` from `start`: same trajectory, move for
/// move and gain for gain (the IndexedSchedulerEquivalence contract).
void expect_paths_match(const Game& g, const Configuration& start,
                        SchedulerKind kind) {
  LearningOptions scan_opts;
  scan_opts.use_index = false;
  scan_opts.record_moves = true;
  LearningOptions index_opts = scan_opts;
  index_opts.use_index = true;
  index_opts.audit_potential = true;
  auto scan_sched = make_scheduler(kind, 17);
  auto index_sched = make_scheduler(kind, 17);
  const LearningResult scan = run_learning(g, start, *scan_sched, scan_opts);
  const LearningResult indexed =
      run_learning(g, start, *index_sched, index_opts);
  EXPECT_TRUE(scan.converged);
  ASSERT_EQ(scan.trace.size(), indexed.trace.size());
  for (std::size_t i = 0; i < scan.trace.size(); ++i) {
    const Move& a = scan.trace.moves()[i];
    const Move& b = indexed.trace.moves()[i];
    EXPECT_EQ(a.miner, b.miner) << "step " << i;
    EXPECT_EQ(a.to, b.to) << "step " << i;
    EXPECT_EQ(a.gain, b.gain) << "step " << i;
  }
  EXPECT_EQ(scan.move_hash, indexed.move_hash);
  EXPECT_TRUE(scan.final_configuration == indexed.final_configuration);
}

/// Miner p's min-gain candidate gain, unreduced, as the indexed min-gain
/// scheduler compares it.
Fraction min_gain_fraction(const Game& g, const Configuration& s,
                           const BestResponseIndex& index, MinerId p) {
  return g.payoff_fraction(s, p, index.min_improving(p)) -
         g.payoff_fraction(s, p, s.of(p));
}

TEST(IndexedMinGain, ExactTieInDifferentUnreducedFormsGoesToLowerMiner) {
  // Coin 0 holds miners 0 (power 1) and 2 (power 2), coin 1 miner 1
  // (power 4); F = (2, 5). Miner 0 gains 1 − 2/3 = 5/15, miner 2 gains
  // 10/6 − 4/3 = 6/18: the same 1/3, in different unreduced forms.
  const Game g(System::from_integer_powers({1, 4, 2}, 2),
               RewardFunction::from_integers({2, 5}));
  const Configuration s(g.system_ptr(), {CoinId(0), CoinId(1), CoinId(0)});
  const BestResponseIndex index(g, s);
  ASSERT_EQ(index.unstable(), (std::vector<MinerId>{MinerId(0), MinerId(2)}));
  const Fraction g0 = min_gain_fraction(g, s, index, MinerId(0));
  const Fraction g2 = min_gain_fraction(g, s, index, MinerId(2));
  EXPECT_EQ(g0.num, 5);
  EXPECT_EQ(g0.den, 15);
  EXPECT_EQ(g2.num, 6);
  EXPECT_EQ(g2.den, 18);
  EXPECT_TRUE(g0 == g2);

  auto indexed = make_scheduler(SchedulerKind::kMinGain);
  auto scan = make_scheduler(SchedulerKind::kMinGain);
  const auto a = indexed->pick_indexed(g, s, index);
  const auto b = scan->pick(g, s);
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(a->miner, MinerId(0));
  EXPECT_EQ(a->to, CoinId(1));
  EXPECT_EQ(a->gain, Rational(1, 3));
  EXPECT_EQ(a->miner, b->miner);
  EXPECT_EQ(a->to, b->to);
  EXPECT_EQ(a->gain, b->gain);
  expect_paths_match(g, s, SchedulerKind::kMinGain);
}

TEST(IndexedMinGain, GainCrossProductsOverflowing128Bits) {
  // Powers and rewards near 2^31: each payoff is ~2^62 over ~2^33, each
  // unreduced gain ~2^95 over ~2^66, so comparing two gains multiplies
  // past 2^128 and `compare_fractions` takes its reduction fallback.
  const std::int64_t two31 = std::int64_t{1} << 31;
  const Game g(System::from_integer_powers({two31 + 11, two31 + 3,
                                            2 * two31 - 5, 3 * two31 / 2 + 1},
                                           3),
               RewardFunction::from_integers(
                   {two31 - 1, two31 + 7, 3 * two31 / 2 + 5}));
  Rng rng(88);
  std::size_t overflowing = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const Configuration start = random_configuration(g, rng);
    const BestResponseIndex index(g, start);
    const std::vector<MinerId>& unstable = index.unstable();
    for (std::size_t i = 0; i < unstable.size(); ++i) {
      for (std::size_t j = i + 1; j < unstable.size(); ++j) {
        const Fraction a = min_gain_fraction(g, start, index, unstable[i]);
        const Fraction b = min_gain_fraction(g, start, index, unstable[j]);
        u128 product;
        if (__builtin_mul_overflow(static_cast<u128>(a.num),
                                   static_cast<u128>(b.den), &product) ||
            __builtin_mul_overflow(static_cast<u128>(b.num),
                                   static_cast<u128>(a.den), &product)) {
          ++overflowing;
          EXPECT_EQ(a <=> b, a.to_rational() <=> b.to_rational());
        }
      }
    }
    expect_paths_match(g, start, SchedulerKind::kMinGain);
  }
  EXPECT_GT(overflowing, 0u);
}

TEST(BestResponseIndex, ReweightMatchesFreshRebuildForEveryKind) {
  // The zero-rebuild market contract: after Game::reweight +
  // BestResponseIndex::reweight, the pair must be indistinguishable from a
  // freshly constructed Game/Index — same cached facts, and bit-identical
  // move sequences under every scheduler kind (same RNG draws included).
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    Rng rng(404);
    Game g = random_integer_game(rng);
    Configuration s = random_configuration(g, rng);
    BestResponseIndex index(g, s);
    // Warm the index with incremental history so reweight starts from a
    // synced-but-nontrivial internal state, then swap in market-style
    // fractional weights.
    auto warm = make_scheduler(SchedulerKind::kRandomMiner, 9);
    for (int step = 0; step < 25; ++step) {
      const auto move = warm->pick_indexed(g, s, index);
      if (!move) break;
      s.move(move->miner, move->to);
      index.sync(s);
    }
    std::vector<Rational> weights(g.num_coins());
    for (std::size_t c = 0; c < weights.size(); ++c) {
      weights[c] = Rational::from_double(
          0.4 + 0.83 * static_cast<double>(c), 1 << 20);
    }
    g.reweight(weights);
    index.reweight();
    expect_index_matches_scan(g, s, index);

    Game fresh(g.system_ptr(), RewardFunction(weights), g.access());
    Configuration fresh_s = s;
    BestResponseIndex fresh_index(fresh, fresh_s);
    auto sched = make_scheduler(kind, 555);
    auto fresh_sched = make_scheduler(kind, 555);
    for (int step = 0; step < 200; ++step) {
      const auto a = sched->pick_indexed(g, s, index);
      const auto b = fresh_sched->pick_indexed(fresh, fresh_s, fresh_index);
      ASSERT_EQ(a.has_value(), b.has_value()) << scheduler_kind_name(kind);
      if (!a) break;
      EXPECT_EQ(a->miner, b->miner) << scheduler_kind_name(kind);
      EXPECT_EQ(a->to, b->to) << scheduler_kind_name(kind);
      EXPECT_EQ(a->gain, b->gain) << scheduler_kind_name(kind);
      s.move(a->miner, a->to);
      index.sync(s);
      fresh_s.move(b->miner, b->to);
      fresh_index.sync(fresh_s);
    }
    EXPECT_TRUE(s == fresh_s) << scheduler_kind_name(kind);
  }
}

TEST(IndexedScheduler, TieGameTrajectoriesMatchForEveryKind) {
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    const Game g = tie_game(10, 3);
    Rng rng(77);
    const Configuration start = random_configuration(g, rng);
    LearningOptions scan_opts;
    scan_opts.use_index = false;
    LearningOptions index_opts;
    index_opts.use_index = true;
    auto a = make_scheduler(kind, 5);
    auto b = make_scheduler(kind, 5);
    const auto scan = run_learning(g, start, *a, scan_opts);
    const auto indexed = run_learning(g, start, *b, index_opts);
    EXPECT_EQ(scan.steps, indexed.steps) << scheduler_kind_name(kind);
    EXPECT_EQ(scan.move_hash, indexed.move_hash) << scheduler_kind_name(kind);
    EXPECT_TRUE(scan.final_configuration == indexed.final_configuration);
  }
}

TEST(IndexedScheduler, RestrictedAccessTrajectoriesMatch) {
  for (const SchedulerKind kind :
       {SchedulerKind::kRandomMove, SchedulerKind::kMaxGain,
        SchedulerKind::kMinGain, SchedulerKind::kLexicographic}) {
    const Game g = restricted_game();
    const Configuration start = allowed_start(g);
    expect_index_matches_scan(g, start, BestResponseIndex(g, start));
    LearningOptions scan_opts;
    scan_opts.use_index = false;
    LearningOptions index_opts;
    index_opts.use_index = true;
    index_opts.audit_potential = true;  // audits the index every step
    auto a = make_scheduler(kind, 9);
    auto b = make_scheduler(kind, 9);
    const auto scan = run_learning(g, start, *a, scan_opts);
    const auto indexed = run_learning(g, start, *b, index_opts);
    EXPECT_EQ(scan.steps, indexed.steps) << scheduler_kind_name(kind);
    EXPECT_EQ(scan.move_hash, indexed.move_hash) << scheduler_kind_name(kind);
  }
}

TEST(IndexedScheduler, NonIntegerGameTrajectoriesMatch) {
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    const Game g = rational_game();
    Rng rng(41);
    const Configuration start = random_configuration(g, rng);
    expect_index_matches_scan(g, start, BestResponseIndex(g, start));
    LearningOptions scan_opts;
    scan_opts.use_index = false;
    LearningOptions index_opts;
    index_opts.use_index = true;
    index_opts.audit_potential = true;
    auto a = make_scheduler(kind, 3);
    auto b = make_scheduler(kind, 3);
    const auto scan = run_learning(g, start, *a, scan_opts);
    const auto indexed = run_learning(g, start, *b, index_opts);
    EXPECT_EQ(scan.steps, indexed.steps) << scheduler_kind_name(kind);
    EXPECT_EQ(scan.move_hash, indexed.move_hash) << scheduler_kind_name(kind);
    EXPECT_TRUE(scan.final_configuration == indexed.final_configuration);
  }
}

// --------------------------------------------------------- epsilon driver

TEST(IndexedEpsilon, ScanAndIndexPathsAgree) {
  Rng rng(53);
  std::vector<std::pair<Game, Configuration>> cases;
  for (int trial = 0; trial < 4; ++trial) {
    Game g = random_integer_game(rng);
    Configuration start = random_configuration(g, rng);
    cases.emplace_back(std::move(g), std::move(start));
  }
  for (Game g : {rational_game(), tie_game(10, 3)}) {
    Configuration start = random_configuration(g, rng);
    cases.emplace_back(std::move(g), std::move(start));
  }
  Game restricted = restricted_game();
  Configuration restricted_start = allowed_start(restricted);
  cases.emplace_back(std::move(restricted), std::move(restricted_start));
  for (const auto& [g, start] : cases) {
    for (const Rational& eps :
         {Rational(0), Rational(1, 100), Rational(1, 4)}) {
      LearningOptions scan_opts;
      scan_opts.use_index = false;
      LearningOptions index_opts;
      index_opts.use_index = true;
      const auto scan = run_learning_to_epsilon(g, start, eps, scan_opts);
      const auto indexed = run_learning_to_epsilon(g, start, eps, index_opts);
      EXPECT_EQ(scan.steps, indexed.steps);
      EXPECT_EQ(scan.move_hash, indexed.move_hash);
      EXPECT_TRUE(scan.final_configuration == indexed.final_configuration);
      EXPECT_TRUE(scan.converged && indexed.converged);
    }
  }
}

// ------------------------------------------------- scan-path helper parity

TEST(MoveScanHelpers, CountAndNthMatchMaterializedVector) {
  Rng rng(61);
  for (int trial = 0; trial < 8; ++trial) {
    const Game g = random_integer_game(rng);
    const Configuration s = random_configuration(g, rng);
    const auto moves = all_better_response_moves(g, s);
    EXPECT_EQ(count_all_better_response_moves(g, s), moves.size());
    for (std::size_t i = 0; i < moves.size(); ++i) {
      const auto nth = nth_better_response_move(g, s, i);
      ASSERT_TRUE(nth.has_value());
      EXPECT_EQ(nth->miner, moves[i].miner);
      EXPECT_EQ(nth->to, moves[i].to);
      EXPECT_EQ(nth->gain, moves[i].gain);
    }
    EXPECT_FALSE(nth_better_response_move(g, s, moves.size()).has_value());
    for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
      EXPECT_EQ(count_better_responses(g, s, MinerId(p)),
                better_responses(g, s, MinerId(p)).size());
    }
  }
}

}  // namespace
}  // namespace goc
