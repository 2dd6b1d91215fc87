#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/enumerate.hpp"
#include "core/generators.hpp"
#include "core/move_compare.hpp"
#include "core/moves.hpp"
#include "equilibrium/assumptions.hpp"
#include "equilibrium/enumerate.hpp"
#include "potential/exact_potential.hpp"

namespace goc {
namespace {

EnumerationOptions opts_with(std::size_t threads, bool symmetry) {
  EnumerationOptions opts;
  opts.threads = threads;
  opts.symmetry = symmetry;
  if (threads > 1) {
    // Force the sharded parallel path even for the tiny test spaces the
    // scheduling heuristics would otherwise run serially — these tests
    // exist to prove shard concatenation is order-exact.
    opts.serial_cutoff = 0;
    opts.min_shard_configs = 1;
  }
  return opts;
}

/// Options bound to a real worker pool: an explicit pool bypasses the
/// hardware-lane cap, so the multi-lane machinery runs even on 1-core CI
/// boxes. Keep the instance alive for as long as the options are used.
struct ParallelOpts {
  engine::ThreadPool pool;
  EnumerationOptions opts;

  ParallelOpts(std::size_t lanes, bool symmetry)
      : pool(engine::ThreadPool::workers_for(lanes)),
        opts(opts_with(lanes, symmetry)) {
    opts.pool = &pool;
  }
};

/// A spread of game shapes covering the orbit structure the engine
/// exploits: all-distinct powers (trivial classes), all-equal (one big
/// class), duplicated powers (mixed classes), skewed rewards, and
/// restricted access (classes must split on access rows).
std::vector<Game> golden_games() {
  std::vector<Game> games;
  games.push_back(Game(System::from_integer_powers({7, 4, 2, 1}, 3),
                       RewardFunction::from_integers({9, 5, 3})));
  games.push_back(Game(System::from_integer_powers({3, 3, 3, 3, 3}, 2),
                       RewardFunction::from_integers({10, 7})));
  games.push_back(Game(System::from_integer_powers({5, 2, 2, 2, 1}, 3),
                       RewardFunction::from_integers({100, 40, 1})));
  games.push_back(Game(System::from_integer_powers({6, 6, 1, 1}, 2),
                       RewardFunction::from_integers({1000, 3})));
  {
    // Equal powers but split access rows: {p0, p1} may mine everything,
    // {p2, p3} only coin 0 — interchangeability must respect access.
    AccessPolicy access({{true, true}, {true, true}, {true, false}, {true, false}});
    games.push_back(Game(System::from_integer_powers({2, 2, 2, 2}, 2),
                         RewardFunction::from_integers({8, 5}), access));
  }
  {
    // Non-integer powers exercise the comparator's Rational fallback.
    games.push_back(Game(System({Rational(1, 2), Rational(1, 2), Rational(3, 4)}, 2),
                         RewardFunction::from_integers({4, 3})));
  }
  Rng rng(417);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    GameSpec spec;
    spec.num_miners = 5;
    spec.num_coins = 3;
    spec.power_lo = 1;
    spec.power_hi = 4;  // small range forces duplicate powers
    spec.reward_lo = 10;
    spec.reward_hi = 60;
    games.push_back(random_game(spec, rng));
  }
  return games;
}

/// Independent oracle for the canonical walk: the full odometer
/// (`for_each_configuration`) filtered to canonical assignments — digits
/// non-decreasing in miner-id order within each symmetry class. It shares
/// no code with `canonical_step`, so the walk tests below compare the
/// engine against the definition rather than against another walker.
template <typename Visit>
void for_each_canonical_oracle(const std::shared_ptr<const System>& system,
                               const SymmetryClasses& classes, Visit&& visit) {
  for_each_configuration(system, UINT64_MAX, [&](const Configuration& s) {
    for (const auto& members : classes.classes) {
      for (std::size_t k = 1; k < members.size(); ++k) {
        if (s.of(members[k - 1]).value > s.of(members[k]).value) return true;
      }
    }
    visit(s);
    return true;
  });
}

std::vector<std::vector<CoinId>> canonical_oracle(
    const std::shared_ptr<const System>& system, const SymmetryClasses& classes) {
  std::vector<std::vector<CoinId>> out;
  for_each_canonical_oracle(system, classes, [&](const Configuration& s) {
    out.push_back(s.assignment());
  });
  return out;
}

/// The engine walk over one rank range, starting a fresh walk state at
/// `start`.
std::vector<std::vector<CoinId>> walk_range(const Game& g,
                                            const SymmetryClasses& classes,
                                            const std::vector<std::uint32_t>& start,
                                            std::uint64_t count) {
  std::vector<std::vector<CoinId>> out;
  WalkState state(g);
  state.reset(start);
  walk_canonical_range(state, classes, count, [&](const WalkState& st) {
    out.push_back(materialize_configuration(g.system_ptr(), st.digits()).assignment());
    return true;
  });
  return out;
}

/// The engine walk over the whole canonical space.
std::vector<std::vector<CoinId>> walk_all(const Game& g,
                                          const SymmetryClasses& classes) {
  return walk_range(g, classes, std::vector<std::uint32_t>(g.num_miners(), 0),
                    canonical_count(g.system(), classes).value());
}

// ------------------------------------------------------------ classes

TEST(SymmetryClasses, DistinctPowersAreTrivial) {
  Game g(System::from_integer_powers({5, 3, 1}, 2),
         RewardFunction::from_integers({2, 2}));
  const SymmetryClasses classes = symmetry_classes(g);
  EXPECT_TRUE(classes.trivial);
  EXPECT_EQ(classes.classes.size(), 3u);
  for (const std::int32_t next : classes.next_classmate) EXPECT_EQ(next, -1);
}

TEST(SymmetryClasses, EqualPowersGroupAcrossGaps) {
  Game g(System::from_integer_powers({3, 1, 3, 3}, 2),
         RewardFunction::from_integers({2, 2}));
  const SymmetryClasses classes = symmetry_classes(g);
  EXPECT_FALSE(classes.trivial);
  ASSERT_EQ(classes.classes.size(), 2u);
  EXPECT_EQ(classes.class_of[0], classes.class_of[2]);
  EXPECT_EQ(classes.class_of[0], classes.class_of[3]);
  EXPECT_NE(classes.class_of[0], classes.class_of[1]);
  // Chain 0 -> 2 -> 3 within the equal-power class.
  EXPECT_EQ(classes.next_classmate[0], 2);
  EXPECT_EQ(classes.next_classmate[2], 3);
  EXPECT_EQ(classes.next_classmate[3], -1);
  EXPECT_EQ(classes.next_classmate[1], -1);
}

TEST(SymmetryClasses, AccessRowsSplitEqualPowers) {
  AccessPolicy access({{true, true}, {true, false}});
  Game g(System::from_integer_powers({4, 4}, 2),
         RewardFunction::from_integers({2, 2}), access);
  const SymmetryClasses classes = symmetry_classes(g);
  EXPECT_TRUE(classes.trivial);
  EXPECT_EQ(classes.classes.size(), 2u);
}

TEST(SymmetryClasses, PowerOrderRunsReproduceFirstAppearanceIds) {
  // The classes as first defined: scan miners in id order, join the first
  // class whose first member has the same power and access row, else open
  // a new class. The canonical walk depends on these ids and member
  // orders, so the power-order construction must reproduce them exactly.
  Rng rng(41);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 2 + rng.next_below(30);
    const std::size_t coins = 2 + rng.next_below(4);
    std::vector<std::int64_t> powers;
    for (std::size_t p = 0; p < n; ++p) {
      powers.push_back(1 + static_cast<std::int64_t>(rng.next_below(4)));
    }
    const Game g(System::from_integer_powers(powers, coins),
                 RewardFunction::from_integers(
                     std::vector<std::int64_t>(coins, 10)),
                 trial % 2 == 0 ? AccessPolicy()
                                : AccessPolicy::random(n, coins, 0.6, rng));
    std::vector<std::vector<MinerId>> expected;
    std::vector<std::uint32_t> expected_of(n);
    for (std::uint32_t p = 0; p < n; ++p) {
      std::size_t k = 0;
      for (; k < expected.size(); ++k) {
        const MinerId head = expected[k].front();
        bool same = g.system().power(head) == g.system().power(MinerId(p));
        for (std::uint32_t c = 0; c < coins && same; ++c) {
          same = g.can_mine(head, CoinId(c)) ==
                 g.can_mine(MinerId(p), CoinId(c));
        }
        if (same) break;
      }
      if (k == expected.size()) expected.emplace_back();
      expected[k].push_back(MinerId(p));
      expected_of[p] = static_cast<std::uint32_t>(k);
    }
    const SymmetryClasses classes = symmetry_classes(g);
    EXPECT_EQ(symmetry_class_ids(g), expected_of) << "trial " << trial;
    EXPECT_EQ(classes.class_of, expected_of) << "trial " << trial;
    EXPECT_EQ(classes.classes, expected) << "trial " << trial;
    EXPECT_EQ(classes.trivial, expected.size() == n) << "trial " << trial;
  }
}

TEST(SymmetryClasses, CanonicalCountMatchesWalk) {
  // 3 equal miners + 1 distinct over 2 coins: C(3+1,3)·C(1+1,1) = 4·2 = 8.
  Game g(System::from_integer_powers({3, 3, 3, 7}, 2),
         RewardFunction::from_integers({2, 5}));
  const SymmetryClasses classes = symmetry_classes(g);
  const auto count = canonical_count(g.system(), classes);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, 8u);
  EXPECT_EQ(canonical_oracle(g.system_ptr(), classes).size(), 8u);
}

// ------------------------------------------------------------ the walk

TEST(CanonicalWalk, MatchesLegacyOrderWithoutSymmetry) {
  const Game g(System::from_integer_powers({2, 2, 1}, 3),
               RewardFunction::from_integers({1, 1, 1}));
  std::vector<std::vector<CoinId>> legacy;
  for_each_configuration(g.system_ptr(), 100, [&](const Configuration& s) {
    legacy.push_back(s.assignment());
    return true;
  });
  EXPECT_EQ(walk_all(g, singleton_classes(3)), legacy);
}

TEST(CanonicalWalk, VisitsExactlyTheCanonicalRepresentatives) {
  Game g(System::from_integer_powers({2, 2, 2, 9}, 3),
         RewardFunction::from_integers({4, 5, 6}));
  const SymmetryClasses classes = symmetry_classes(g);
  std::vector<std::vector<CoinId>> seen = walk_all(g, classes);
  EXPECT_EQ(seen, canonical_oracle(g.system_ptr(), classes));
  const auto count = canonical_count(g.system(), classes);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(seen.size(), *count);
  // Distinct, and non-decreasing digits within the equal-power class.
  for (const auto& assignment : seen) {
    EXPECT_LE(assignment[0].value, assignment[1].value);
    EXPECT_LE(assignment[1].value, assignment[2].value);
  }
  std::sort(seen.begin(), seen.end(),
            [](const auto& a, const auto& b) {
              return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                                  b.end());
            });
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

/// Replays `plan` through the rank-range walker and checks the shards
/// partition the canonical space exactly: start ranks are the running
/// prefix sum, each shard visits exactly `sizes[i]` configurations, and
/// the index-order concatenation reproduces the oracle bit-for-bit.
void expect_plan_partitions(const Game& g, const SymmetryClasses& classes,
                            const ShardPlan& plan) {
  std::vector<std::vector<CoinId>> sharded;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < plan.sizes.size(); ++i) {
    EXPECT_EQ(plan.start_ranks[i], total) << "shard " << i;
    const auto shard = walk_range(g, classes, plan.starts[i], plan.sizes[i]);
    EXPECT_EQ(shard.size(), plan.sizes[i]) << "shard " << i;
    sharded.insert(sharded.end(), shard.begin(), shard.end());
    total += shard.size();
  }
  EXPECT_EQ(sharded, canonical_oracle(g.system_ptr(), classes));
}

TEST(ShardPlan, ShardsPartitionTheCanonicalSpace) {
  Game g(System::from_integer_powers({2, 2, 2, 9, 5}, 3),
         RewardFunction::from_integers({4, 5, 6}));
  const SymmetryClasses classes = symmetry_classes(g);
  const ShardPlan plan = plan_shards(g.system(), classes, 8);
  ASSERT_GE(plan.sizes.size(), 8u);
  expect_plan_partitions(g, classes, plan);
}

TEST(ShardPlan, SplitsOversizedPrefixesOnUnbalancedLayouts) {
  // One giant symmetry class: 12 equal miners over 3 coins (canonical
  // space C(14,12) = 91). A pinned top digit caps the whole class's
  // non-decreasing run, so the all-2s prefix alone holds 55/91 ≈ 60% of
  // the space — exactly the layout that used to serialize one lane. Rank
  // splitting must bound every shard near the ideal even load.
  Game g(System::from_integer_powers({5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, 3),
         RewardFunction::from_integers({4, 5, 6}));
  const SymmetryClasses classes = symmetry_classes(g);
  ASSERT_EQ(classes.classes.size(), 1u);
  const auto canonical = canonical_count(g.system(), classes);
  ASSERT_TRUE(canonical.has_value());
  ASSERT_EQ(*canonical, 91u);  // C(12+2,12)

  const std::size_t target = 8;
  const ShardPlan plan = plan_shards(g.system(), classes, target);
  ASSERT_GE(plan.sizes.size(), target);
  const std::uint64_t ideal = (*canonical + target - 1) / target;
  for (std::size_t i = 0; i < plan.sizes.size(); ++i) {
    EXPECT_LE(plan.sizes[i], ideal) << "shard " << i;
  }
  expect_plan_partitions(g, classes, plan);
}

TEST(ShardPlan, CanonicalUnrankingMatchesWalkOrder) {
  Game g(System::from_integer_powers({2, 2, 7, 7, 3}, 3),
         RewardFunction::from_integers({4, 5, 6}));
  const SymmetryClasses classes = symmetry_classes(g);
  std::uint64_t rank = 0;
  for_each_canonical_oracle(g.system_ptr(), classes, [&](const Configuration& s) {
    const auto digits = canonical_digits_at_rank(g.system(), classes, rank);
    for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
      EXPECT_EQ(digits[p], s.of(MinerId(p)).value)
          << "rank " << rank << " miner " << p;
    }
    ++rank;
  });
}

TEST(Orbits, SizesPartitionTheFullSpace) {
  Game g(System::from_integer_powers({2, 2, 2, 9}, 3),
         RewardFunction::from_integers({4, 5, 6}));
  const SymmetryClasses classes = symmetry_classes(g);
  std::uint64_t covered = 0;
  for_each_canonical_oracle(g.system_ptr(), classes, [&](const Configuration& s) {
    const auto orbit = expand_orbit(s, classes);
    EXPECT_EQ(orbit.size(), orbit_size(s.assignment(), classes));
    // Orbit members are distinct and share the canonical
    // representative's per-class digit multiset.
    for (const auto& member : orbit) {
      for (std::uint32_t p = 0; p < 4; ++p) {
        EXPECT_EQ(member.of(MinerId(p)) == s.of(MinerId(p)) ||
                      classes.classes[classes.class_of[p]].size() > 1,
                  true);
      }
    }
    covered += orbit.size();
  });
  EXPECT_EQ(covered, configuration_count(g.system()).value());
}

/// The restricted-access shapes: the split-access golden game and a
/// per-miner matrix where every miner is barred from some coin.
std::vector<Game> restricted_games() {
  std::vector<Game> games;
  games.push_back(golden_games()[4]);
  AccessPolicy access({{true, false, true},
                       {true, true, false},
                       {false, true, true},
                       {true, true, true}});
  games.push_back(Game(System::from_integer_powers({4, 3, 2, 1}, 3),
                       RewardFunction::from_integers({5, 6, 7}), access));
  return games;
}

TEST(WalkStates, MatchFreshConfigurationAtEveryStep) {
  // The one walk state against a fresh `materialize_configuration` after
  // every hop of a sharded walk: masses are the fresh masses times the
  // power scale L_p, populations match, and the access count is the
  // number of miners on a forbidden coin (zero iff `respects_access`).
  std::vector<std::pair<Game, std::int64_t>> cases;  // game, L_p
  for (Game& g : restricted_games()) cases.emplace_back(std::move(g), 1);
  cases.emplace_back(golden_games()[5], 4);  // powers 1/2, 1/2, 3/4
  for (const auto& [g, scale] : cases) {
    for (const SymmetryClasses& classes :
         {symmetry_classes(g), singleton_classes(g.num_miners())}) {
      const ShardPlan plan = plan_shards(g.system(), classes, 4);
      std::uint64_t steps = 0;
      for (std::size_t i = 0; i < plan.sizes.size(); ++i) {
        WalkState state(g);
        state.reset(plan.starts[i]);
        EXPECT_EQ(state.scale(), scale);
        walk_canonical_range(state, classes, plan.sizes[i], [&](const WalkState& st) {
          const Configuration fresh =
              materialize_configuration(g.system_ptr(), st.digits());
          for (std::uint32_t c = 0; c < g.num_coins(); ++c) {
            const CoinId coin(c);
            EXPECT_EQ(Rational::from_parts(st.mass(c), 1),
                      fresh.mass(coin) * Rational(scale))
                << "step " << steps << " coin " << c;
            EXPECT_EQ(st.population(c), fresh.population(coin))
                << "step " << steps << " coin " << c;
          }
          std::size_t forbidden = 0;
          for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
            if (!g.can_mine(MinerId(p), fresh.of(MinerId(p)))) ++forbidden;
          }
          EXPECT_EQ(st.access_violations(), forbidden) << "step " << steps;
          EXPECT_EQ(st.access_violations() == 0, g.respects_access(fresh))
              << fresh.to_string();
          ++steps;
          return true;
        });
      }
      EXPECT_EQ(steps, canonical_count(g.system(), classes).value());
    }
  }
}

// ------------------------------------------------------------ equilibria

TEST(EnumerationEngine, GoldenEquilibriumSetsAcrossShapes) {
  for (const Game& g : golden_games()) {
    const auto reference = enumerate_equilibria_scan(g);
    ASSERT_FALSE(reference.empty());
    // Default path (serial, symmetry on), parallel, and symmetry-off must
    // all reproduce the reference exactly — order included.
    EXPECT_EQ(enumerate_equilibria(g), reference) << g.to_string();
    ParallelOpts sym(4, true);
    EXPECT_EQ(enumerate_equilibria(g, sym.opts), reference) << g.to_string();
    ParallelOpts nosym(4, false);
    EXPECT_EQ(enumerate_equilibria(g, nosym.opts), reference) << g.to_string();
  }
}

TEST(EnumerationEngine, ThreadCountInvariance) {
  for (const Game& g : golden_games()) {
    const auto serial = enumerate_equilibria(g, opts_with(1, true));
    for (const std::size_t threads : {2, 3, 8}) {
      ParallelOpts parallel(threads, true);
      EXPECT_EQ(enumerate_equilibria(g, parallel.opts), serial);
    }
  }
}

TEST(EnumerationEngine, CanonicalRepresentativesExpandToFullCount) {
  Game g(System::from_integer_powers({3, 3, 3, 3, 3}, 2),
         RewardFunction::from_integers({10, 7}));
  const auto canonical = enumerate_canonical_equilibria(g, opts_with(1, true));
  const auto full = enumerate_equilibria_scan(g);
  EXPECT_EQ(canonical.total(), full.size());
  // With 5 interchangeable miners the reduction is real: far fewer
  // representatives than equilibria.
  EXPECT_LT(canonical.representatives.size(), full.size());
  for (const auto& rep : canonical.representatives) {
    EXPECT_TRUE(is_equilibrium(g, rep));
  }
}

TEST(EnumerationEngine, RefusesHugeSpaces) {
  Game g(System::from_integer_powers(std::vector<std::int64_t>(40, 1), 10),
         RewardFunction::from_integers(std::vector<std::int64_t>(10, 1)));
  EXPECT_THROW(enumerate_equilibria(g), std::invalid_argument);
  EXPECT_THROW(enumerate_canonical_equilibria(g, EnumerationOptions{}),
               std::invalid_argument);
  EXPECT_THROW(find_never_alone_violation(g), std::invalid_argument);
  EXPECT_THROW(has_exact_potential(g), std::invalid_argument);
}

TEST(EnumerationEngine, OverflowingPowerScaleThrowsLikeTheScan) {
  // Powers 1/D, (D−1)/D and 1/E with coprime D, E near 2^70 build a
  // System (their total is 1 + 1/E), but their common denominator D·E
  // overflows i128. The engine throws OverflowError before it walks; the
  // scan throws it at its first move off coin 0, whose mass needs D·E.
  const i128 d = (i128{1} << 70) + 1;
  const i128 e = (i128{1} << 70) - 1;
  const Game g(System({Rational::from_parts(1, d), Rational::from_parts(d - 1, d),
                       Rational::from_parts(1, e)},
                      2),
               RewardFunction::from_integers({3, 2}));
  EXPECT_THROW(enumerate_equilibria(g), OverflowError);
  EXPECT_THROW(enumerate_equilibria_scan(g), OverflowError);
  EXPECT_THROW(find_never_alone_violation(g), OverflowError);
  EXPECT_THROW(find_never_alone_violation_scan(g), OverflowError);
  EXPECT_THROW(has_exact_potential(g), OverflowError);
  EXPECT_THROW(has_exact_potential_scan(g), OverflowError);
}

// ------------------------------------------------------------ metamorphic

Game scale_powers(const Game& g, const Rational& k) {
  std::vector<Rational> powers;
  for (const Rational& m : g.system().powers()) powers.push_back(m * k);
  return Game(System(std::move(powers), g.num_coins()), g.rewards(), g.access());
}

Game scale_rewards(const Game& g, const Rational& k) {
  std::vector<Rational> rewards;
  for (const Rational& f : g.rewards().values()) rewards.push_back(f * k);
  return Game(g.system_ptr(), RewardFunction(std::move(rewards)), g.access());
}

/// `g` with coin c renamed perm[c]; rewards and access columns follow.
Game relabel_coins(const Game& g, const std::vector<std::uint32_t>& perm) {
  std::vector<Rational> rewards(g.num_coins());
  std::vector<std::vector<bool>> allowed(g.num_miners(),
                                         std::vector<bool>(g.num_coins()));
  for (std::uint32_t c = 0; c < g.num_coins(); ++c) {
    rewards[perm[c]] = g.rewards()(CoinId(c));
    for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
      allowed[p][perm[c]] = g.can_mine(MinerId(p), CoinId(c));
    }
  }
  return Game(g.system_ptr(), RewardFunction(std::move(rewards)),
              g.access().is_unrestricted() ? AccessPolicy()
                                           : AccessPolicy(std::move(allowed)));
}

/// The assignments of `configs`, each coin mapped through `perm` (when
/// given), sorted — the equilibrium *set*.
std::vector<std::vector<CoinId>> assignment_set(
    const std::vector<Configuration>& configs,
    const std::vector<std::uint32_t>* perm = nullptr) {
  std::vector<std::vector<CoinId>> out;
  for (const Configuration& s : configs) {
    std::vector<CoinId> a = s.assignment();
    if (perm != nullptr) {
      for (CoinId& c : a) c = CoinId((*perm)[c.value]);
    }
    out.push_back(std::move(a));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::vector<CoinId>> assignments(const std::vector<Configuration>& configs) {
  std::vector<std::vector<CoinId>> out;
  for (const Configuration& s : configs) out.push_back(s.assignment());
  return out;
}

TEST(EngineMetamorphic, EquilibriaAreInvariantUnderScalingAndRelabelling) {
  // Relations, each checked on every golden game at 1 and 4 threads with
  // symmetry on and off:
  //  (1) powers × 3/11: every payoff m_p·F/M is unchanged, since m_p and
  //      M scale together; so the equilibrium list (in odometer order) and
  //      the canonical representatives with their orbit sizes are
  //      identical. The scaled powers are non-integers, so this runs the
  //      scaled-power walk.
  //  (2) rewards × 13/5: every payoff scales by 13/5 > 0, so every strict
  //      comparison and hence the same lists are unchanged.
  //  (3) coin relabelling c -> perm[c] (rewards and access columns move
  //      with their coin): s is an equilibrium iff perm∘s is one, so the
  //      equilibrium set maps through perm, and the canonical
  //      representative count and the total are unchanged (classes depend
  //      on powers and access rows, which the relabelling permutes alike).
  const Rational power_factor(3, 11);
  const Rational reward_factor(13, 5);
  for (const Game& g : golden_games()) {
    std::vector<std::uint32_t> perm(g.num_coins());
    for (std::uint32_t c = 0; c < perm.size(); ++c) {
      perm[c] = (c + 1) % static_cast<std::uint32_t>(perm.size());
    }
    const Game powers = scale_powers(g, power_factor);
    const Game rewards = scale_rewards(g, reward_factor);
    const Game relabelled = relabel_coins(g, perm);
    for (const std::size_t threads : {1, 4}) {
      for (const bool symmetry : {true, false}) {
        ParallelOpts po(threads, symmetry);
        const EnumerationOptions& opts = po.opts;
        const auto base = enumerate_equilibria(g, opts);
        const auto base_canonical = enumerate_canonical_equilibria(g, opts);
        for (const Game* variant : {&powers, &rewards}) {
          EXPECT_EQ(assignments(enumerate_equilibria(*variant, opts)),
                    assignments(base))
              << variant->to_string() << " threads=" << threads;
          const auto canonical = enumerate_canonical_equilibria(*variant, opts);
          EXPECT_EQ(assignments(canonical.representatives),
                    assignments(base_canonical.representatives));
          EXPECT_EQ(canonical.orbit_sizes, base_canonical.orbit_sizes);
        }
        EXPECT_EQ(assignment_set(enumerate_equilibria(relabelled, opts)),
                  assignment_set(base, &perm))
            << relabelled.to_string() << " threads=" << threads;
        const auto canonical = enumerate_canonical_equilibria(relabelled, opts);
        EXPECT_EQ(canonical.representatives.size(),
                  base_canonical.representatives.size());
        EXPECT_EQ(canonical.total(), base_canonical.total());
      }
    }
  }
}

// ------------------------------------------------------------ comparator

TEST(MoveComparatorChecks, GainsAgreeWithScanOnTheWalkState) {
  // `gains` on the walk state's scaled integers against the reference
  // `is_better_response`, for every allowed move of every configuration.
  // The last game's rewards 1/D, (D−1)/D, 1/E (coprime D, E near 2^70)
  // sum to 1 + 1/E, but their common denominator D·E overflows i128, so
  // it runs the exact `payoff_formula` fallback.
  const i128 d = (i128{1} << 70) + 1;
  const i128 e = (i128{1} << 70) - 1;
  std::vector<Game> games = golden_games();
  games.push_back(restricted_games()[1]);
  games.push_back(Game(System::from_integer_powers({5, 3, 2}, 3),
                       RewardFunction({Rational::from_parts(1, d),
                                       Rational::from_parts(d - 1, d),
                                       Rational::from_parts(1, e)})));
  ASSERT_FALSE(MoveComparator(games.back()).fast_mode());
  for (const Game& g : games) {
    const MoveComparator cmp(g);
    WalkState st(g);
    for_each_configuration(g.system_ptr(), 1u << 12, [&](const Configuration& s) {
      std::vector<std::uint32_t> digits;
      for (const CoinId c : s.assignment()) digits.push_back(c.value);
      st.reset(digits);
      for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
        const std::uint32_t here = digits[p];
        for (std::uint32_t c = 0; c < g.num_coins(); ++c) {
          if (c == here || !st.may_mine(p, c)) continue;
          EXPECT_EQ(cmp.gains(st.power(p), CoinId(here), st.mass(here), CoinId(c),
                              st.mass(c)),
                    is_better_response(g, s, MinerId(p), CoinId(c)))
              << s.to_string() << " p" << p << " -> c" << c;
        }
      }
      return true;
    });
  }
}

// ------------------------------------------------------------ assumptions

TEST(NeverAloneEngine, AgreesWithScanAcrossShapes) {
  for (const Game& g : golden_games()) {
    const bool reference = find_never_alone_violation_scan(g).has_value();
    const auto engine = find_never_alone_violation(g);
    EXPECT_EQ(engine.has_value(), reference) << g.to_string();
    ParallelOpts sym(4, true);
    EXPECT_EQ(find_never_alone_violation(g, sym.opts).has_value(), reference);
    ParallelOpts nosym(2, false);
    EXPECT_EQ(find_never_alone_violation(g, nosym.opts).has_value(), reference);
    if (engine.has_value()) {
      // The witness is genuine: the per-configuration checker confirms it.
      EXPECT_EQ(never_alone_violation_at(g, engine->s), engine->coin);
    }
  }
}

TEST(NeverAloneEngine, WitnessIsThreadCountInvariant) {
  Game g(System::from_integer_powers({10, 10}, 2),
         RewardFunction::from_integers({1000, 1}));
  const auto serial = find_never_alone_violation(g, opts_with(1, true));
  ASSERT_TRUE(serial.has_value());
  for (const std::size_t threads : {2, 4, 8}) {
    ParallelOpts po(threads, true);
    const auto parallel = find_never_alone_violation(g, po.opts);
    ASSERT_TRUE(parallel.has_value());
    EXPECT_EQ(parallel->s, serial->s);
    EXPECT_EQ(parallel->coin, serial->coin);
  }
}

// ------------------------------------------------------------ potential

TEST(ExactPotentialEngine, AgreesWithScanAcrossShapes) {
  for (const Game& g : golden_games()) {
    const bool reference = has_exact_potential_scan(g);
    EXPECT_EQ(has_exact_potential(g), reference) << g.to_string();
    ParallelOpts sym(4, true);
    EXPECT_EQ(has_exact_potential(g, sym.opts), reference);
    ParallelOpts nosym(2, false);
    EXPECT_EQ(has_exact_potential(g, nosym.opts), reference);
    EXPECT_EQ(find_nonzero_four_cycle(g).has_value(),
              find_nonzero_four_cycle_scan(g).has_value());
  }
}

TEST(ExactPotentialEngine, WitnessVerifiesAndIsThreadCountInvariant) {
  const Game g = proposition1_game();
  const auto serial = find_nonzero_four_cycle(g, 4096, opts_with(1, true));
  ASSERT_TRUE(serial.has_value());
  // The witness closes: recomputing its cycle sum from the base matches.
  const CoinId ap = serial->s2.of(serial->p);
  const CoinId bp = serial->s3.of(serial->q);
  EXPECT_EQ(four_cycle_sum(g, serial->s1, serial->p, ap, serial->q, bp),
            serial->cycle_sum);
  for (const std::size_t threads : {2, 4, 8}) {
    ParallelOpts po(threads, true);
    const auto parallel = find_nonzero_four_cycle(g, 4096, po.opts);
    ASSERT_TRUE(parallel.has_value());
    EXPECT_EQ(parallel->s1, serial->s1);
    EXPECT_EQ(parallel->p, serial->p);
    EXPECT_EQ(parallel->q, serial->q);
    EXPECT_EQ(parallel->cycle_sum, serial->cycle_sum);
  }
}

TEST(ExactPotentialEngine, BaseBudgetIsDeterministic) {
  Rng rng(57);
  GameSpec spec;
  spec.num_miners = 4;
  spec.num_coins = 2;
  spec.power_lo = 1;
  spec.power_hi = 9;
  spec.distinct_powers = true;
  const Game g = random_game(spec, rng);
  for (const std::uint64_t budget : {1ULL, 3ULL, 7ULL, 4096ULL}) {
    const auto serial = find_nonzero_four_cycle(g, budget, opts_with(1, true));
    for (const std::size_t threads : {2, 8}) {
      ParallelOpts po(threads, true);
      const auto parallel = find_nonzero_four_cycle(g, budget, po.opts);
      ASSERT_EQ(parallel.has_value(), serial.has_value()) << budget;
      if (serial.has_value()) {
        EXPECT_EQ(parallel->s1, serial->s1);
        EXPECT_EQ(parallel->cycle_sum, serial->cycle_sum);
      }
    }
  }
}

// ------------------------------------------------------------ sampling

TEST(SampleEquilibriaDedup, ManyAttemptsStayDistinct) {
  // A game with very few equilibria: heavy duplicate pressure on the
  // bucket index.
  Game g(System::from_integer_powers({2, 1}, 2),
         RewardFunction::from_integers({1, 1}));
  Rng rng(91);
  const auto sampled = sample_equilibria(g, rng, 64);
  ASSERT_FALSE(sampled.empty());
  EXPECT_LE(sampled.size(), 2u);
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    EXPECT_TRUE(is_equilibrium(g, sampled[i]));
    for (std::size_t j = i + 1; j < sampled.size(); ++j) {
      EXPECT_FALSE(sampled[i] == sampled[j]);
    }
  }
}

}  // namespace
}  // namespace goc
