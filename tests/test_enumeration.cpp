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

/// The engine walk over one rank range on a `Configuration` walk state.
std::vector<std::vector<CoinId>> walk_range(
    const std::shared_ptr<const System>& system, const SymmetryClasses& classes,
    const std::vector<std::uint32_t>& start, std::uint64_t count) {
  std::vector<std::vector<CoinId>> out;
  Configuration state = materialize_configuration(system, start);
  walk_canonical_range(state, classes,
                       static_cast<std::uint32_t>(system->num_coins()), start,
                       count, [&](const Configuration& s) {
                         out.push_back(s.assignment());
                         return true;
                       });
  return out;
}

/// The engine walk over the whole canonical space.
std::vector<std::vector<CoinId>> walk_all(const std::shared_ptr<const System>& system,
                                          const SymmetryClasses& classes) {
  return walk_range(system, classes,
                    std::vector<std::uint32_t>(system->num_miners(), 0),
                    canonical_count(*system, classes).value());
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
  auto system = std::make_shared<const System>(
      System::from_integer_powers({2, 2, 1}, 3));
  std::vector<std::vector<CoinId>> legacy;
  for_each_configuration(system, 100, [&](const Configuration& s) {
    legacy.push_back(s.assignment());
    return true;
  });
  EXPECT_EQ(walk_all(system, singleton_classes(3)), legacy);
}

TEST(CanonicalWalk, VisitsExactlyTheCanonicalRepresentatives) {
  Game g(System::from_integer_powers({2, 2, 2, 9}, 3),
         RewardFunction::from_integers({4, 5, 6}));
  const SymmetryClasses classes = symmetry_classes(g);
  std::vector<std::vector<CoinId>> seen = walk_all(g.system_ptr(), classes);
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
    const auto shard =
        walk_range(g.system_ptr(), classes, plan.starts[i], plan.sizes[i]);
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

/// Both walk states behind one walk, so every hop reaches both.
struct LockstepState {
  Configuration config;
  IntegerWalkState integer;
};

void apply_hop(LockstepState& st, std::size_t miner, std::uint32_t from,
               std::uint32_t to) {
  apply_hop(st.config, miner, from, to);
  apply_hop(st.integer, miner, from, to);
}

TEST(WalkStates, IntegerStateMatchesConfigurationInLockstep) {
  const Game g(System::from_integer_powers({5, 2, 2, 2, 1, 1}, 3),
               RewardFunction::from_integers({100, 40, 1}));
  const IntegerGameView view = integer_game_view(g);
  const std::uint32_t coins = static_cast<std::uint32_t>(g.num_coins());
  for (const SymmetryClasses& classes :
       {symmetry_classes(g), singleton_classes(g.num_miners())}) {
    const ShardPlan plan = plan_shards(g.system(), classes, 8);
    ASSERT_GE(plan.sizes.size(), 8u);
    std::uint64_t steps = 0;
    for (std::size_t i = 0; i < plan.sizes.size(); ++i) {
      LockstepState state{materialize_configuration(g.system_ptr(), plan.starts[i]),
                          integer_walk_state(view, plan.starts[i])};
      walk_canonical_range(
          state, classes, coins, plan.starts[i], plan.sizes[i],
          [&](const LockstepState& st) {
            for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
              EXPECT_EQ(st.integer.digits[p], st.config.of(MinerId(p)).value)
                  << "step " << steps << " miner " << p;
            }
            for (std::uint32_t c = 0; c < coins; ++c) {
              const CoinId coin(c);
              EXPECT_TRUE(Rational::from_parts(st.integer.mass[c], 1) ==
                          st.config.mass(coin))
                  << "step " << steps << " coin " << c;
              EXPECT_EQ(st.integer.population[c], st.config.population(coin))
                  << "step " << steps << " coin " << c;
            }
            ++steps;
            return true;
          });
    }
    EXPECT_EQ(steps, canonical_count(g.system(), classes).value());
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

// ------------------------------------------------------------ comparator

TEST(MoveComparatorChecks, EquilibriumAgreesWithScan) {
  for (const Game& g : golden_games()) {
    const MoveComparator cmp(g);
    std::size_t checked = 0;
    for_each_configuration(g.system_ptr(), 1u << 12, [&](const Configuration& s) {
      EXPECT_EQ(cmp.equilibrium(s), is_equilibrium(g, s)) << s.to_string();
      for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
        EXPECT_EQ(cmp.stable(s, MinerId(p)), is_stable(g, s, MinerId(p)));
      }
      return ++checked < 200;  // spot-check a prefix of the space
    });
  }
}

TEST(AccessTrackerTest, MatchesFromScratchScan) {
  AccessPolicy access({{true, false, true},
                       {true, true, false},
                       {false, true, true},
                       {true, true, true}});
  Game g(System::from_integer_powers({4, 3, 2, 1}, 3),
         RewardFunction::from_integers({5, 6, 7}), access);
  AccessTracker tracker(g);
  for_each_configuration(g.system_ptr(), 100, [&](const Configuration& s) {
    EXPECT_EQ(tracker.respects(s), g.respects_access(s)) << s.to_string();
    return true;
  });
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
