#include "equilibrium/enumerate.hpp"

#include <algorithm>
#include <unordered_map>

#include "core/generators.hpp"
#include "core/move_compare.hpp"
#include "core/moves.hpp"
#include "dynamics/best_response_index.hpp"
#include "util/assert.hpp"

namespace goc {

std::uint64_t CanonicalEquilibria::total() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t size : orbit_sizes) sum += size;
  return sum;
}

namespace {

/// `respects_access && is_equilibrium` on the walk state: no miner gains
/// by moving to another coin it may mine, and every miner sits on a coin
/// it may mine. First improving miner exits.
bool walk_equilibrium(const MoveComparator& cmp, const WalkState& st) {
  const std::uint32_t coins = st.num_coins();
  // Highest miner id first: generators emit powers sorted descending, and
  // small miners improve most easily, so this exits earliest on average
  // (the boolean is order-independent either way).
  for (std::size_t p = st.num_miners(); p-- > 0;) {
    const std::uint32_t here = st.digits()[p];
    const i128 mp = st.power(p);
    const i128 m_here = st.mass(here);
    for (std::uint32_t c = 0; c < coins; ++c) {
      // Access is read only for a gaining coin: gains are rare.
      if (c != here && cmp.gains(mp, CoinId(here), m_here, CoinId(c), st.mass(c)) &&
          st.may_mine(p, c)) {
        return false;
      }
    }
  }
  return st.access_violations() == 0;
}

/// Shared core: both public entry points compute the class partition once
/// and pass it here (the orbit expansion below must use the exact
/// partition the walk used).
CanonicalEquilibria enumerate_canonical_with(const Game& game,
                                             const EnumerationOptions& opts,
                                             const SymmetryClasses& classes) {
  const auto count = configuration_count(game.system());
  GOC_CHECK_ARG(count.has_value() && *count <= opts.max_configs,
                "configuration space too large to enumerate");
  const MoveComparator cmp(game);

  const EnumerationPlan plan = plan_enumeration(game.system(), classes, opts);
  auto found_per_shard = enumerate_planned(
      game, plan, classes, opts,
      [](std::size_t) { return std::vector<Configuration>(); },
      [&](std::vector<Configuration>& found, const WalkState& st, std::size_t) {
        if (walk_equilibrium(cmp, st)) {
          found.push_back(materialize_configuration(game.system_ptr(), st.digits()));
        }
        return true;
      });

  CanonicalEquilibria out;
  for (auto& found : found_per_shard) {
    for (auto& s : found) {
      out.orbit_sizes.push_back(classes.trivial ? 1
                                                : orbit_size(s.assignment(), classes));
      out.representatives.push_back(std::move(s));
    }
  }
  return out;
}

}  // namespace

CanonicalEquilibria enumerate_canonical_equilibria(const Game& game,
                                                   const EnumerationOptions& opts) {
  return enumerate_canonical_with(game, opts, classes_for(game, opts));
}

std::vector<Configuration> enumerate_equilibria(const Game& game,
                                                const EnumerationOptions& opts) {
  const SymmetryClasses classes = classes_for(game, opts);
  CanonicalEquilibria canonical = enumerate_canonical_with(game, opts, classes);
  if (classes.trivial) return std::move(canonical.representatives);

  // Expand every orbit, then merge back into full-space odometer order —
  // the exact output of the legacy walker.
  std::vector<Configuration> expanded;
  for (const auto& rep : canonical.representatives) {
    auto orbit = expand_orbit(rep, classes);
    expanded.insert(expanded.end(), std::make_move_iterator(orbit.begin()),
                    std::make_move_iterator(orbit.end()));
  }
  std::sort(expanded.begin(), expanded.end(),
            [coins = game.num_coins()](const Configuration& a, const Configuration& b) {
              return odometer_rank(a.assignment(), coins) <
                     odometer_rank(b.assignment(), coins);
            });
  return expanded;
}

std::vector<Configuration> enumerate_equilibria(const Game& game,
                                                std::uint64_t max_configs) {
  EnumerationOptions opts;
  opts.max_configs = max_configs;
  return enumerate_equilibria(game, opts);
}

std::vector<Configuration> enumerate_equilibria_scan(const Game& game,
                                                     std::uint64_t max_configs) {
  std::vector<Configuration> out;
  for_each_configuration(game.system_ptr(), max_configs,
                         [&](const Configuration& s) {
                           if (game.respects_access(s) && is_equilibrium(game, s)) {
                             out.push_back(s);
                           }
                           return true;
                         });
  return out;
}

std::vector<Configuration> sample_equilibria(const Game& game, Rng& rng,
                                             std::size_t attempts,
                                             std::uint64_t max_steps_per_attempt) {
  std::vector<Configuration> out;
  // Hash-bucket index: candidates sharing a hash are compared exactly
  // against their bucket only (collision-safe without a full rescan).
  std::unordered_map<std::size_t, std::vector<std::size_t>> buckets;
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    // Random start, then random-unstable-miner best responses on the
    // incremental index. Theorem 1 guarantees convergence of any such
    // improving path; the index picks bit-identical moves to the scans.
    Configuration s = random_configuration(game, rng);
    dynamics::BestResponseIndex index(game, s);
    for (std::uint64_t step = 0; step < max_steps_per_attempt; ++step) {
      const std::vector<MinerId>& unstable = index.unstable();
      if (unstable.empty()) break;
      const MinerId p = unstable[rng.pick_index(unstable)];
      const auto target = index.best_of(p);
      GOC_ASSERT(target.has_value(), "unstable miner without a best response");
      s.move(p, *target);
      index.sync(s);
    }
    GOC_ASSERT(index.at_equilibrium(),
               "better-response learning failed to converge within the step cap");
    std::vector<std::size_t>& bucket = buckets[s.hash()];
    bool duplicate = false;
    for (const std::size_t i : bucket) {
      if (out[i] == s) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      bucket.push_back(out.size());
      out.push_back(std::move(s));
    }
  }
  return out;
}

}  // namespace goc
