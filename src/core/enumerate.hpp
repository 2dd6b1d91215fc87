#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/configuration.hpp"
#include "core/game.hpp"
#include "core/system.hpp"
#include "engine/cancel.hpp"
#include "engine/thread_pool.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "util/assert.hpp"
#include "util/int128.hpp"

/// \file enumerate.hpp
/// The exhaustive-enumeration engine: high-throughput iteration over the
/// configuration space S = C^n for equilibrium enumeration, Assumption 1
/// checking, and exact-potential verification.
///
/// One walk serves every consumer. `canonical_step` is the canonical
/// odometer's increment-and-carry, written once; `walk_canonical_range`
/// runs it over a rank range on the one `WalkState`; `plan_enumeration`
/// and `enumerate_planned` are the one planner and the one driver. Around
/// that walk:
///
///  * **One incremental walk state** — the walker is a template over its
///    visitor (no `std::function` dispatch) and hands each digit hop to a
///    `WalkState`, which applies raw i128 mass, population and
///    access-violation deltas: a step costs O(1) for every game. Powers
///    are scaled by their common denominator, so rational powers and
///    restricted access walk the same integer state.
///  * **Symmetry reduction** — miners with identical power and identical
///    access rights are interchangeable: permuting them is a game
///    automorphism, so equilibrium-ness, never-alone violations, and
///    4-cycle obstructions are orbit-invariant. The walk visits only
///    *canonical representatives* (coin ids non-decreasing in miner-id
///    order within each class), shrinking |C|^n toward the multiset count;
///    `expand_orbit` recovers the full orbit on demand.
///  * **Deterministic sharding** — the odometer splits into consecutive
///    rank ranges (top-digit prefixes, with oversized prefixes split
///    further by canonical unranking) fanned across `engine::ThreadPool`.
///    Shards are indexed in global odometer order and sized exactly
///    (`ShardPlan::sizes` / `start_ranks`), so per-shard results
///    concatenate into a result that is bit-identical at any thread count.
///  * **i128 predicates** — consumers check equilibrium, never-alone and
///    4-cycle sums on the walk state through `MoveComparator::gains` and
///    `payoff_formula` instead of exact `Rational` payoff scans.
///
/// The legacy `for_each_configuration` callback walker is kept verbatim as
/// the validation reference (`--compare-scan` paths and golden tests).

namespace goc {

/// Number of configurations |C|^n, or nullopt if it exceeds 2^63−1.
std::optional<std::uint64_t> configuration_count(const System& system);

/// Reference walker: invokes `visit` on every configuration in odometer
/// order (miner 0 is the fastest-changing digit). Stops early when `visit`
/// returns false. Throws std::invalid_argument when |C|^n > max_configs.
void for_each_configuration(const std::shared_ptr<const System>& system,
                            std::uint64_t max_configs,
                            const std::function<bool(const Configuration&)>& visit);

// ------------------------------------------------------------ symmetry

/// The partition of miners into interchangeability classes: p ~ q iff they
/// have equal power and identical access rows. Permuting classmates is a
/// game automorphism (it preserves every per-coin mass and every miner's
/// action set), so all engine predicates are constant on orbits.
struct SymmetryClasses {
  /// miner -> index of its class in `classes`.
  std::vector<std::uint32_t> class_of;
  /// Members of each class, in miner-id order.
  std::vector<std::vector<MinerId>> classes;
  /// miner -> the next classmate with a larger id, or -1 when it is the
  /// largest of its class. The canonical-form constraint is
  /// digit[p] <= digit[next_classmate[p]].
  std::vector<std::int32_t> next_classmate;
  /// True when every class is a singleton (no reduction available); the
  /// canonical walk then visits the full space in exact legacy order.
  bool trivial = true;
};

/// Groups the game's miners by (power, access row).
SymmetryClasses symmetry_classes(const Game& game);

/// `symmetry_classes(game).class_of` without the member lists: class ids
/// number the classes in the order of their smallest miner id. One pass
/// over the runs of equal power in `System::power_order()`, comparing
/// access rows only within a run: O(n·|C|) when each run holds a few
/// distinct access rows (O(n) under unrestricted access).
std::vector<std::uint32_t> symmetry_class_ids(const Game& game);

/// The no-symmetry partition: n singleton classes (used when
/// `EnumerationOptions::symmetry` is off).
SymmetryClasses singleton_classes(std::size_t num_miners);

struct EnumerationOptions;

/// The partition `opts` selects: symmetry classes, or singletons when
/// symmetry is off. Every engine consumer resolves its classes through
/// this so walk and post-processing (orbit expansion) always agree.
SymmetryClasses classes_for(const Game& game, const EnumerationOptions& opts);

/// Number of canonical representatives: Π over classes of the multiset
/// count C(|K| + |C| − 1, |K|). nullopt on 64-bit overflow.
std::optional<std::uint64_t> canonical_count(const System& system,
                                             const SymmetryClasses& classes);

/// Orbit size of `assignment` under the class permutations: Π over classes
/// of the multinomial |K|! / Π_c (members of K on c)!. Throws OverflowError
/// if the product exceeds 2^64−1.
std::uint64_t orbit_size(const std::vector<CoinId>& assignment,
                         const SymmetryClasses& classes);

/// All configurations in the orbit of `canonical` (including itself), in
/// unspecified order. The orbit of a canonical equilibrium is exactly its
/// equivalence class in the full space.
std::vector<Configuration> expand_orbit(const Configuration& canonical,
                                        const SymmetryClasses& classes);

/// Odometer rank of an assignment: Σ_i digit(i)·|C|^i. Total order of the
/// legacy walk; used to merge expanded orbits back into legacy output
/// order. Caller must have bounded |C|^n to 2^63−1 (configuration_count).
std::uint64_t odometer_rank(const std::vector<CoinId>& assignment,
                            std::size_t num_coins);

/// Canonical cap of miner `pos`'s digit: its next classmate's current
/// digit (the non-decreasing-within-class constraint), else the largest
/// coin. The one definition of the canonical form, shared by
/// `canonical_step` and canonical unranking.
inline std::uint32_t canonical_cap(const SymmetryClasses& classes,
                                   const std::vector<std::uint32_t>& digits,
                                   std::size_t pos, std::uint32_t coins) {
  const std::int32_t nc = classes.next_classmate[pos];
  return nc < 0 ? coins - 1 : digits[static_cast<std::size_t>(nc)];
}

// ------------------------------------------------------------ sharding

struct EnumerationOptions {
  /// Total concurrent lanes; 0 = one per hardware thread, 1 = serial (the
  /// deterministic-by-construction reference schedule). Ignored when
  /// `pool` is set.
  std::size_t threads = 1;
  /// Enumerate canonical representatives only. Off = full space (the
  /// walker then visits configurations in exact legacy odometer order).
  bool symmetry = true;
  /// Bound on the FULL |C|^n space (legacy semantics — consumers throw
  /// std::invalid_argument above it even when the canonical space is
  /// smaller).
  std::uint64_t max_configs = 1u << 22;
  /// Shards hold at least this many (weighted) configurations — dispatch
  /// overhead would exceed a smaller walk: the shard count is capped at
  /// canonical/min_shard_configs (floored at one shard per lane).
  std::uint64_t min_shard_configs = 1024;
  /// Canonical spaces smaller than this run serially in one shard —
  /// fan-out overhead would swamp the walk (results are identical either
  /// way; this is purely a scheduling decision). Consumers with heavy
  /// per-configuration work compare a *weighted* count against this
  /// cutoff instead of lowering it (`plan_enumeration`'s `weight`; the
  /// 4-cycle scanners pass cycles per base).
  std::uint64_t serial_cutoff = 4096;
  /// Reuse an existing pool instead of spawning one per call (spawning
  /// costs more than walking a small game). Non-owning; lanes =
  /// pool->num_threads() + 1. nullptr = spawn from `threads`.
  engine::ThreadPool* pool = nullptr;
  /// Cooperative cancellation (engine/cancel.hpp): polled before every
  /// shard walk; a stale view makes the fan-out throw `engine::Cancelled`.
  /// Default never cancels. Granularity is one shard — coarse, but an
  /// enumeration that matters is sharded, and the serial small-space path
  /// finishes faster than any cancel could land.
  engine::CancelView cancel;
};

/// A deterministic split of the canonical space into consecutive rank
/// ranges. Shard i enumerates exactly the canonical configurations with
/// ranks [start_ranks[i], start_ranks[i] + sizes[i]) in canonical odometer
/// order, so concatenating per-shard results in index order reproduces the
/// serial walk bit-for-bit. The planner first cuts by top-digit prefix,
/// then splits any prefix larger than ~ceil(total/target) into even rank
/// subranges via canonical unranking — pathological class layouts (e.g.
/// one giant symmetry class, where most of the space shares one top
/// digit) no longer serialize a single lane on one oversized shard.
struct ShardPlan {
  /// starts[i] = full digit vector (miner -> coin) of shard i's first
  /// canonical configuration, in global odometer order.
  std::vector<std::vector<std::uint32_t>> starts;
  /// Canonical configurations per shard.
  std::vector<std::uint64_t> sizes;
  /// Exclusive prefix sums of `sizes` (global canonical start rank).
  std::vector<std::uint64_t> start_ranks;
};

/// Splits the canonical space into at least `target_shards` shards when
/// possible, each of at most ~ceil(canonical/target_shards)
/// configurations (a single shard when target_shards <= 1).
ShardPlan plan_shards(const System& system, const SymmetryClasses& classes,
                      std::size_t target_shards);

/// The full digit vector of the canonical configuration with the given
/// canonical odometer rank — the unranking behind ShardPlan's subrange
/// starts. O(n·|C|·classes) per call; `rank` must be < the canonical
/// count.
std::vector<std::uint32_t> canonical_digits_at_rank(
    const System& system, const SymmetryClasses& classes, std::uint64_t rank);

// ------------------------------------------------------------ the walk

/// The canonical odometer step — the one place the canonical form's
/// increment-and-carry is written. Advances `digits` to the next canonical
/// assignment using positions [first, n) only (miner `first` is the
/// least-significant digit; positions below it never change) and calls
/// `hop(miner, from, to)` for every digit that changes: the carry resets
/// first, lowest position first, then the one increment. Returns false when
/// the odometer wraps (every digit in [first, n) back at 0).
template <typename Hop>
bool canonical_step(const SymmetryClasses& classes,
                    std::vector<std::uint32_t>& digits, std::size_t first,
                    std::uint32_t coins, Hop&& hop) {
  for (std::size_t pos = first; pos < digits.size(); ++pos) {
    const std::uint32_t from = digits[pos];
    if (from < canonical_cap(classes, digits, pos, coins)) {
      digits[pos] = from + 1;
      hop(pos, from, from + 1);
      return true;
    }
    if (from != 0) {
      digits[pos] = 0;
      hop(pos, from, std::uint32_t{0});
    }
  }
  return false;
}

/// The engine's one walk state: the odometer digits plus incrementally
/// maintained masses, populations and access violations, all in raw
/// integers — no `Rational` near the hot loop.
/// Powers are scaled by their common denominator L_p, so rational powers
/// walk in i128 integers too; every comparison and payoff the walk makes
/// is unchanged by that scale, because powers and masses scale together.
/// Consumers materialize a `Configuration` only on hits
/// (`materialize_configuration`).
class WalkState {
 public:
  /// `game`'s walk state at the all-zero assignment. Throws
  /// goc::OverflowError when L_p, a scaled power or the scaled total power
  /// overflows i128.
  explicit WalkState(const Game& game);

  /// Jumps to `digits` (miner -> coin), recounting everything: O(n + |C|).
  void reset(const std::vector<std::uint32_t>& digits);

  /// One odometer hop: `miner` moves from coin `from` to coin `to`. O(1).
  void hop(std::size_t miner, std::uint32_t from, std::uint32_t to) {
    const i128 m = power_[miner];
    digits_[miner] = to;
    mass_[from] -= m;
    --population_[from];
    mass_[to] += m;
    ++population_[to];
    if (restricted_) [[unlikely]] {
      const std::size_t row = miner * mass_.size();
      violations_ += allowed_[row + to] ? 0 : 1;
      violations_ -= allowed_[row + from] ? 0 : 1;
    }
  }

  std::size_t num_miners() const noexcept { return digits_.size(); }
  std::uint32_t num_coins() const noexcept {
    return static_cast<std::uint32_t>(mass_.size());
  }
  /// miner -> coin.
  const std::vector<std::uint32_t>& digits() const noexcept { return digits_; }
  /// L_p, the common denominator of the powers.
  i128 scale() const noexcept { return scale_; }
  /// m_p·L_p.
  i128 power(std::size_t miner) const noexcept { return power_[miner]; }
  /// M_c·L_p.
  i128 mass(std::uint32_t coin) const noexcept { return mass_[coin]; }
  /// |P_c|.
  std::uint32_t population(std::uint32_t coin) const noexcept {
    return population_[coin];
  }
  /// May `miner` mine `coin` under the game's access policy?
  bool may_mine(std::size_t miner, std::uint32_t coin) const noexcept {
    return !restricted_ || allowed_[miner * mass_.size() + coin] != 0;
  }
  /// Miners sitting on a coin they may not mine; 0 iff the assignment
  /// respects the access policy (`Game::respects_access`).
  std::size_t access_violations() const noexcept { return violations_; }

 private:
  i128 scale_ = 1;
  std::vector<i128> power_;            ///< miner -> m_p·L_p
  std::vector<std::uint8_t> allowed_;  ///< miner·|C| + coin; set iff restricted_
  std::vector<std::uint32_t> digits_;
  std::vector<i128> mass_;
  std::vector<std::uint32_t> population_;
  std::size_t violations_ = 0;
  bool restricted_ = false;  // one flag load per hop, cheaper than empty()
};

/// A `Configuration` with the given assignment (miner -> coin): how a walk
/// hit becomes a result.
Configuration materialize_configuration(const std::shared_ptr<const System>& system,
                                        const std::vector<std::uint32_t>& digits);

/// The rank-range walker: visits `count` consecutive canonical
/// configurations starting where `state` sits (a canonical assignment),
/// advancing it one `canonical_step` hop at a time. `visit(const
/// WalkState&)` returns false to stop; the function returns false iff it
/// stopped early.
template <typename Visit>
bool walk_canonical_range(WalkState& state, const SymmetryClasses& classes,
                          std::uint64_t count, Visit&& visit) {
  if (count == 0) return true;
  std::vector<std::uint32_t> digits = state.digits();
  const auto hop = [&state](std::size_t miner, std::uint32_t from,
                            std::uint32_t to) { state.hop(miner, from, to); };
  for (;;) {
    if (!visit(static_cast<const WalkState&>(state))) return false;
    if (--count == 0) return true;
    const bool advanced =
        canonical_step(classes, digits, 0, state.num_coins(), hop);
    GOC_ASSERT(advanced, "rank range ran past the canonical space");
  }
}

// ------------------------------------------------------------ the driver

/// How one enumeration runs: its lane count and the shard plan sized for
/// those lanes.
struct EnumerationPlan {
  std::size_t lanes = 1;
  ShardPlan shards;
};

/// The one scheduling decision of every engine consumer. Lanes come from
/// `opts` against the canonical count times `weight`, the relative cost of
/// one configuration (1 for a predicate check; cycles per base for the
/// 4-cycle search, so the serial cutoff compares like with like). Spaces
/// below `opts.serial_cutoff` get one lane and one shard; otherwise ~8
/// shards per lane, capped so shards hold at least `min_shard_configs`
/// weighted configurations (floored at one shard per lane).
EnumerationPlan plan_enumeration(const System& system,
                                 const SymmetryClasses& classes,
                                 const EnumerationOptions& opts,
                                 std::uint64_t weight = 1);

/// The one driver: fans `plan` across the pool (the caller's `opts.pool`,
/// or a freshly spawned one). One result per shard (`make_shard(i)`),
/// created on the calling thread in shard order. Shard i starts a
/// `WalkState` of `game` at `plan.shards.starts[i]` and walks its rank
/// range, calling `visit(result, state, i)` per configuration (false ends
/// that shard). The results come back in shard (= global odometer) order
/// at any thread count. Throws goc::OverflowError before any walk when the
/// game's scaled powers overflow (see `WalkState`).
template <typename MakeShard, typename Visit>
auto enumerate_planned(const Game& game, const EnumerationPlan& plan,
                       const SymmetryClasses& classes,
                       const EnumerationOptions& opts, MakeShard&& make_shard,
                       Visit&& visit)
    -> std::vector<std::decay_t<std::invoke_result_t<MakeShard&, std::size_t>>> {
  using Result = std::decay_t<std::invoke_result_t<MakeShard&, std::size_t>>;
  const WalkState origin(game);
  const ShardPlan& shards = plan.shards;
  std::vector<Result> results;
  results.reserve(shards.sizes.size());
  for (std::size_t i = 0; i < shards.sizes.size(); ++i) {
    results.push_back(make_shard(i));
  }
  static obs::Counter& kShardsWalked =
      obs::Registry::instance().counter("enum.shards_walked");
  static obs::Histogram& kShardWalkNs =
      obs::Registry::instance().histogram("enum.shard_walk_ns");
  const auto run = [&](engine::ThreadPool& pool) {
    pool.parallel_for(shards.sizes.size(), [&](std::size_t i) {
      opts.cancel.throw_if_stale("enumeration cancelled");
      obs::Span span(kShardWalkNs);
      WalkState state = origin;
      state.reset(shards.starts[i]);
      walk_canonical_range(state, classes, shards.sizes[i],
                           [&](const WalkState& s) {
                             return visit(results[i], s, i);
                           });
      kShardsWalked.add();
    });
  };
  if (opts.pool != nullptr && plan.lanes > 1) {
    run(*opts.pool);
  } else {
    engine::ThreadPool local(engine::ThreadPool::workers_for(plan.lanes));
    run(local);
  }
  return results;
}

/// Lock-free fetch-min: records `value` in `slot` iff smaller. The
/// cross-shard witness-priority primitive — a shard that finds a witness
/// stamps its index, and shards above the current minimum abort while
/// shards below always finish, making the reported witness the first in
/// canonical order at any thread count.
inline void atomic_store_min(std::atomic<std::size_t>& slot, std::size_t value) {
  std::size_t expected = slot.load(std::memory_order_relaxed);
  while (value < expected && !slot.compare_exchange_weak(expected, value)) {
  }
}

}  // namespace goc
