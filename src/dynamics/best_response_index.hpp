#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/configuration.hpp"
#include "core/game.hpp"
#include "core/move_compare.hpp"
#include "core/moves.hpp"
#include "util/rational.hpp"

/// \file best_response_index.hpp
/// The incremental best-response index — the learning hot loop's engine.
///
/// A from-scratch scheduler `pick()` walks all miners × coins with exact
/// payoffs: O(n·|C|) full payoff evaluations per step. The index keeps
/// each miner's best response, improving-coin bitmask and count, and the
/// set of unstable miners, so samplers pick uniform moves without
/// materializing them.
///
/// Threshold-crossing sync. A miner q's cached facts are a function of
/// two kinds of sign, both read through `MoveComparator::compare`:
///
///  * the improving test of (home h, coin c): u_q after moving to c vs
///    u_q at h, i.e. the sign of K_c·M_h − K_h·(M_c + m_q);
///  * the order of two non-home coins c1, c2: the sign of
///    K_1·(M_2 + m_q) − K_2·(M_1 + m_q).
///
/// Both are linear in q's power m_q with a slope fixed between reweights,
/// so along the home coin's members in ascending power each sign is
/// monotone. A move a → b changes only the masses of a and b, which
/// shifts the intercept of every sign that involves a or b (as home or
/// as a compared coin) by the same amount for every member. The members
/// whose sign flips therefore form one contiguous run of the home's
/// power-ordered group. Its near end is a binary search on the
/// configuration before the move (a private copy kept one move behind) or
/// after it, its far end a galloping search on the other one. After a
/// move only the mover and the members of those runs are rescanned
/// (`index.rescans` counts them); every other miner's facts are provably
/// unchanged. A sync costs O(|C|²·log n) comparisons for the searches
/// plus O(|C|) per rescanned miner. A member who may not mine a compared
/// coin may be visited; its rescan skips that coin.
///
/// Every ordering decision is exact, so schedulers built on the index pick
/// bit-identical move sequences to the reference scans
/// (tests/test_best_response_index.cpp proves it move-for-move;
/// `LearningOptions::audit_potential` cross-checks it at runtime). The
/// index stores no gains: a gain is computed, and reduced once, only for
/// a move that is built.

namespace goc::dynamics {

class BestResponseIndex {
 public:
  /// Builds the index for `s` in O(n·|C|) fast comparisons. The index
  /// keeps references to both `game` and `s`; `sync()` must be called
  /// after every batch of `Configuration::move`s before querying again.
  BestResponseIndex(const Game& game, const Configuration& s);

  /// Brings the index up to date with `s`. One new move (epoch + 1) is
  /// applied incrementally from `s.last_delta()`; anything else — a
  /// different configuration object, or several epochs at once — falls
  /// back to a full rebuild.
  void sync(const Configuration& s);

  /// True when the index reflects `s`'s current epoch (queries are only
  /// valid in this state).
  bool in_sync(const Configuration& s) const noexcept {
    return tracked_ == &s && epoch_ == s.move_epoch();
  }

  /// Reweight-invalidation hook: call after `Game::reweight` changed the
  /// game's reward function under this index. Every coin's attractiveness
  /// changed at once, so all cached best responses and improving sets are
  /// recomputed (O(n·|C|) fast comparisons, like construction) — but the
  /// structural state survives: the tracked configuration binding, every
  /// preallocated strip (bitmask rows, member groups, the unstable set's
  /// capacity) and the comparator are reused, so a reweight allocates
  /// nothing. The comparator's integer-mode flag is re-derived (new
  /// rewards may enter or leave the raw-i128 fast path).
  void reweight();

  const Game& game() const noexcept { return *game_; }

  // ---------------------------------------------------------------- queries

  /// True iff p has no better response (mirrors `is_stable`).
  bool stable(MinerId p) const { return best_[p.value] < 0; }

  /// p's best response (lowest coin id among the payoff argmax, exactly as
  /// `best_response`), or nullopt when p is stable.
  std::optional<CoinId> best_of(MinerId p) const {
    if (best_[p.value] < 0) return std::nullopt;
    return CoinId(static_cast<std::uint32_t>(best_[p.value]));
  }

  /// p's best-response move (its gain computed once, as `move_gain`), or
  /// nullopt when stable.
  std::optional<Move> best_move(MinerId p) const;

  /// |better_responses(game, s, p)|.
  std::size_t improving_count(MinerId p) const { return count_[p.value]; }

  /// |all_better_response_moves(game, s)|.
  std::size_t total_improving() const noexcept { return total_improving_; }

  /// Unstable miners in miner-id order (mirrors `unstable_miners`).
  const std::vector<MinerId>& unstable() const noexcept { return unstable_; }

  /// True iff the configuration is a pure equilibrium.
  bool at_equilibrium() const noexcept { return unstable_.empty(); }

  /// The n-th improving coin of p in coin-id order (the ordering of
  /// `better_responses`); p must have more than n improving coins.
  CoinId nth_improving(MinerId p, std::size_t n) const;

  /// p's improving coin with the *smallest* post-move payoff, lowest coin
  /// id on ties — the per-miner candidate for min-gain scheduling. p must
  /// be unstable.
  CoinId min_improving(MinerId p) const;

  /// The full Move record for p moving to improving coin `c`; its gain is
  /// exact (`move_gain`, reduced once).
  Move move_to(MinerId p, CoinId c) const;

  /// p's symmetry class (`symmetry_class_ids`: equal power and access
  /// row). Classmates on the same coin share every cached fact, because
  /// the facts are a function of (power, access row, home, masses).
  std::uint32_t class_of(MinerId p) const { return class_[p.value]; }
  std::size_t num_classes() const noexcept { return num_classes_; }

  /// Cross-checks every miner's cached facts (best response, improving
  /// count and set, stability flag) and the totals against an exact
  /// `scan_moves` (core/moves.*) under the current masses; throws
  /// goc::InvariantError on any mismatch. The scan is a function of (power,
  /// access row, home, masses), so it runs once per occupied (class, home)
  /// cell: its first miner in id order is compared with the scan, and every
  /// later miner of the cell with that first miner's facts, which equal the
  /// scan (`index.audit_scans` counts the scans). Exact comparisons of
  /// unreduced payoffs and no reduction; nothing is kept from one audit to
  /// the next. The audit path of `LearningOptions::audit_potential`. Its
  /// scratch lives in the index (sized by the first audit), so concurrent
  /// audits of one index race.
  void audit() const;

 private:
  void rebuild();
  void apply_delta(const MoveDelta& delta);
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  std::size_t rescan_flipped_run(CoinId home, std::size_t skip, CoinId x,
                                 CoinId y, bool x_gained);
  std::size_t relocate(MinerId q, CoinId from, CoinId to);
  void rescan(MinerId q);
  void set_stability(MinerId q, bool unstable_now);

  const Game* game_;
  const Configuration* tracked_;
  Configuration before_;  // own copy of the tracked state at epoch_
  MoveComparator cmp_;
  std::uint64_t epoch_ = 0;
  bool unrestricted_;
  std::size_t n_;

  std::vector<std::int32_t> best_;          // -1 = stable, else coin id
  std::vector<std::uint32_t> count_;        // improving coins per miner
  std::vector<std::uint64_t> improving_;    // bitmask rows, stride_ words
  std::size_t stride_ = 1;
  std::vector<MinerId> unstable_;           // sorted by miner id
  std::vector<std::uint8_t> unstable_flag_;
  std::size_t total_improving_ = 0;

  // Threshold-crossing sync state. Powers never change, so the system's
  // `power_order()`, read backwards, ranks every miner by ascending power.
  // `members_` holds every miner once, grouped by coin in coin order, each
  // group in rank order.
  std::vector<std::uint32_t> rank_;         // ascending-power position
  std::vector<std::uint32_t> members_;
  std::vector<std::uint32_t> start_;        // group c: [start_[c], start_[c+1])
  std::vector<std::uint64_t> visited_;      // stamp of the last rescan
  std::uint64_t stamp_ = 0;

  std::vector<std::uint32_t> class_;        // symmetry_class_ids
  std::size_t num_classes_ = 0;
  // Audit scratch, per (class, home) cell: the round that scanned it and
  // the miner whose facts matched that scan.
  mutable std::vector<std::uint64_t> audit_round_of_;
  mutable std::vector<std::uint32_t> audit_leader_;
  mutable std::vector<CoinId> audit_improving_;
  mutable std::uint64_t audit_round_ = 0;
};

}  // namespace goc::dynamics
