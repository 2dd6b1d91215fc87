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
/// payoffs: O(n·|C|) full payoff evaluations per step.
/// But a move only changes the masses of its two coins, so after p moves
/// a → b:
///
///  * a miner on a or b (including p) saw its *own* payoff change — full
///    O(|C|) rescan with the `MoveComparator` fast path;
///  * a miner whose cached best response is b saw that target worsen —
///    full rescan (the runner-up is unknown);
///  * every other miner's payoff landscape changed only at coins a and b:
///    b got heavier (strictly worse — it can never newly win), a got
///    lighter (it can newly beat the cached best, and the tie-break toward
///    lower coin ids decides exact ties) — O(1) comparisons.
///
/// The index maintains, under that dirty-coin invalidation rule, each
/// miner's best response and the set of unstable miners, plus each miner's
/// improving-coin bitmask and count (so samplers can pick uniform moves
/// without materializing them). A learning step costs O(n) cheap `i128`
/// comparisons plus O(|C|) per *dirty* miner instead of O(n·|C|) exact
/// payoffs — and every ordering decision is exact, so schedulers
/// built on the index pick bit-identical move sequences to the reference
/// scans (tests/test_best_response_index.cpp proves it move-for-move;
/// `LearningOptions::audit_potential` cross-checks it at runtime).
///
/// Gains are cached lazily: a rescan invalidates the stored `Rational`
/// gain and it is recomputed only when actually read (Move construction,
/// max-gain scheduling) or filled by an `audit` that scanned it anyway,
/// keeping rescans free of rational arithmetic.

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
  /// preallocated strip (bitmask rows, gains, the unstable set's capacity)
  /// and the comparator are reused, so a reweight allocates nothing. The
  /// comparator's integer-mode flag is re-derived (new rewards may enter
  /// or leave the raw-i128 fast path).
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

  /// The gain of p's best response; p must be unstable. Lazily computed
  /// and cached; exact (same `Rational` as `move_gain`).
  const Rational& best_gain(MinerId p) const;

  /// p's best-response move, or nullopt when stable.
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

  /// Exact gain of moving p to improving coin `c` (fresh `Rational`).
  Rational gain_of(MinerId p, CoinId c) const;

  /// The full Move record for p moving to improving coin `c`.
  Move move_to(MinerId p, CoinId c) const;

  /// Cross-checks every cached fact against one `scan_moves` per miner
  /// (core/moves.*); throws goc::InvariantError on any mismatch. O(n·|C|)
  /// exact comparisons of unreduced payoffs and one reduced gain per
  /// unstable miner — the audit path, wired to
  /// `LearningOptions::audit_potential`. A valid cached gain is checked
  /// against the scan's; a stale one is filled with it (the value
  /// `best_gain` would cache).
  void audit() const;

 private:
  void rebuild();
  void apply_delta(const MoveDelta& delta);
  void rescan(MinerId q);
  void update_spectator(MinerId q, CoinId lighter, CoinId heavier);
  void set_stability(MinerId q, bool unstable_now);
  bool improving_bit(MinerId q, CoinId c) const;
  void write_improving_bit(MinerId q, CoinId c, bool value);

  const Game* game_;
  const Configuration* tracked_;
  MoveComparator cmp_;
  std::uint64_t epoch_ = 0;
  bool unrestricted_;

  std::vector<std::int32_t> best_;          // -1 = stable, else coin id
  mutable std::vector<Rational> gain_;      // lazily cached best-move gain
  mutable std::vector<std::uint8_t> gain_valid_;
  std::vector<std::uint32_t> count_;        // improving coins per miner
  std::vector<std::uint64_t> improving_;    // bitmask rows, stride_ words
  std::size_t stride_ = 1;
  std::vector<MinerId> unstable_;           // sorted by miner id
  std::vector<std::uint8_t> unstable_flag_;
  std::size_t total_improving_ = 0;
};

}  // namespace goc::dynamics
