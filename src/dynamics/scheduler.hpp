#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/configuration.hpp"
#include "core/game.hpp"
#include "core/moves.hpp"
#include "util/rng.hpp"

/// \file scheduler.hpp
/// Better-response schedulers.
///
/// The paper's convergence theorem (Theorem 1) and its reward-design
/// mechanism (Section 5) hold for *arbitrary* better-response learning: any
/// rule that, whenever some miner can improve, lets some miner take some
/// improving step. A `Scheduler` is exactly such a rule. The suite below
/// spans the adversarial space used by tests and benches: random,
/// round-robin fairness, greedy (max-gain), anti-greedy (min-gain — the
/// slowest improving path), power-ordered, and fully deterministic
/// lexicographic selection.
///
/// Every scheduler has two equivalent implementations: the scan path
/// (`pick`) recomputes the improvement neighborhood from scratch, and the
/// index path (`pick_indexed`) reads it off a `BestResponseIndex`. The two
/// paths pick the *same move* from the *same state* and consume the RNG
/// identically, so entire trajectories coincide move-for-move — the
/// contract tests/test_best_response_index.cpp enforces for every kind.
/// Both are pure virtual: `run_learning` takes the index path whenever
/// `LearningOptions::use_index` is set, so every subclass implements it.

namespace goc {

namespace dynamics {
class BestResponseIndex;  // dynamics/best_response_index.hpp
}

/// Picks one better-response move per call, or nullopt at an equilibrium.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Scan path: from-scratch reference implementation.
  virtual std::optional<Move> pick(const Game& game, const Configuration& s) = 0;

  /// Index path: reads the improvement neighborhood from `index` (which
  /// must be in sync with `s`). Must pick the exact move `pick` would and
  /// draw the same random variates.
  virtual std::optional<Move> pick_indexed(
      const Game& game, const Configuration& s,
      const dynamics::BestResponseIndex& index) = 0;

  /// Stable identifier for tables/CSV ("random", "max-gain", …).
  virtual std::string name() const = 0;

  /// Re-arms any internal state (round-robin cursor, RNG is *not* reseeded).
  virtual void reset() {}
};

enum class SchedulerKind {
  kRandomMove,      ///< uniform over all improving (miner, coin) moves
  kRandomMiner,     ///< uniform unstable miner, then uniform improving coin
  kRoundRobin,      ///< cyclic miner scan; each takes its best response
  kMaxGain,         ///< globally largest payoff gain (greedy best response)
  kMinGain,         ///< globally smallest positive gain (slowest path)
  kLargestFirst,    ///< heaviest unstable miner moves first (best response)
  kSmallestFirst,   ///< lightest unstable miner moves first (best response)
  kLexicographic,   ///< lowest unstable miner id, lowest improving coin id
};

/// All kinds, for sweep loops.
const std::vector<SchedulerKind>& all_scheduler_kinds();

/// Display name of a kind (matches Scheduler::name()). Returns an interned
/// static, so no call constructs a scheduler or allocates.
const std::string& scheduler_kind_name(SchedulerKind kind);

/// Factory. `seed` feeds the randomized kinds and is ignored by
/// deterministic ones.
std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind,
                                          std::uint64_t seed = 0);

}  // namespace goc
