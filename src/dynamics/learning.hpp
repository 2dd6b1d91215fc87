#pragma once

#include <cstdint>

#include "core/configuration.hpp"
#include "core/game.hpp"
#include "dynamics/scheduler.hpp"
#include "dynamics/trace.hpp"

/// \file learning.hpp
/// The better-response learning loop of Section 2/3: repeatedly let the
/// scheduler pick an improving step until no miner has one. Theorem 1
/// guarantees termination for every scheduler; the driver still takes a
/// step cap as a defensive bound (an exceeded cap in a correct build is a
/// bug, and `converged=false` makes it loud).
///
/// The driver owns a `BestResponseIndex` lifecycle: by default every step
/// goes through the index fast path (`Scheduler::pick_indexed`, O(Δ) per
/// step); `use_index = false` selects the from-scratch scan path. The two
/// paths pick identical move sequences — `move_hash` in the result lets
/// callers assert that cheaply, and `audit_potential` cross-checks the
/// index against the reference scans every step.

namespace goc {

struct LearningOptions {
  /// Defensive bound on steps; 2^20 by default (far beyond any observed
  /// trajectory — see EXPERIMENTS.md E3 for measured step counts).
  std::uint64_t max_steps = 1u << 20;

  /// Record the move sequence in the result's trace.
  bool record_moves = false;

  /// Also snapshot every intermediate configuration (implies record_moves).
  bool record_configurations = false;

  /// Verify after every step that the Theorem 1 ordinal potential strictly
  /// increased, that the move satisfied Observations 1–2 and that its gain
  /// equals `move_gain`, and (on the index path) that the
  /// BestResponseIndex agrees fact-for-fact with the from-scratch scans;
  /// throws goc::InvariantError on violation. O(n·|C|) extra per step.
  bool audit_potential = false;

  /// Drive scheduling through the incremental BestResponseIndex (the hot
  /// path). `false` selects the scan-based reference implementation; both
  /// produce the same move sequence.
  bool use_index = true;
};

struct LearningResult {
  Configuration final_configuration;
  std::uint64_t steps = 0;
  bool converged = false;  ///< final configuration is an equilibrium
  Trace trace;             ///< populated per LearningOptions

  /// FNV-1a hash of the move sequence (miner, from, to per step) — always
  /// populated, so scan/index (and serial/parallel) trajectory equality
  /// can be checked without recording moves.
  std::uint64_t move_hash = 0xcbf29ce484222325ULL;
};

/// Runs better-response learning in `game` from `start` under `scheduler`.
LearningResult run_learning(const Game& game, Configuration start,
                            Scheduler& scheduler,
                            const LearningOptions& options = {});

/// Greedy learning to a *relative ε-equilibrium*: repeatedly takes the
/// better response with the globally maximal RELATIVE gain
/// (u_after/u_now − 1) and stops as soon as that maximum is ≤ epsilon — at
/// which point every miner is ε-stable by construction. With epsilon = 0
/// this is exact convergence (the strict-improvement condition coincides).
/// Used to quantify how much of the convergence tail consists of
/// negligible-gain moves (§6 speed question; experiment E7).
LearningResult run_learning_to_epsilon(const Game& game, Configuration start,
                                       const Rational& epsilon,
                                       const LearningOptions& options = {});

}  // namespace goc
