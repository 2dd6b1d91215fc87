#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/generators.hpp"
#include "dynamics/learning.hpp"
#include "dynamics/scheduler.hpp"
#include "engine/cancel.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

/// \file sweep.hpp
/// The parallel scenario-sweep engine.
///
/// Every experiment in this repo has the same shape: expand a parameter
/// grid (miners × coins × power shape × reward shape × scheduler × seed)
/// into independent scenarios, run better-response learning on each, and
/// aggregate steps / wall time / equilibrium welfare and security into a
/// table. The engine factors that shape out once, and fans the scenarios
/// across all cores.
///
/// Determinism is the load-bearing property: each task's RNG seed derives
/// from the sweep's root seed and the task's *grid index* alone
/// (splitmix64 mixing), and results are written into a pre-sized slot
/// vector by task position — so a sweep's records are bit-identical
/// whether it ran on one thread or sixty-four, and whether or not a filter
/// pruned neighboring grid points. Benchmark tables cite one root seed and
/// are regenerable anywhere.

namespace goc::engine {

class ThreadPool;  // engine/thread_pool.hpp

/// One fully-resolved scenario: a point of the parameter grid plus a trial
/// replicate, with its derived seeds.
struct SweepTask {
  std::size_t grid_index = 0;  ///< position in the unfiltered grid
  GameSpec game_spec;          ///< axes applied onto the spec template
  SchedulerKind scheduler = SchedulerKind::kRandomMove;
  std::size_t trial = 0;       ///< replicate number within the grid point
  std::uint64_t game_seed = 0;       ///< seeds random_game + random start
  std::uint64_t scheduler_seed = 0;  ///< seeds the scheduler's RNG
};

/// Derives the two per-task seeds from the sweep root seed and the task's
/// grid index (splitmix64; independent of thread count and filtering).
std::uint64_t task_seed(std::uint64_t root_seed, std::size_t grid_index,
                        std::uint64_t stream);

/// A parameter grid. Empty axis vectors fall back to the corresponding
/// value of `base`, so a spec with all axes empty is a single scenario
/// (times `trials`).
struct SweepSpec {
  /// Template for every generated game; per-axis fields are overridden.
  GameSpec base;

  std::vector<std::size_t> miner_counts;
  std::vector<std::size_t> coin_counts;
  std::vector<PowerShape> power_shapes;
  std::vector<RewardShape> reward_shapes;
  std::vector<SchedulerKind> scheduler_kinds;

  /// Replicates per grid point (distinct seeds).
  std::size_t trials = 1;

  /// Root of the per-task seed derivation.
  std::uint64_t root_seed = 2021;

  /// Base learning options for every task (audit may be widened below).
  LearningOptions learning;

  /// Audit the ordinal potential for tasks with at most this many miners;
  /// 0 leaves `learning` untouched. The audit is expensive: every step
  /// checks each miner's best and better responses against an exact scan
  /// (`BestResponseIndex::audit`: one O(|C|) scan per occupied (power
  /// class, home) cell, so O(n·|C|) payoffs at worst) on top of the
  /// O(|C| log |C|) potential key, and that block dominates the E3 wall
  /// time even though its comparisons cross-multiply without a GCD.
  /// `learn.audit_ns` records each audited step's audit block.
  std::size_t audit_max_miners = 0;

  /// Optional predicate: tasks for which it returns false are dropped from
  /// the expansion. Pruning never changes surviving tasks' seeds.
  std::function<bool(const SweepTask&)> filter;

  /// Grid cardinality *before* filtering: product of axis sizes × trials.
  std::size_t grid_size() const;

  /// Throws std::invalid_argument when the spec cannot expand (trials < 1).
  /// `expand` calls it; a command line calls it before its first output.
  void validate() const;

  /// All surviving tasks in grid order (trial is the innermost axis).
  std::vector<SweepTask> expand() const;

  /// True when `audit_max_miners` switches the audit on for `task`.
  bool audits(const SweepTask& task) const;

  /// Positions of `tasks` (an `expand()` result) costliest first, the cost
  /// estimated from each task's shape alone: audited before unaudited,
  /// then more miners, then min-gain (the longest paths); ties keep grid
  /// order. `SweepRunner::run` dispatches in this order.
  std::vector<std::size_t> dispatch_order(
      const std::vector<SweepTask>& tasks) const;
};

/// Per-task outcome. Every field except `wall_ms` is a pure function of the
/// task's seeds, so two runs of the same spec agree on all of them exactly.
struct SweepRecord {
  SweepTask task;

  std::uint64_t steps = 0;
  bool converged = false;

  /// FNV-1a hash of the full move sequence (from LearningResult). Part of
  /// the determinism contract: bit-equality here means the trajectories —
  /// not just the endpoints — coincided, which is how `--compare-scan`
  /// proves the index path picks the exact moves the scan path picks.
  std::uint64_t move_hash = 0;

  /// distributed_reward / total_reward at the final configuration (1.0 at
  /// any equilibrium under Assumption 1 — Observation 3).
  double welfare_efficiency = 0.0;
  /// Jain's fairness index over per-unit revenue.
  double rpu_fairness = 0.0;
  /// Largest single-miner share of any coin's mass (§6 security metric).
  double max_domination_share = 0.0;
  /// Coins with a strict-majority controller.
  std::size_t majority_controlled = 0;
  std::size_t occupied_coins = 0;

  double wall_ms = 0.0;  ///< per-task wall time (nondeterministic)

  /// Field-wise equality over the deterministic fields (ignores wall_ms).
  bool deterministic_equals(const SweepRecord& other) const;
};

/// Aggregate over one grid point's trials, in grid order.
struct SweepPointStats {
  std::size_t miners = 0;
  std::size_t coins = 0;
  PowerShape power_shape = PowerShape::kUniform;
  RewardShape reward_shape = RewardShape::kUniform;
  SchedulerKind scheduler = SchedulerKind::kRandomMove;

  std::size_t trials = 0;
  std::size_t converged = 0;
  /// Keeps all observations: the convergence-tail percentiles are part of
  /// the E3 story, and RunningStats cannot report them.
  Sample steps;
  RunningStats welfare_efficiency;
  RunningStats rpu_fairness;
  RunningStats max_domination_share;
  RunningStats wall_ms;
};

/// The outcome of a sweep: per-task records (task order) plus per-point
/// aggregates, emitted as one per-point table (`to_table()`).
class SweepResult {
 public:
  SweepResult(std::uint64_t root_seed, std::size_t threads,
              std::vector<SweepRecord> records);

  const std::vector<SweepRecord>& records() const noexcept { return records_; }
  const std::vector<SweepPointStats>& points() const noexcept {
    return points_;
  }
  std::uint64_t root_seed() const noexcept { return root_seed_; }
  std::size_t threads() const noexcept { return threads_; }
  double total_wall_ms() const noexcept { return total_wall_ms_; }
  void set_total_wall_ms(double ms) noexcept { total_wall_ms_ = ms; }

  /// True iff every record converged.
  bool all_converged() const noexcept;

  /// Per-point summary table (the paper-style rows).
  Table to_table() const;

  /// Records-level deterministic equality (same tasks, same outcomes).
  bool deterministic_equals(const SweepResult& other) const;

 private:
  std::uint64_t root_seed_;
  std::size_t threads_;
  double total_wall_ms_ = 0.0;
  std::vector<SweepRecord> records_;
  std::vector<SweepPointStats> points_;
};

/// Runs sweeps over a thread pool. The lanes take tasks costliest first
/// (`SweepSpec::dispatch_order`): in grid order the largest tasks come
/// last, and the last one to start would run alone while the other lanes
/// idle. Each record is written into its task's grid-order slot, so the
/// records, like the seeds, do not depend on the dispatch order or on the
/// number of lanes.
class SweepRunner {
 public:
  struct Options {
    /// Total concurrent lanes. 0 = one lane per hardware thread; 1 = the
    /// serial reference path (no worker threads at all). Ignored when
    /// `pool` is set.
    std::size_t threads = 0;
    /// Reuse an existing pool (the serve daemon's warm pool, a batch
    /// engine's) instead of spawning one per sweep. Non-owning; lanes =
    /// pool->num_threads() + 1. nullptr = spawn from `threads`.
    ThreadPool* pool = nullptr;
    /// Cooperative cancellation: polled before every task; a stale view
    /// makes `run` throw `engine::Cancelled`. Default never cancels.
    CancelView cancel{};
  };

  SweepRunner() : SweepRunner(Options{}) {}
  explicit SweepRunner(Options options);

  /// Expands `spec` and runs every task; blocks until the sweep completes.
  SweepResult run(const SweepSpec& spec) const;

  /// Runs one already-expanded task (the engine's inner loop, exposed so
  /// tests can replay a single scenario serially and compare).
  static SweepRecord run_task(const SweepTask& task,
                              const LearningOptions& options);

 private:
  Options options_;
};

}  // namespace goc::engine
