#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "chain/chain_sim.hpp"
#include "engine/cancel.hpp"
#include "market/market_sim.hpp"
#include "market/scenario.hpp"
#include "replay/checkpoint.hpp"
#include "util/table.hpp"

/// \file trajectory.hpp
/// The batched Monte Carlo trajectory engine — layer 2 of the `sim/`
/// subsystem.
///
/// A stochastic simulator run is a *trajectory*; a study is R independent
/// replicas of the same scenario under different seeds, summarized per
/// metric as mean / variance / 95% CI. This layer fans the replicas across
/// `engine::ThreadPool` with the sweep engine's determinism contract:
/// replica r's seed is `engine::task_seed(root_seed, r, ·)` — a pure
/// function of the root seed and the replica index — and every replica
/// writes its metric vector into its own row of the value matrix, so the
/// aggregated `TrajectoryBatchResult` is **bit-identical at any thread
/// count** (aggregation itself runs serially in replica order; no atomics,
/// no completion-order reductions).

namespace goc::engine {
class ThreadPool;  // engine/thread_pool.hpp
}

namespace goc::sim {

/// CI-driven sequential stopping: instead of always running a fixed R,
/// the batch checks at deterministic boundaries and stops at the first one
/// where the 95% CI half-width of `metric` — a running Welford fold over
/// the replica-ordered prefix [0, boundary) — drops to `tolerance`.
///
/// Determinism contract: replica r's seed and value are the same pure
/// function of (root_seed, r) as in the fixed-R path, the boundaries are a
/// pure function of (min_replicas, max_replicas, wave), and the stop check
/// sees only the replica-ordered prefix before its boundary — so the
/// chosen R and every emitted value are bit-identical at any thread count.
struct StoppingRule {
  /// Metric whose CI drives the stop (must be one of the batch's metrics).
  std::string metric;
  /// Target 95% CI half-width. 0 is legal and stops only on zero variance
  /// (otherwise the batch escalates to max_replicas); must be finite and
  /// non-negative.
  double tolerance = 0.0;
  /// Interpret `tolerance` as a fraction of |prefix mean| instead of an
  /// absolute half-width (a zero mean then behaves like tolerance 0).
  bool relative = false;
  /// First stop check happens at this many replicas (>= 2: a CI needs a
  /// variance estimate).
  std::size_t min_replicas = 8;
  /// Hard ceiling: the batch reports StopReason::kMaxReplicas when the
  /// tolerance was never met.
  std::size_t max_replicas = 1024;
  /// Replicas between stop checks. A *fixed* count, never derived from the
  /// lane count — that is what keeps the chosen R thread-invariant. The
  /// checks (decision boundaries) are not execution barriers: a round runs
  /// to the next check or one replica per pool lane, whichever is further,
  /// and the checks it covers are then taken in replica order, discarding
  /// any rows past the chosen R.
  std::size_t wave = 16;
};

/// Why a batch stopped at its final replica count.
enum class StopReason {
  kFixedReplicas,  ///< no stopping rule: the requested R ran exhaustively
  kToleranceMet,   ///< CI half-width reached the tolerance at a wave check
  kMaxReplicas,    ///< rule enabled but the ceiling hit first
};

/// Stable display name ("fixed" / "tolerance" / "max-replicas").
const char* stop_reason_name(StopReason reason) noexcept;

/// One wave-boundary progress report (see
/// `TrajectoryBatchOptions::on_progress`).
struct BatchProgress {
  /// Replicas finished so far (monotone across reports).
  std::size_t completed = 0;
  /// Ceiling the batch may run (fixed R, or the rule's max_replicas).
  std::size_t requested = 0;
  /// 95% CI half-width of the stopping metric over the completed prefix —
  /// the number the adaptive rule compares against its tolerance. 0 for
  /// fixed-R batches (no stopping metric) and before two replicas exist.
  double ci_halfwidth = 0.0;
};

struct TrajectoryBatchOptions {
  /// Fixed replica count when no stopping rule is set; ignored (the rule's
  /// min/max govern) when `stopping` is engaged. Must be >= 1.
  std::size_t replicas = 32;
  /// Root of the per-replica seed derivation (engine::task_seed).
  std::uint64_t root_seed = 2021;
  /// Total concurrent lanes: 0 = one per hardware thread, 1 = serial
  /// reference path. Ignored when `pool` is set.
  std::size_t threads = 0;
  /// Reuse an existing pool (e.g. the sweep engine's) instead of spawning
  /// one per batch.
  engine::ThreadPool* pool = nullptr;
  /// Adaptive sequential stopping; disengaged by default (fixed R).
  std::optional<StoppingRule> stopping;
  /// Scenario identity stamped into checkpoint artifacts. A checkpoint
  /// recorded under one config hash refuses to resume a batch with
  /// another (`replay::ReplayError::kHeaderMismatch`); 0 disables only
  /// this check, never the seed/metric/ceiling checks.
  std::uint64_t config_hash = 0;
  /// Crash-safe checkpointing (path + interval + resume semantics — see
  /// replay/checkpoint.hpp). Disengaged by default. When set, the batch
  /// persists its completed-replica prefix at wave boundaries (atomic
  /// tmp+fsync+rename) and, on start, resumes from an existing artifact:
  /// a batch killed at any point and resumed is byte-identical to an
  /// uninterrupted run — same values, `values_hash`, summaries and (for
  /// adaptive batches) the same chosen R, at any `threads`.
  std::optional<replay::CheckpointOptions> checkpoint;
  /// Cooperative cancellation (engine/cancel.hpp): polled before every
  /// replica and at wave boundaries; a stale view makes the batch throw
  /// `engine::Cancelled` instead of returning a torn result. The default
  /// (no token) never cancels — existing callers are unaffected.
  engine::CancelView cancel;
  /// Wave-boundary progress reports (the serve daemon's `watch` rows).
  /// Called on the batch's calling thread once per decision boundary, in
  /// replica order, after the rows before it are complete —
  /// strictly observational: reports never influence seeds, wave
  /// boundaries, or the stop decision. Default: no reports.
  std::function<void(const BatchProgress&)> on_progress;
  /// Fixed-R batches have no natural wave; when `on_progress` is set (and
  /// no checkpoint interval takes precedence) they report at every
  /// multiple of this many replicas. Like every decision boundary it is
  /// observational only: execution rounds may run past it to fill the
  /// pool, and reports still arrive once per boundary, in order. Adaptive
  /// batches report at their own stop checks and ignore this. Must be >= 1
  /// when a callback is set.
  std::size_t progress_interval = 16;
};

/// Throws std::invalid_argument unless `options` can run: a fixed batch
/// needs replicas >= 1; a stopping rule needs a finite, non-negative
/// tolerance, 2 <= min_replicas <= max_replicas and wave >= 1; a checkpoint
/// needs a path and interval >= 1; a progress callback needs an interval
/// >= 1. `run_trajectory_batch` calls it first; front ends (the serve
/// daemon's `submit`) call it to refuse a bad request before queueing it.
/// Whether the stopping metric names one of the batch's metrics is checked
/// by `run_trajectory_batch`, which knows the names.
void validate(const TrajectoryBatchOptions& options);

/// Per-metric summary over the replicas (normal-approximation CI).
struct MetricSummary {
  std::string name;
  std::size_t replicas = 0;
  double mean = 0.0;
  double variance = 0.0;  ///< sample variance (n−1)
  double stddev = 0.0;
  double ci95_halfwidth = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// The outcome of a Monte Carlo batch: the replica×metric value matrix
/// (replica-major) plus per-metric summaries computed in replica order.
/// Adaptive batches additionally record provenance: how many replicas the
/// rule would have allowed (`replicas_requested` = max_replicas) vs how
/// many actually ran, and why the batch stopped.
class TrajectoryBatchResult {
 public:
  /// `replicas_requested` defaults to `replicas` (fixed-R batches request
  /// exactly what they run); pass 0 for the same effect.
  TrajectoryBatchResult(std::vector<std::string> metric_names,
                        std::size_t replicas, std::vector<double> values,
                        std::uint64_t root_seed,
                        std::size_t replicas_requested = 0,
                        StopReason stop_reason = StopReason::kFixedReplicas);

  const std::vector<std::string>& metric_names() const noexcept {
    return names_;
  }
  std::size_t replicas() const noexcept { return replicas_; }
  std::size_t metrics() const noexcept { return names_.size(); }
  std::uint64_t root_seed() const noexcept { return root_seed_; }
  /// Ceiling the batch was allowed (fixed R, or the rule's max_replicas).
  std::size_t replicas_requested() const noexcept {
    return replicas_requested_;
  }
  StopReason stop_reason() const noexcept { return stop_reason_; }

  double value(std::size_t replica, std::size_t metric) const {
    return values_[replica * names_.size() + metric];
  }
  const std::vector<MetricSummary>& summaries() const noexcept {
    return summaries_;
  }
  const MetricSummary& summary(const std::string& name) const;

  /// FNV-1a over the raw bit patterns of the value matrix (replica-major):
  /// one number that equals iff every replica's every metric is bit-equal.
  std::uint64_t values_hash() const noexcept;

  /// metric | mean | ±ci95 | sd | min | max | n rows.
  Table to_table(int precision = 4) const;

  /// Bitwise equality of names, replica count and the full value matrix —
  /// the thread-invariance contract check.
  bool deterministic_equals(const TrajectoryBatchResult& other) const;

 private:
  std::vector<std::string> names_;
  std::size_t replicas_;
  std::uint64_t root_seed_;
  std::size_t replicas_requested_;
  StopReason stop_reason_;
  std::vector<double> values_;  ///< replicas × metrics, replica-major
  std::vector<MetricSummary> summaries_;
};

/// Runs `replica(r, seed)` for r in [0, replicas) across the pool; the
/// callback must return one value per metric name (checked). Replicas must
/// not share mutable state — slot writes make determinism the engine's
/// job, independence stays the caller's contract.
TrajectoryBatchResult run_trajectory_batch(
    std::vector<std::string> metric_names,
    const TrajectoryBatchOptions& options,
    const std::function<std::vector<double>(std::size_t replica,
                                            std::uint64_t seed)>& replica);

// ------------------------------------------------------- simulator adapters

/// Metric names of `run_chain_batch` rows.
const std::vector<std::string>& chain_batch_metrics();

/// One `chain_batch_metrics()` row from a finished chain run. The batch
/// adapter and the golden-replay recorder (replay/golden.hpp) share this
/// so a recorded row is bit-identical to what a batch would aggregate.
std::vector<double> chain_replica_metrics(const chain::ChainSimResult& result);

/// Batched chain studies: `make_replica(seed)` builds a fresh simulator
/// (chain specs, options and RNG seeded from `seed`); each replica runs it
/// and reports {blocks_total, blocks_share_chain0, migrations, share_mae,
/// reward_total_fiat}.
TrajectoryBatchResult run_chain_batch(
    const std::function<chain::MultiChainSimulator(std::uint64_t seed)>&
        make_replica,
    const TrajectoryBatchOptions& options);

/// Metric names of `run_market_batch` rows.
const std::vector<std::string>& market_batch_metrics();

/// One `market_batch_metrics()` row from a finished market run (same
/// sharing contract as `chain_replica_metrics`).
std::vector<double> market_replica_metrics(
    const std::vector<market::EpochRecord>& records);

/// Batched market studies: each replica runs `make_replica(seed)` and
/// reports {mean_share_coin0, final_share_coin0, equilibrium_fraction,
/// br_steps_total, final_price_coin0}.
TrajectoryBatchResult run_market_batch(
    const std::function<market::MarketSimulator(std::uint64_t seed)>&
        make_replica,
    const TrajectoryBatchOptions& options);

/// Scenario-prototype convenience: each replica is
/// `scenario.make_simulator(seed)` (coins deep-cloned per replica, seeds
/// from the batch's derivation) — no hand-written factory needed.
TrajectoryBatchResult run_market_batch(const market::Scenario& scenario,
                                       const TrajectoryBatchOptions& options);

// ------------------------------------------------------- trajectory hashes

/// FNV-1a over every deterministic field of a chain result (counters plus
/// raw double bits, timeline included) — bit-equality of two hashes means
/// the *trajectories*, not just the endpoints, coincided. The test pins
/// and the golden recordings compare runs through it.
/// `share_prediction_mae` is left out: the golden format was recorded
/// without it.
std::uint64_t chain_result_hash(const chain::ChainSimResult& result) noexcept;

/// Same contract for the market simulator's epoch records.
std::uint64_t market_records_hash(
    const std::vector<market::EpochRecord>& records) noexcept;

}  // namespace goc::sim
