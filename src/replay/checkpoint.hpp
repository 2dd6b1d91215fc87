#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "replay/replay.hpp"

/// \file checkpoint.hpp
/// Crash-safe trajectory-batch checkpoints.
///
/// A Monte Carlo batch's replica rows are pure functions of
/// `(root_seed, replica)` and the aggregation runs in replica order, so
/// the *entire* recoverable state of a batch is its completed-row prefix.
/// A checkpoint persists exactly that — header (seed, scenario config
/// hash, metric names, requested ceiling, adaptive flag), one frame per
/// completed replica row, the prefix-Welford state per metric, and a
/// footer with the prefix `values_hash` — in the CRC32-framed format of
/// replay.hpp, rewritten atomically at every wave boundary.
///
/// Resume contract (`sim::run_trajectory_batch`): loading a checkpoint
/// skips the completed prefix and re-enters the wave loop at the same
/// boundaries; because waves, seeds and stop checks are pure functions of
/// the prefix, the resumed batch is **byte-identical** to an
/// uninterrupted run — same means, variances, `values_hash` and (for
/// adaptive batches) the same chosen R, at any `--threads`. A corrupted
/// checkpoint salvages its longest valid row prefix (losing at most one
/// wave); a checkpoint whose header does not match the live batch throws
/// `ReplayError::kHeaderMismatch` rather than silently mixing scenarios.

namespace goc::replay {

/// Checkpointing knobs for `sim::TrajectoryBatchOptions`.
struct CheckpointOptions {
  /// Artifact path; written atomically (tmp + fsync + rename).
  std::string path;
  /// Fixed-R batches persist at every multiple of `interval` (and at R);
  /// adaptive batches persist at every stop-check boundary and ignore it.
  /// These are decision boundaries, not execution barriers: the batch may
  /// run replicas past one to keep the pool busy, yet each write holds
  /// exactly the rows before its boundary, so the files are the same at
  /// any lane count. Must be >= 1.
  std::size_t interval = 16;
  /// Load `path` (salvaging if damaged) and skip its completed prefix
  /// when the file exists; false overwrites unconditionally.
  bool resume = true;
  /// Test/observability hook, called on the batch's serial control thread
  /// after each successful checkpoint write with the completed-replica
  /// count — the fault-injection harness raises SIGKILL in here.
  std::function<void(std::size_t completed)> on_write;
};

/// Per-metric prefix-Welford state (count travels in the checkpoint's
/// `completed`). Mean/m2 are byte-exact recomputable from the rows; only
/// strict-mode `BatchCheckpoint::from_bytes` reads the stored copy, to
/// cross-check it bit for bit (salvage mode ignores it).
struct WelfordState {
  double mean = 0.0;
  double m2 = 0.0;
};

/// The in-memory image of a batch checkpoint.
struct BatchCheckpoint {
  std::uint64_t root_seed = 0;
  /// Caller-supplied scenario identity (`TrajectoryBatchOptions::
  /// config_hash`); 0 means "unchecked".
  std::uint64_t config_hash = 0;
  std::vector<std::string> metric_names;
  /// Replica ceiling (fixed R, or the stopping rule's max_replicas).
  std::size_t replicas_requested = 0;
  /// Whether a stopping rule governs the batch (a fixed-R checkpoint must
  /// not resume an adaptive batch or vice versa).
  bool adaptive = false;
  /// Completed-row prefix length.
  std::size_t completed = 0;
  /// completed × metric_names.size(), replica-major.
  std::vector<double> values;

  /// Prefix-Welford state over `values`, in replica order (recomputed,
  /// not cached — byte-exact by construction).
  std::vector<WelfordState> welford() const;

  /// FNV-1a over the raw bits of `values` (the prefix `values_hash`).
  std::uint64_t values_hash() const noexcept;

  /// Serializes to a complete artifact image.
  std::string to_bytes() const;

  /// Atomic write of `to_bytes()` to `path`.
  void save(const std::string& path) const;

  /// Parses an artifact image. Strict mode (`salvage == false`) throws a
  /// typed `ReplayException` on any defect, including rows that disagree
  /// with the stored Welford state or footer hash. Salvage mode keeps the
  /// longest contiguous valid row prefix (frames after the first defect —
  /// and any row frame out of sequence — are dropped) and ignores a
  /// missing or stale Welford/footer; it still throws on bad magic,
  /// version mismatch, or a damaged header frame, because an artifact
  /// without a trusted header cannot be bound to a scenario.
  static BatchCheckpoint from_bytes(std::string_view bytes, bool salvage);

  /// `from_bytes(read_file_bytes(path), salvage)`.
  static BatchCheckpoint load(const std::string& path, bool salvage);
};

}  // namespace goc::replay
