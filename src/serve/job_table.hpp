#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/cancel.hpp"

/// \file job_table.hpp
/// The serve daemon's asynchronous job table.
///
/// Every submitted request becomes a *job*: a closure run on a dedicated
/// driver thread (which fans its inner work onto the daemon's shared
/// `engine::ThreadPool` — driver threads never run pool work themselves,
/// so nested `parallel_for` can never deadlock the pool). The table owns
/// the job lifecycle:
///
///   queued → running → done | failed | cancelled
///
/// Completed results are retained until fetched (`fetch` hands the outcome
/// over exactly once and erases the entry), so a client may poll `status`
/// at leisure and collect the payload later. Cancellation rides the
/// engines' cooperative-cancel token (engine/cancel.hpp): `cancel` bumps
/// the job's `CancelToken` generation, the engines poll their `CancelView`
/// at replica / task / shard boundaries, and the work unwinds with
/// `engine::Cancelled`. The job is marked cancelled *immediately* — the
/// client's `cancel` returns promptly even while the work is still
/// draining its current replica.

namespace goc::serve {

enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };

/// Stable display name ("queued" / "running" / "done" / "failed" /
/// "cancelled").
const char* job_state_name(JobState state) noexcept;

/// True for the states a job can no longer leave.
bool job_state_terminal(JobState state) noexcept;

/// What a finished job hands back: the JSON payload (the same
/// `io::table_to_json` document the bench binaries emit with `--json`),
/// the deterministic result hash, and a short human-readable summary for
/// the protocol's ok-line.
struct JobOutcome {
  std::string json;
  std::uint64_t values_hash = 0;
  std::string summary;
};

/// Live progress a job's work reports through its `ProgressFn` (for a
/// batch job these are `sim::BatchProgress` wave boundaries). `total == 0`
/// means the work has not reported yet.
struct JobProgress {
  std::uint64_t done = 0;
  std::uint64_t total = 0;
  /// CI half-width of the stopping metric at the last report (0 when the
  /// job has no adaptive stopping).
  double ci_halfwidth = 0.0;
};

/// A point-in-time snapshot of one job's lifecycle.
struct JobStatus {
  std::uint64_t id = 0;
  std::string kind;
  JobState state = JobState::kQueued;
  /// Failure detail (`what()` of the escaped exception) for kFailed.
  std::string detail;
  /// Last progress report (zeros until the work reports).
  JobProgress progress;
  /// Milliseconds the work has been (or was) running; 0 while queued.
  std::uint64_t elapsed_ms = 0;
};

/// Thread-safe job registry: submit / status / list / cancel / fetch.
/// Safe to drive from multiple client threads (the TCP listener and the
/// stdin loop may share one table).
class JobTable {
 public:
  /// Sink the work calls (from its own driver thread) whenever it has a
  /// fresh progress report; the table folds it into the job's status.
  using ProgressFn = std::function<void(const JobProgress&)>;

  /// Job body: runs on the driver thread, polls `cancel` cooperatively,
  /// reports progress through `progress` (calling it is optional), and
  /// returns the outcome. Throwing `engine::Cancelled` marks the job
  /// cancelled; any other exception marks it failed with `what()`.
  using Work = std::function<JobOutcome(const engine::CancelView& cancel,
                                        const ProgressFn& progress)>;

  JobTable() = default;
  ~JobTable() { shutdown(); }

  JobTable(const JobTable&) = delete;
  JobTable& operator=(const JobTable&) = delete;

  /// Registers the job and starts its driver thread; returns the id
  /// (monotonic from 1).
  std::uint64_t submit(std::string kind, Work work);

  /// Snapshot of one job, or nullopt for an unknown (or already fetched)
  /// id.
  std::optional<JobStatus> status(std::uint64_t id) const;

  /// Snapshots of all live jobs, in id order.
  std::vector<JobStatus> list() const;

  /// Requests cancellation: marks the job cancelled and invalidates its
  /// token so the engines unwind at their next poll. Returns false when
  /// the id is unknown or the job already reached a terminal state.
  /// Returns promptly — it never waits for the work to drain.
  bool cancel(std::uint64_t id);

  /// A fetched job: its final status plus (for kDone) the outcome.
  struct Fetched {
    JobStatus status;
    JobOutcome outcome;
  };

  /// Collects a job's result. Unknown id → nullopt. Non-terminal job with
  /// `wait == false` → a snapshot (entry retained, outcome empty) so the
  /// caller can report "still running". Otherwise blocks until the job is
  /// terminal *and* its driver thread has drained (a cancelled job's work
  /// may still be unwinding), joins the driver, erases the entry, and
  /// returns the final status + outcome. Each result is handed out once.
  std::optional<Fetched> fetch(std::uint64_t id, bool wait);

  /// Number of live (unfetched) jobs.
  std::size_t size() const;

  /// Cancels everything and joins all drivers; the table ends empty.
  /// Idempotent; called by the destructor.
  void shutdown();

 private:
  struct Job {
    std::uint64_t id = 0;
    std::string kind;
    JobState state = JobState::kQueued;
    std::string detail;
    JobOutcome outcome;
    JobProgress progress;
    engine::CancelToken token;
    std::thread driver;
    /// Set (under the table mutex) as the driver's last action; `fetch`
    /// may only join once this is true.
    bool driver_done = false;
    /// Lifecycle stamps (obs::now_ns time base; 0 = not reached). These
    /// feed `elapsed_ms` and the serve latency histograms.
    std::uint64_t submitted_ns = 0;
    std::uint64_t started_ns = 0;
    std::uint64_t cancel_requested_ns = 0;
    std::uint64_t finished_ns = 0;
  };

  JobStatus snapshot_locked(const Job& job) const;
  void run_driver(const std::shared_ptr<Job>& job, const Work& work);

  mutable std::mutex mutex_;
  std::condition_variable done_cv_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
};

}  // namespace goc::serve
