#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

/// \file thread_pool.hpp
/// A fixed-size worker pool for fan-out workloads.
///
/// Two usage modes:
///  * `submit(fn)` — enqueue an arbitrary callable, get a `std::future` back.
///  * `parallel_for(n, fn)` — run `fn(0..n-1)` across the pool and block
///    until done. Indices are handed out in ascending order through a shared
///    atomic cursor, so an idle lane takes whatever index comes next. That
///    balances uneven per-index costs only when the costly indices are not
///    handed out last: a costly index that starts last runs alone while the
///    other lanes idle. A caller that can estimate costs numbers its indices
///    costliest first (`SweepRunner::run` does).
///
/// A pool constructed with zero threads degenerates to inline execution on
/// the calling thread; `parallel_for` then visits indices in order. This is
/// the reference serial path used by determinism tests, so any divergence
/// between 0-thread and N-thread results is a bug in the *tasks* (shared
/// mutable state), never in the schedule.

namespace goc::engine {

class ThreadPool {
 public:
  /// The most workers a pool spawns: 256 lanes with the calling thread.
  /// Every `--threads` value reaches a pool, so this is also the command
  /// line's ceiling.
  static constexpr std::size_t kMaxWorkers = 255;

  /// Spawns `num_threads` workers; 0 means inline (serial) execution.
  /// Throws `std::invalid_argument` before spawning anything when
  /// `num_threads` exceeds `kMaxWorkers`. If a spawn fails, the workers
  /// already spawned are stopped and joined and the `std::system_error` is
  /// rethrown.
  explicit ThreadPool(std::size_t num_threads);

  /// Joins all workers; pending tasks are drained first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const noexcept { return workers_.size(); }

  /// Enqueues `fn`; the future resolves once it has run. In inline mode the
  /// call runs immediately on the calling thread.
  template <typename Fn>
  std::future<std::invoke_result_t<Fn>> submit(Fn&& fn) {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> future = task->get_future();
    if (workers_.empty()) {
      run_inline_task([task] { (*task)(); });
    } else {
      enqueue([task] { (*task)(); });
    }
    return future;
  }

  /// Runs `fn(i)` for every i in [0, count), blocking until all complete.
  /// The calling thread participates, so a 1-thread pool uses two lanes.
  /// Exceptions from `fn` propagate (the first one thrown is rethrown).
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// Chunked variant: runs `fn(begin, end)` over contiguous subranges of
  /// [0, count) of at most `grain` indices each, so per-element work that
  /// is too cheap for one-task-per-index dispatch (a sharded decision-epoch
  /// scan, a big memo fill) pays one dispatch per chunk instead. Chunks are
  /// handed out through the same shared cursor as `parallel_for`; the
  /// inline (0-worker) pool visits them in ascending order. Callers must
  /// not depend on the partition: correctness requires `fn` to be a pure
  /// per-index computation with disjoint writes, exactly the contract that
  /// makes results bit-identical at any thread count.
  void parallel_for_chunks(std::size_t count, std::size_t grain,
                           const std::function<void(std::size_t, std::size_t)>& fn);

  /// `hardware_concurrency` clamped to [1, kMaxWorkers + 1] — the default
  /// lane count for sweeps.
  static std::size_t default_threads();

  /// Resolves a user-facing `--threads` value to a total lane count:
  /// 0 means one lane per hardware thread.
  static std::size_t resolve_lanes(std::size_t threads) {
    return threads == 0 ? default_threads() : threads;
  }

  /// Workers to spawn for `lanes` total concurrent lanes. The calling
  /// thread is itself a lane, so 1 lane means zero workers (the serial
  /// reference path). Every `--threads` consumer shares this convention:
  /// `ThreadPool pool(ThreadPool::workers_for(lanes));`.
  static std::size_t workers_for(std::size_t lanes) {
    return lanes > 1 ? lanes - 1 : 0;
  }

 private:
  /// One queued unit of work plus its enqueue stamp (0 when obs is off),
  /// so the worker that dequeues it can record queue-wait latency.
  struct Task {
    std::function<void()> fn;
    std::uint64_t enqueued_ns = 0;
  };

  void worker_loop();
  /// Wakes every worker to drain the queue and exit, then joins them.
  void stop_and_join();
  /// Out-of-line halves of `submit` — the template above stays free of
  /// metrics includes while these record task counts and latencies.
  void enqueue(std::function<void()> fn);
  void run_inline_task(const std::function<void()>& fn);

  std::vector<std::thread> workers_;
  std::deque<Task> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
};

}  // namespace goc::engine
