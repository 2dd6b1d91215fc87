#include "engine/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <string>

#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace goc::engine {

namespace {

/// Handles interned once per process; every hot-path record below is a
/// single relaxed atomic add through these references.
struct PoolMetrics {
  obs::Counter& tasks;
  obs::Gauge& queue_depth;
  obs::Histogram& task_wait_ns;
  obs::Histogram& task_run_ns;
  obs::Counter& parallel_for_calls;
  obs::Counter& parallel_for_items;

  static PoolMetrics& get() {
    static PoolMetrics m{
        obs::Registry::instance().counter("engine.pool.tasks"),
        obs::Registry::instance().gauge("engine.pool.queue_depth"),
        obs::Registry::instance().histogram("engine.pool.task_wait_ns"),
        obs::Registry::instance().histogram("engine.pool.task_run_ns"),
        obs::Registry::instance().counter("engine.pool.parallel_for_calls"),
        obs::Registry::instance().counter("engine.pool.parallel_for_items"),
    };
    return m;
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads > kMaxWorkers) {
    throw std::invalid_argument(
        "a thread pool takes at most " + std::to_string(kMaxWorkers) +
        " workers (--threads up to " + std::to_string(kMaxWorkers + 1) +
        "), got " + std::to_string(num_threads));
  }
  workers_.reserve(num_threads);
  try {
    for (std::size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // A spawn failed part-way (std::system_error): the workers already
    // running are joinable, and unwinding past them would terminate.
    stop_and_join();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::enqueue(std::function<void()> fn) {
  PoolMetrics& metrics = PoolMetrics::get();
  metrics.tasks.add();
  metrics.queue_depth.add(1);
  Task task;
  task.fn = std::move(fn);
  task.enqueued_ns = obs::enabled() ? obs::now_ns() : 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::run_inline_task(const std::function<void()>& fn) {
  PoolMetrics& metrics = PoolMetrics::get();
  metrics.tasks.add();
  obs::Span run(metrics.task_run_ns);
  fn();
}

void ThreadPool::worker_loop() {
  PoolMetrics& metrics = PoolMetrics::get();
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    metrics.queue_depth.sub(1);
    if (task.enqueued_ns != 0) {
      metrics.task_wait_ns.record(obs::now_ns() - task.enqueued_ns);
    }
    obs::Span run(metrics.task_run_ns);
    task.fn();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  PoolMetrics& metrics = PoolMetrics::get();
  metrics.parallel_for_calls.add();
  metrics.parallel_for_items.add(count);
  if (workers_.empty()) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  // Shared cursor: every lane (workers + the calling thread) pulls the next
  // unclaimed index until the range is exhausted.
  auto cursor = std::make_shared<std::atomic<std::size_t>>(0);
  auto first_error = std::make_shared<std::atomic<bool>>(false);
  auto error = std::make_shared<std::exception_ptr>();
  auto error_mutex = std::make_shared<std::mutex>();

  const auto drain = [cursor, count, &fn, first_error, error, error_mutex] {
    for (;;) {
      const std::size_t i = cursor->fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      if (first_error->load(std::memory_order_relaxed)) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(*error_mutex);
        if (!first_error->exchange(true)) *error = std::current_exception();
      }
    }
  };

  std::vector<std::future<void>> lanes;
  lanes.reserve(workers_.size());
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    lanes.push_back(submit(drain));
  }
  drain();  // the calling thread is a lane too
  for (auto& lane : lanes) lane.get();

  if (first_error->load()) std::rethrow_exception(*error);
}

void ThreadPool::parallel_for_chunks(
    std::size_t count, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t chunks = (count + grain - 1) / grain;
  if (chunks <= 1) {
    fn(0, count);
    return;
  }
  const auto run_chunk = [&](std::size_t c) {
    fn(c * grain, std::min(count, (c + 1) * grain));
  };
  if (workers_.empty()) {
    for (std::size_t c = 0; c < chunks; ++c) run_chunk(c);
    return;
  }
  parallel_for(chunks, run_chunk);
}

std::size_t ThreadPool::default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, kMaxWorkers + 1);
}

}  // namespace goc::engine
