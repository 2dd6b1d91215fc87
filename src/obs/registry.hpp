#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

/// \file registry.hpp
/// Low-overhead, deterministic-safe process metrics.
///
/// The engine's determinism discipline (bit-identical `values_hash` at any
/// thread count, byte-identical replay) means instrumentation must be
/// strictly out-of-band: no RNG draws, no FP accumulation-order changes, no
/// locks on hot paths. The design:
///
///  * **Handles are process-wide and immortal.** `Registry::instance()`
///    interns one `Counter` / `Gauge` / `Histogram` per name; call sites
///    cache the reference in a function-local static and never look it up
///    again.
///  * **Writes are one relaxed atomic add.** Each metric owns a small
///    array of cache-line-padded slots; a thread picks its slot once (a
///    thread-local lane index, round-robin modulo the slot count) and adds
///    relaxed. Two threads share a slot only past `kLaneSlots` concurrent
///    lanes — still correct, just contended. No hot-path locks anywhere.
///  * **Reads aggregate on snapshot.** `Registry::snapshot()` sums the
///    slots into a point-in-time `Snapshot` that renders to JSON and
///    Prometheus-style text. Snapshots under concurrent writers are
///    *consistent enough for monitoring* (each metric is a sum of relaxed
///    loads), never torn per-slot.
///  * **Off means off.** Setting the `GOC_OBS_OFF` environment variable
///    (or calling `set_enabled(false)`) disables recording at runtime, and
///    every record becomes one relaxed load and a skipped branch. The
///    simulated trajectories are unchanged — the parity tests in
///    tests/test_obs.cpp assert equal `values_hash` with obs on and off.

namespace goc::obs {

namespace detail {

/// Runtime master switch; initialized from the `GOC_OBS_OFF` environment
/// variable at static-init time (zero-initialized false before that, so
/// nothing records during early static construction).
extern std::atomic<bool> g_enabled;

/// Assigns the calling thread's lane slot (round-robin, wraps modulo
/// kLaneSlots). Out-of-line: called once per thread.
std::size_t assign_lane_slot() noexcept;

}  // namespace detail

/// True when metric recording is active.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Runtime toggle (parity tests flip this; `GOC_OBS_OFF` env presets it).
void set_enabled(bool on) noexcept;

/// Monotonic nanoseconds (steady clock) — the time base of every span,
/// stopwatch and latency histogram in the repo.
std::uint64_t now_ns() noexcept;

/// Slots per metric. Concurrency beyond this count shares slots (correct,
/// merely contended); 16 covers every pool size the benches use while
/// keeping a counter at 1 KiB.
inline constexpr std::size_t kLaneSlots = 16;

namespace detail {

/// The calling thread's slot index, assigned on first use.
inline std::size_t lane_slot() noexcept {
  thread_local const std::size_t slot = assign_lane_slot();
  return slot;
}

struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> value{0};
};

}  // namespace detail

/// Monotone event count. `add` is wait-free: one relaxed fetch_add into
/// the calling thread's padded slot.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    if (!enabled()) return;
    slots_[detail::lane_slot()].value.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& slot : slots_) {
      sum += slot.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

  const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
  std::array<detail::PaddedU64, kLaneSlots> slots_;
};

/// Signed level (queue depth, jobs in a state): sharded deltas whose sum
/// is the current value. There is deliberately no `set` — a settable
/// gauge cannot be sharded without locks, and every level this repo
/// tracks is naturally an increment/decrement pair.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void add(std::int64_t delta) noexcept {
    if (!enabled()) return;
    slots_[detail::lane_slot()].value.fetch_add(
        static_cast<std::uint64_t>(delta), std::memory_order_relaxed);
  }
  void sub(std::int64_t delta) noexcept { add(-delta); }

  std::int64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& slot : slots_) {
      sum += slot.value.load(std::memory_order_relaxed);
    }
    return static_cast<std::int64_t>(sum);
  }

  const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
  std::array<detail::PaddedU64, kLaneSlots> slots_;
};

/// Fixed-bucket log2 histogram: bucket 0 counts the value 0, bucket b
/// (b >= 1) counts values in [2^(b-1), 2^b). 65 buckets cover the full
/// u64 range, so there is no configuration, no rescaling, and recording
/// is branch-light: `bit_width` plus two relaxed adds (count bucket and
/// running sum) into the thread's shard.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;
  /// Shards are 66 adjacent atomics (~528 B): threads collide on a shard
  /// only past `kHistShards` lanes, and a shard's interior false sharing
  /// is paid by at most those colliding threads — padding every bucket
  /// would cost 4 KiB per shard for no hot-path win.
  static constexpr std::size_t kHistShards = 8;

  explicit Histogram(std::string name) : name_(std::move(name)) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  static constexpr std::size_t bucket_of(std::uint64_t value) noexcept {
    return static_cast<std::size_t>(std::bit_width(value));
  }
  /// Inclusive upper bound of `bucket` (the Prometheus-style `le` label).
  static constexpr std::uint64_t bucket_bound(std::size_t bucket) noexcept {
    return bucket >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bucket) - 1;
  }

  void record(std::uint64_t value) noexcept {
    if (!enabled()) return;
    Shard& shard = shards_[detail::lane_slot() % kHistShards];
    shard.buckets[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept;
  std::uint64_t sum() const noexcept;

  const std::string& name() const noexcept { return name_; }

 private:
  friend class Registry;
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<std::uint64_t> sum{0};
  };
  std::string name_;
  std::array<Shard, kHistShards> shards_;
};

// ------------------------------------------------------------- snapshots

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  /// Per-bucket counts (Histogram::kBuckets entries, log2 layout).
  std::vector<std::uint64_t> buckets;

  double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// A point-in-time aggregation of every registered metric, name-sorted.
struct Snapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// nullptr when the name is unregistered.
  const CounterSnapshot* find_counter(const std::string& name) const noexcept;
  const GaugeSnapshot* find_gauge(const std::string& name) const noexcept;
  const HistogramSnapshot* find_histogram(
      const std::string& name) const noexcept;

  /// One JSON object: `{"counters": {name: value, ...}, "gauges": {...},
  /// "histograms": {name: {"count": n, "sum": s, "buckets": [...]}}}`.
  /// Empty trailing buckets are trimmed. Compact (single line) when
  /// `compact` — the `--stats-log` JSONL form.
  std::string to_json(bool compact = false) const;

  /// Prometheus-style exposition text: `goc_<name>` lines with dots and
  /// dashes mapped to underscores, histograms as `_count` / `_sum` plus
  /// cumulative `_bucket{le="..."}` series.
  std::string to_prometheus() const;
};

/// The process-wide metric registry. Registration takes a mutex (cold:
/// once per name per process); recording through the returned references
/// never does.
class Registry {
 public:
  static Registry& instance() noexcept;

  /// Interns `name`; same name → same object for the process lifetime.
  /// Throws std::invalid_argument when the name is already registered as
  /// a different metric kind.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  Snapshot snapshot() const;

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const noexcept;
};

}  // namespace goc::obs
