#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/registry.hpp"

/// \file harness.hpp
/// Shared plumbing of the benchmark: clocks and statistics, harness spans
/// recorded around the library's public entry points, a reader of
/// `obs::Registry` deltas, and the per-run outcome every workload fills.

namespace goc::engine {
struct SweepRecord;  // engine/sweep.hpp
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

/// Median / linear-interpolated quantile of a sample (0 when empty).
double median(std::vector<double> values);
double quantile(std::vector<double> values, double q);

/// Deterministic derived seed: stream `stream` of root `seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Consumes a value out of line so the work producing it is not elided.
void keep(std::uint64_t value);

/// Seed of every set-up's warm-up request: fixed, not derived from --seed,
/// so set-up does the same work in every run.
inline constexpr std::uint64_t kWarmupSeed = 0x5e7u;

/// FNV-1a over every deterministic field of sweep records, in task order
/// (the fields and order the serve daemon hashes a sweep job's outcome by).
std::uint64_t sweep_records_hash(
    const std::vector<goc::engine::SweepRecord>& records);

// ------------------------------------------------------------------ spans

/// One harness span: a named interval with the span that caused it and
/// the id of the unit it covers (batch, replica, task or job).
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;
  std::uint64_t tag = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// In-memory span store; spans are written out once, at exit.
class Tracer {
 public:
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void record(SpanRecord span);

  /// Every span named `name`, in recording order.
  std::vector<SpanRecord> named(const std::string& name) const;
  /// Durations (ms) of every span named `name`.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Per parent span named `parent`: its duration minus the part of it
  /// that its children named `child` cover (ms).
  std::vector<double> self_ms(const std::string& parent,
                              const std::string& child) const;

  /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  void write_json(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::atomic<std::uint64_t> next_id_{0};
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t parent,
             std::uint64_t tag);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const noexcept { return record_.id; }

 private:
  Tracer* tracer_;
  SpanRecord record_;
};

// --------------------------------------------------------- registry delta

/// The difference of two `obs::Registry` snapshots, taken around one pass.
class RegistryDelta {
 public:
  RegistryDelta() : before_(goc::obs::Registry::instance().snapshot()) {}
  void finish() { after_ = goc::obs::Registry::instance().snapshot(); }

  std::uint64_t counter(const std::string& name) const;
  /// Sum over every counter whose name starts with `prefix`.
  std::uint64_t counter_prefix(const std::string& prefix) const;
  std::uint64_t hist_count(const std::string& name) const;
  /// Mean of the samples recorded in the pass, ns → ms (0 when none).
  double hist_mean_ms(const std::string& name) const;

 private:
  goc::obs::Snapshot before_;
  goc::obs::Snapshot after_;
};

// ------------------------------------------------------------ run outcome

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::size_t lanes = 2;
  std::string work_dir;
};

/// What one workload run measured. End-to-end samples come from untraced
/// runs; `layer` holds the traced run's per-layer metrics.
struct Outcome {
  std::vector<double> setup_s;     ///< one per set-up repetition
  double work = 0.0;               ///< work units done in the timed reps
  double work_seconds = 0.0;       ///< wall time of those reps
  std::vector<double> latency_ms;  ///< one per user-visible request
  std::string work_unit;           ///< what one work unit is
  std::string latency_unit;        ///< what one request is
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> layer;
  /// Result hashes of the seed's first rep, compared against pins.txt.
  std::map<std::string, std::uint64_t> hashes;
  /// Spans of the traced pass (trace runs only).
  Tracer tracer;

  void fail(std::uint64_t ops, const std::string& why) {
    failed += ops;
    errors.push_back(why);
  }

  /// Books one timed rep: `units` work units in one request of `seconds`.
  void add_rep(double units, double seconds) {
    work += units;
    work_seconds += seconds;
    latency_ms.push_back(seconds * 1e3);
  }
};

/// Maps the library's own counters (`sim.events.*`, `sim.batch.*`,
/// `engine.pool.*`, `engine.sweep.*`, `enum.*`, `serve.job.*`) over one
/// pass onto the per-layer metric names.
void registry_layers(const RegistryDelta& delta, Outcome& out);

/// Runs `rep()` until `seconds` have passed, at least once.
template <typename Rep>
void timed_reps(double seconds, Rep&& rep) {
  const auto start = Clock::now();
  do {
    rep();
  } while (seconds_since(start) < seconds);
}

/// An untraced run sets up this many times; the median is reported.
inline constexpr std::size_t kSetupReps = 5;

/// Builds a fixture and appends the seconds that took to `out`.
template <typename Make>
auto timed_setup(std::vector<double>& out, Make&& make) {
  const auto start = Clock::now();
  auto fixture = make();
  out.push_back(seconds_since(start));
  return fixture;
}

/// The timed part of an untraced run: `kSetupReps` equal segments of
/// `seconds`, each handed to `segment(segment_seconds)`. Before every
/// segment but the first, a throwaway fixture is set up and timed again, so
/// the set-up samples (the first is the caller's own fixture) come from
/// across the run: the host's speed drifts over seconds, and samples taken
/// back to back would all see one moment of it.
template <typename Make, typename Segment>
void timed_run(double seconds, std::vector<double>& setup_s, Make&& make,
               Segment&& segment) {
  for (std::size_t k = 0; k < kSetupReps; ++k) {
    if (k > 0) timed_setup(setup_s, make);
    segment(seconds / static_cast<double>(kSetupReps));
  }
}

// --------------------------------------------------------------- workloads

void run_chain_mc(const RunConfig& config, Outcome& out);
void run_market_mc(const RunConfig& config, Outcome& out);
void run_e3_sweep(const RunConfig& config, Outcome& out);
void run_serve_mix(const RunConfig& config, Outcome& out);

}  // namespace perfbench
