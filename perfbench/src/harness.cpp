#include "harness.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "engine/sweep.hpp"
#include "util/fnv.hpp"

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return goc::engine::task_seed(seed, static_cast<std::size_t>(stream), 0xbe7c);
}

void keep(std::uint64_t value) {
  static std::atomic<std::uint64_t> sink{0};
  sink.store(value, std::memory_order_relaxed);
}

std::uint64_t sweep_records_hash(
    const std::vector<goc::engine::SweepRecord>& records) {
  using goc::fnv::mix_bytes;
  std::uint64_t h = goc::fnv::kOffset;
  for (const goc::engine::SweepRecord& r : records) {
    mix_bytes(h, static_cast<std::uint64_t>(r.task.grid_index));
    mix_bytes(h, r.steps);
    mix_bytes(h, r.move_hash);
    mix_bytes(h, r.converged ? std::uint64_t{1} : std::uint64_t{0});
    mix_bytes(h, r.welfare_efficiency);
    mix_bytes(h, r.rpu_fairness);
    mix_bytes(h, r.max_domination_share);
    mix_bytes(h, static_cast<std::uint64_t>(r.majority_controlled));
    mix_bytes(h, static_cast<std::uint64_t>(r.occupied_coins));
  }
  return h;
}

// ------------------------------------------------------------------ spans

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t number = next.fetch_add(1);
  return number;
}

}  // namespace

void Tracer::record(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::named(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRecord> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) out.push_back(s);
  }
  return out;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& s : named(name)) out.push_back(s.ms());
  return out;
}

std::vector<double> Tracer::self_ms(const std::string& parent,
                                    const std::string& child) const {
  const std::vector<SpanRecord> parents = named(parent);
  const std::vector<SpanRecord> children = named(child);
  std::vector<double> out;
  for (const SpanRecord& p : parents) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
    for (const SpanRecord& c : children) {
      if (c.parent != p.id) continue;
      covered.emplace_back(std::max(c.start_ns, p.start_ns),
                           std::min(c.end_ns, p.end_ns));
    }
    std::sort(covered.begin(), covered.end());
    std::uint64_t busy = 0;
    std::uint64_t reach = p.start_ns;
    for (const auto& [begin, end] : covered) {
      const std::uint64_t from = std::max(begin, reach);
      if (end > from) {
        busy += end - from;
        reach = end;
      }
    }
    out.push_back(static_cast<double>(p.end_ns - p.start_ns - busy) / 1e6);
  }
  return out;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t origin =
      spans_.empty() ? 0
                     : std::min_element(spans_.begin(), spans_.end(),
                                        [](const auto& a, const auto& b) {
                                          return a.start_ns < b.start_ns;
                                        })
                           ->start_ns;
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    os << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1"
       << ", \"tid\": " << s.thread
       << ", \"ts\": " << static_cast<double>(s.start_ns - origin) / 1e3
       << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
       << ", \"tag\": " << s.tag << "}}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, std::uint64_t parent,
                       std::uint64_t tag)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  record_.id = tracer_->next_id();
  record_.parent = parent;
  record_.name = name;
  record_.tag = tag;
  record_.thread = thread_number();
  record_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  record_.end_ns = now_ns();
  tracer_->record(std::move(record_));
}

// --------------------------------------------------------- registry delta

namespace {

template <typename Item>
const Item* find_in(const std::vector<Item>& items, const std::string& name) {
  for (const Item& item : items) {
    if (item.name == name) return &item;
  }
  return nullptr;
}

}  // namespace

std::uint64_t RegistryDelta::counter(const std::string& name) const {
  const auto* after = find_in(after_.counters, name);
  const auto* before = find_in(before_.counters, name);
  return (after ? after->value : 0) - (before ? before->value : 0);
}

std::uint64_t RegistryDelta::counter_prefix(const std::string& prefix) const {
  std::uint64_t total = 0;
  for (const auto& c : after_.counters) {
    if (c.name.rfind(prefix, 0) == 0) total += counter(c.name);
  }
  return total;
}

std::uint64_t RegistryDelta::hist_count(const std::string& name) const {
  const auto* after = find_in(after_.histograms, name);
  const auto* before = find_in(before_.histograms, name);
  return (after ? after->count : 0) - (before ? before->count : 0);
}

double RegistryDelta::hist_mean_ms(const std::string& name) const {
  const auto* after = find_in(after_.histograms, name);
  const auto* before = find_in(before_.histograms, name);
  const std::uint64_t count =
      (after ? after->count : 0) - (before ? before->count : 0);
  const std::uint64_t sum = (after ? after->sum : 0) - (before ? before->sum : 0);
  return count == 0 ? 0.0
                    : static_cast<double>(sum) / static_cast<double>(count) / 1e6;
}

void registry_layers(const RegistryDelta& delta, Outcome& out) {
  auto& layer = out.layer;
  const auto dispatched =
      static_cast<double>(delta.counter_prefix("sim.events.dispatched."));
  const auto stale =
      static_cast<double>(delta.counter("sim.events.stale_dropped"));
  layer["sim.events"] = dispatched;
  layer["sim.stale_ratio"] =
      dispatched + stale > 0 ? stale / (dispatched + stale) : 0.0;
  layer["batch.waves"] = static_cast<double>(delta.hist_count("sim.batch.wave_ns"));
  layer["batch.replicas_run"] =
      static_cast<double>(delta.counter("sim.batch.replicas_run"));
  layer["batch.wave_ms"] = delta.hist_mean_ms("sim.batch.wave_ns");
  layer["replay.checkpoint_write_ms"] =
      delta.hist_mean_ms("sim.batch.checkpoint_write_ns");
  layer["pool.tasks"] = static_cast<double>(delta.counter("engine.pool.tasks"));
  layer["pool.task_wait_ms"] = delta.hist_mean_ms("engine.pool.task_wait_ns");
  layer["sweep.tasks"] = static_cast<double>(delta.counter("engine.sweep.tasks"));
  layer["enum.shards"] = static_cast<double>(delta.counter("enum.shards_walked"));
  layer["enum.shard_walk_ms"] = delta.hist_mean_ms("enum.shard_walk_ns");
  layer["serve.queue_wait_ms"] = delta.hist_mean_ms("serve.job.queue_wait_ns");
}

}  // namespace perfbench
