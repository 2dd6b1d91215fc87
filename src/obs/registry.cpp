#include "obs/registry.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "io/serialize.hpp"

namespace goc::obs {

namespace detail {

namespace {
bool env_enables() noexcept {
  const char* off = std::getenv("GOC_OBS_OFF");
  if (off == nullptr) return true;
  return off[0] == '\0' || std::string_view(off) == "0";
}
}  // namespace

std::atomic<bool> g_enabled{env_enables()};

std::size_t assign_lane_slot() noexcept {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kLaneSlots;
}

}  // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ------------------------------------------------------------- histogram

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    for (const auto& bucket : shard.buckets) {
      total += bucket.load(std::memory_order_relaxed);
    }
  }
  return total;
}

std::uint64_t Histogram::sum() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.sum.load(std::memory_order_relaxed);
  }
  return total;
}

// ------------------------------------------------------------- snapshots

const CounterSnapshot* Snapshot::find_counter(
    const std::string& name) const noexcept {
  for (const CounterSnapshot& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const GaugeSnapshot* Snapshot::find_gauge(
    const std::string& name) const noexcept {
  for (const GaugeSnapshot& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const HistogramSnapshot* Snapshot::find_histogram(
    const std::string& name) const noexcept {
  for (const HistogramSnapshot& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::string Snapshot::to_json(bool compact) const {
  const char* nl = compact ? "" : "\n";
  const char* pad = compact ? "" : "  ";
  std::ostringstream os;
  os << "{" << nl << pad << "\"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    os << (i ? ", " : "") << '"' << io::json_escape(counters[i].name)
       << "\": " << counters[i].value;
  }
  os << "}," << nl << pad << "\"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    os << (i ? ", " : "") << '"' << io::json_escape(gauges[i].name)
       << "\": " << gauges[i].value;
  }
  os << "}," << nl << pad << "\"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    os << (i ? ", " : "") << '"' << io::json_escape(h.name)
       << "\": {\"count\": " << h.count << ", \"sum\": " << h.sum
       << ", \"buckets\": [";
    // Trailing zero buckets carry no information; trim them so a latency
    // histogram is ~30 entries, not 65.
    std::size_t last = h.buckets.size();
    while (last > 0 && h.buckets[last - 1] == 0) --last;
    for (std::size_t b = 0; b < last; ++b) {
      os << (b ? ", " : "") << h.buckets[b];
    }
    os << "]}";
  }
  os << "}" << nl << "}" << (compact ? "" : "\n");
  return os.str();
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; our dotted names map the
/// separators to underscores under a `goc_` namespace prefix.
std::string prometheus_name(const std::string& name) {
  std::string out = "goc_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string Snapshot::to_prometheus() const {
  std::ostringstream os;
  for (const CounterSnapshot& c : counters) {
    const std::string name = prometheus_name(c.name);
    os << "# TYPE " << name << " counter\n"
       << name << " " << c.value << "\n";
  }
  for (const GaugeSnapshot& g : gauges) {
    const std::string name = prometheus_name(g.name);
    os << "# TYPE " << name << " gauge\n" << name << " " << g.value << "\n";
  }
  for (const HistogramSnapshot& h : histograms) {
    const std::string name = prometheus_name(h.name);
    os << "# TYPE " << name << " histogram\n";
    std::uint64_t cumulative = 0;
    std::size_t last = h.buckets.size();
    while (last > 0 && h.buckets[last - 1] == 0) --last;
    for (std::size_t b = 0; b < last; ++b) {
      cumulative += h.buckets[b];
      os << name << "_bucket{le=\"" << Histogram::bucket_bound(b) << "\"} "
         << cumulative << "\n";
    }
    os << name << "_bucket{le=\"+Inf\"} " << h.count << "\n"
       << name << "_sum " << h.sum << "\n"
       << name << "_count " << h.count << "\n";
  }
  return os.str();
}

// -------------------------------------------------------------- registry

struct Registry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry& Registry::instance() noexcept {
  static Registry registry;
  return registry;
}

Registry::Impl& Registry::impl() const noexcept {
  // Leaked on purpose: metric handles are cached by reference in
  // function-local statics all over the engine, so the registry must
  // outlive every other static destructor.
  static Impl* impl = new Impl();
  return *impl;
}

namespace {

template <typename Map>
void check_unregistered(const Map& map, const std::string& name,
                        const char* kind) {
  if (map.find(name) != map.end()) {
    throw std::invalid_argument("metric '" + name +
                                "' is already registered as a " + kind);
  }
}

}  // namespace

Counter& Registry::counter(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  const auto it = i.counters.find(name);
  if (it != i.counters.end()) return *it->second;
  check_unregistered(i.gauges, name, "gauge");
  check_unregistered(i.histograms, name, "histogram");
  return *i.counters.emplace(name, std::make_unique<Counter>(name))
              .first->second;
}

Gauge& Registry::gauge(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  const auto it = i.gauges.find(name);
  if (it != i.gauges.end()) return *it->second;
  check_unregistered(i.counters, name, "counter");
  check_unregistered(i.histograms, name, "histogram");
  return *i.gauges.emplace(name, std::make_unique<Gauge>(name)).first->second;
}

Histogram& Registry::histogram(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  const auto it = i.histograms.find(name);
  if (it != i.histograms.end()) return *it->second;
  check_unregistered(i.counters, name, "counter");
  check_unregistered(i.gauges, name, "gauge");
  return *i.histograms.emplace(name, std::make_unique<Histogram>(name))
              .first->second;
}

Snapshot Registry::snapshot() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  Snapshot snap;
  snap.counters.reserve(i.counters.size());
  for (const auto& [name, counter] : i.counters) {
    snap.counters.push_back(CounterSnapshot{name, counter->total()});
  }
  snap.gauges.reserve(i.gauges.size());
  for (const auto& [name, gauge] : i.gauges) {
    snap.gauges.push_back(GaugeSnapshot{name, gauge->value()});
  }
  snap.histograms.reserve(i.histograms.size());
  for (const auto& [name, histogram] : i.histograms) {
    HistogramSnapshot h;
    h.name = name;
    h.buckets.assign(Histogram::kBuckets, 0);
    for (const Histogram::Shard& shard : histogram->shards_) {
      for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
        h.buckets[b] += shard.buckets[b].load(std::memory_order_relaxed);
      }
      h.sum += shard.sum.load(std::memory_order_relaxed);
    }
    for (const std::uint64_t b : h.buckets) h.count += b;
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

}  // namespace goc::obs
