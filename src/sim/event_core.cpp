#include "sim/event_core.hpp"

#include "obs/registry.hpp"

namespace goc::sim {

namespace {

/// Per-event-type dispatch/invalidation counters, interned once. This is
/// THE hottest seam in the repo (one `pop` per simulated event), so the
/// cost budget is exactly one relaxed add per live pop and one per stale
/// drop — handle lookup happens only at static init.
struct EventMetrics {
  std::array<obs::Counter*, kNumEventTypes> dispatched;
  std::array<obs::Counter*, kNumEventTypes> invalidated;
  obs::Counter& stale_dropped;

  static EventMetrics& get() {
    static EventMetrics m = [] {
      auto& reg = obs::Registry::instance();
      static constexpr const char* kTypeNames[kNumEventTypes] = {
          "block_found", "decision_epoch"};
      EventMetrics out{{}, {}, reg.counter("sim.events.stale_dropped")};
      for (std::size_t t = 0; t < kNumEventTypes; ++t) {
        out.dispatched[t] = &reg.counter(std::string("sim.events.dispatched.") +
                                         kTypeNames[t]);
        out.invalidated[t] = &reg.counter(
            std::string("sim.events.invalidated.") + kTypeNames[t]);
      }
      return out;
    }();
    return m;
  }
};

}  // namespace

void EventCore::declare_streams(EventType type, std::size_t count) {
  auto& gens = generations_[static_cast<std::size_t>(type)];
  gens.assign(count, 0);
}

void EventCore::schedule(double time, EventType type, std::uint32_t subject) {
  GOC_CHECK_ARG(time >= now_, "cannot schedule events in the past");
  const auto& gens = generations_[static_cast<std::size_t>(type)];
  GOC_CHECK_ARG(subject < gens.size(), "undeclared event stream");
  heap_.push_back(Event{time, next_seq_++, subject, gens[subject], type});
  sift_up(heap_.size() - 1);
}

void EventCore::invalidate(EventType type, std::uint32_t subject) {
  auto& gens = generations_[static_cast<std::size_t>(type)];
  GOC_CHECK_ARG(subject < gens.size(), "undeclared event stream");
  ++gens[subject];
  EventMetrics::get().invalidated[static_cast<std::size_t>(type)]->add();
}

bool EventCore::pop_until(Event& out, double t_end) {
  GOC_CHECK_ARG(t_end >= now_, "cannot run backwards");
  EventMetrics& metrics = EventMetrics::get();
  while (!heap_.empty() && heap_.front().time <= t_end) {
    pop_raw(out);
    if (is_stale(out)) {
      metrics.stale_dropped.add();
      continue;  // dropped inside the window
    }
    now_ = out.time;
    metrics.dispatched[static_cast<std::size_t>(out.type)]->add();
    return true;
  }
  now_ = t_end;
  return false;
}

void EventCore::reset(double now) {
  heap_.clear();
  now_ = now;
  next_seq_ = 0;
}

void EventCore::sift_up(std::size_t i) noexcept {
  Event moving = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(moving, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = moving;
}

void EventCore::sift_down(std::size_t i) noexcept {
  const std::size_t n = heap_.size();
  Event moving = heap_[i];
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], moving)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = moving;
}

bool EventCore::pop_raw(Event& out) noexcept {
  if (heap_.empty()) return false;
  out = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return true;
}

}  // namespace goc::sim
