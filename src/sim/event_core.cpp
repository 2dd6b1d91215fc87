#include "sim/event_core.hpp"

#include <string>

#include "obs/registry.hpp"
#include "util/assert.hpp"

namespace goc::sim {

namespace {

/// Per-event-type counters, interned once. This is THE hottest seam in the
/// repo (one `pop_until` per simulated event), so the cost budget is one
/// relaxed add per dispatch, replacement or cancel — handle lookup happens
/// only at static init.
struct EventMetrics {
  std::array<obs::Counter*, kNumEventTypes> dispatched;
  std::array<obs::Counter*, kNumEventTypes> replaced;
  std::array<obs::Counter*, kNumEventTypes> cancelled;

  static EventMetrics& get() {
    static EventMetrics m = [] {
      auto& reg = obs::Registry::instance();
      static constexpr const char* kTypeNames[kNumEventTypes] = {
          "block_found", "decision_epoch"};
      EventMetrics out{};
      for (std::size_t t = 0; t < kNumEventTypes; ++t) {
        const std::string type(kTypeNames[t]);
        out.dispatched[t] = &reg.counter("sim.events.dispatched." + type);
        out.replaced[t] = &reg.counter("sim.events.replaced." + type);
        out.cancelled[t] = &reg.counter("sim.events.cancelled." + type);
      }
      return out;
    }();
    return m;
  }
};

}  // namespace

void EventCore::declare_streams(EventType type, std::size_t count) {
  // Slots must fit the node key's kSlotBits.
  GOC_CHECK_ARG(count <= kSlotMask + 1, "too many event streams");
  auto counts = num_streams_;
  counts[static_cast<std::size_t>(type)] = static_cast<std::uint32_t>(count);
  std::size_t total = 0;
  for (const std::uint32_t c : counts) total += c;
  GOC_CHECK_ARG(total <= kSlotMask + 1, "too many event streams");
  num_streams_ = counts;
  for (std::size_t t = 0, first = 0; t < kNumEventTypes; ++t) {
    first_slot_[t] = static_cast<std::uint32_t>(first);
    first += num_streams_[t];
  }
  heap_.clear();
  heap_.reserve(total);
  pos_.assign(total, kNoSlot);
  dispatched_ = kNoSlot;
}

std::uint32_t EventCore::slot(EventType type, std::uint32_t subject) const {
  const auto t = static_cast<std::size_t>(type);
  GOC_CHECK_ARG(subject < num_streams_[t], "undeclared event stream");
  return first_slot_[t] + subject;
}

void EventCore::schedule(double time, EventType type, std::uint32_t subject) {
  GOC_CHECK_ARG(time >= now_, "cannot schedule events in the past");
  const std::uint32_t s = slot(type, subject);
  GOC_ASSERT(next_seq_ < kMaxSeq, "event sequence numbers exhausted");
  const Node node{time, (next_seq_++ << kSlotBits) | s};
  const std::uint32_t at = pos_[s];
  if (at == kNoSlot) {
    heap_.push_back(node);
    sift_up(heap_.size() - 1, node);
    return;
  }
  if (s == dispatched_) {
    // Re-arming the stream just dispatched: its node is still the root and
    // the new one (time ≥ now, larger seq) orders after it.
    dispatched_ = kNoSlot;
    sift_down(0, node);
    return;
  }
  EventMetrics::get().replaced[static_cast<std::size_t>(type)]->add();
  if (earlier(node, heap_[at])) {
    sift_up(at, node);
  } else {
    sift_down(at, node);
  }
}

void EventCore::cancel(EventType type, std::uint32_t subject) {
  const std::uint32_t s = slot(type, subject);
  if (pos_[s] == kNoSlot || s == dispatched_) return;
  EventMetrics::get().cancelled[static_cast<std::size_t>(type)]->add();
  remove_at(pos_[s]);
}

bool EventCore::pop_until(Event& out, double t_end) {
  GOC_CHECK_ARG(t_end >= now_, "cannot run backwards");
  if (dispatched_ != kNoSlot) {
    dispatched_ = kNoSlot;
    remove_at(0);
  }
  if (heap_.empty() || !(heap_.front().time <= t_end)) {
    now_ = t_end;
    return false;
  }
  const Node& root = heap_.front();
  const std::uint32_t s = slot_of(root);
  std::size_t t = kNumEventTypes - 1;
  while (s < first_slot_[t]) --t;
  out.time = root.time;
  out.seq = root.key >> kSlotBits;
  out.subject = s - first_slot_[t];
  out.type = static_cast<EventType>(t);
  now_ = root.time;
  dispatched_ = s;
  EventMetrics::get().dispatched[t]->add();
  return true;
}

void EventCore::sift_up(std::size_t i, Node moving) noexcept {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(moving, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, moving);
}

void EventCore::sift_down(std::size_t i, Node moving) noexcept {
  // Bottom-up: walk the hole to a leaf along the earlier child (one
  // comparison per level), then sift `moving` back up from there. A
  // re-keyed race usually belongs near the bottom, so the climb is short.
  const std::size_t n = heap_.size();
  std::size_t hole = i;
  for (std::size_t child = 2 * hole + 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n) child += earlier(heap_[child + 1], heap_[child]);
    place(hole, heap_[child]);
    hole = child;
  }
  while (hole > i) {
    const std::size_t parent = (hole - 1) / 2;
    if (!earlier(moving, heap_[parent])) break;
    place(hole, heap_[parent]);
    hole = parent;
  }
  place(hole, moving);
}

void EventCore::remove_at(std::size_t i) noexcept {
  pos_[slot_of(heap_[i])] = kNoSlot;
  const Node last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  if (earlier(last, heap_[i])) {
    sift_up(i, last);
  } else {
    sift_down(i, last);
  }
}

}  // namespace goc::sim
