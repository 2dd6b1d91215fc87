#include "sim/event_core.hpp"

#include <algorithm>
#include <bit>
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
  leaves_ = static_cast<std::uint32_t>(total);
  tree_.assign(std::max<std::size_t>(2 * total, 2), kEmpty);
  dispatched_ = kNoSlot;
}

std::uint32_t EventCore::slot(EventType type, std::uint32_t subject) const {
  const auto t = static_cast<std::size_t>(type);
  GOC_CHECK_ARG(subject < num_streams_[t], "undeclared event stream");
  return first_slot_[t] + subject;
}

void EventCore::set_leaf(std::uint32_t s, Node n) noexcept {
  // The sibling's address depends only on the level, so its load never
  // waits on a comparison, and the select compiles without a branch.
  std::size_t i = std::size_t{leaves_} + s;
  tree_[i] = n;
  for (; i > 1; i >>= 1) {
    const Node sibling = tree_[i ^ 1];
    n = sibling < n ? sibling : n;
    tree_[i >> 1] = n;
  }
}

void EventCore::schedule(double time, EventType type, std::uint32_t subject) {
  GOC_CHECK_ARG(time >= now_, "cannot schedule events in the past");
  const std::uint32_t s = slot(type, subject);
  GOC_ASSERT(next_seq_ < kMaxSeq, "event sequence numbers exhausted");
  if (s == dispatched_) {
    dispatched_ = kNoSlot;  // re-arming the stream just dispatched
  } else if (tree_[leaves_ + s] != kEmpty) {
    EventMetrics::get().replaced[static_cast<std::size_t>(type)]->add();
  }
  // The only negative time that passes the check is −0.0: clearing the
  // sign bit stores it as +0.0, so the bits order like the times.
  const std::uint64_t time_bits =
      std::bit_cast<std::uint64_t>(time) & ~(std::uint64_t{1} << 63);
  set_leaf(s, Node{time_bits} << 64 | ((next_seq_++ << kSlotBits) | s));
}

void EventCore::cancel(EventType type, std::uint32_t subject) {
  const std::uint32_t s = slot(type, subject);
  if (s == dispatched_ || tree_[leaves_ + s] == kEmpty) return;
  EventMetrics::get().cancelled[static_cast<std::size_t>(type)]->add();
  set_leaf(s, kEmpty);
}

bool EventCore::pop_until(Event& out, double t_end) {
  GOC_CHECK_ARG(t_end >= now_, "cannot run backwards");
  if (dispatched_ != kNoSlot) {
    set_leaf(dispatched_, kEmpty);
    dispatched_ = kNoSlot;
  }
  const Node root = tree_[1];
  if (root == kEmpty || !(time_of(root) <= t_end)) {
    now_ = t_end;
    return false;
  }
  const auto key = static_cast<std::uint64_t>(root);  // the low half
  const auto s = static_cast<std::uint32_t>(key & kSlotMask);
  std::size_t t = kNumEventTypes - 1;
  while (s < first_slot_[t]) --t;
  out.time = time_of(root);
  out.seq = key >> kSlotBits;
  out.subject = s - first_slot_[t];
  out.type = static_cast<EventType>(t);
  now_ = out.time;
  dispatched_ = s;
  EventMetrics::get().dispatched[t]->add();
  return true;
}

std::size_t EventCore::pending() const noexcept {
  const auto leaves = tree_.begin() + leaves_;
  const auto live = std::count_if(leaves, leaves + leaves_,
                                  [](Node n) { return n != kEmpty; });
  return static_cast<std::size_t>(live) - (dispatched_ != kNoSlot ? 1 : 0);
}

}  // namespace goc::sim
