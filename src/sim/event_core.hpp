#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

/// \file event_core.hpp
/// The flat discrete-event core — layer 1 of the `sim/` subsystem.
///
/// Events are type-tagged POD `Event`s dispatched by enum switch at the
/// call site (no stored callback, so no heap allocation at schedule time
/// and no indirect call at dispatch).
///
/// The core holds **at most one pending event per (type, subject)
/// stream**: an indexed binary min-heap with one slot per declared stream
/// and a position table, sized once by `declare_streams` — no allocation
/// and no stale events, ever.
///  * `schedule` on a stream that already has a pending event *replaces*
///    it in place (one sift from its current position). A block race whose
///    rate changed when miners migrated is simply re-scheduled; the
///    exponential race is memoryless, so the fresh draw is exact.
///  * `cancel` removes a stream's pending event, if there is one.
///  * `pop_until` leaves the dispatched event at the root and remembers
///    its stream. When the handler re-arms that stream (a chain's next
///    block race) the root is re-keyed with a single `sift_down` instead of
///    a pop plus a push; otherwise the next `pop_until` removes it first.
///
/// Order is (time, seq) with `seq` assigned once per `schedule`, so events
/// at equal times pop in schedule order (FIFO tie-breaking) and
/// trajectories are deterministic without epsilon time offsets.
///
/// A core serves one run: a simulator builds a fresh one per replica
/// rather than rewinding an old one, since building it costs little next
/// to the replica it drives.

namespace goc::sim {

/// Event vocabulary of the chain simulator. `subject` is the chain index
/// for kBlockFound and unused (0) for kDecisionEpoch.
enum class EventType : std::uint8_t {
  kBlockFound = 0,
  kDecisionEpoch = 1,
};
inline constexpr std::size_t kNumEventTypes = 2;

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;      ///< schedule order; breaks time ties FIFO
  std::uint32_t subject = 0;  ///< stream index within the type
  EventType type = EventType::kBlockFound;
};
static_assert(std::is_trivially_copyable_v<Event>, "events must stay POD");

class EventCore {
 public:
  /// Declares `count` subject streams for `type`. Scheduling on an
  /// undeclared stream is an error. Re-declaring changes the slot layout,
  /// so it drops every pending event (clock and sequence unchanged).
  void declare_streams(EventType type, std::size_t count);

  /// Schedules the stream's event at absolute `time` (must be ≥ now()),
  /// replacing its pending event if it has one.
  void schedule(double time, EventType type, std::uint32_t subject);

  /// Removes the stream's pending event; a no-op when it has none.
  void cancel(EventType type, std::uint32_t subject);

  /// Pops the earliest pending event with time ≤ `t_end` into `out` and
  /// advances the clock to its time. When no event remains in the window
  /// the clock advances to `t_end` and false is returned.
  bool pop_until(Event& out, double t_end);

  double now() const noexcept { return now_; }
  /// Pending events: at most one per declared stream.
  std::size_t pending() const noexcept {
    return heap_.size() - (dispatched_ != kNoSlot ? 1 : 0);
  }
  bool empty() const noexcept { return pending() == 0; }

 private:
  /// A heap node: the time plus `seq << kSlotBits | slot`. Sequence
  /// numbers are unique, so comparing keys compares seqs.
  struct Node {
    double time;
    std::uint64_t key;
  };
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << (64 - kSlotBits);
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  static bool earlier(const Node& a, const Node& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }
  static std::uint32_t slot_of(const Node& n) noexcept {
    return static_cast<std::uint32_t>(n.key & kSlotMask);
  }
  std::uint32_t slot(EventType type, std::uint32_t subject) const;
  void place(std::size_t i, const Node& n) noexcept {
    heap_[i] = n;
    pos_[slot_of(n)] = static_cast<std::uint32_t>(i);
  }
  void sift_up(std::size_t i, Node moving) noexcept;
  void sift_down(std::size_t i, Node moving) noexcept;
  void remove_at(std::size_t i) noexcept;

  std::vector<Node> heap_;           ///< binary min-heap by (time, seq)
  std::vector<std::uint32_t> pos_;   ///< slot → heap index, or kNoSlot
  std::array<std::uint32_t, kNumEventTypes> first_slot_{};
  std::array<std::uint32_t, kNumEventTypes> num_streams_{};
  /// Slot of the dispatched event still sitting at the root, or kNoSlot.
  std::uint32_t dispatched_ = kNoSlot;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace goc::sim
