#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "util/int128.hpp"

/// \file event_core.hpp
/// The flat discrete-event core — layer 1 of the `sim/` subsystem.
///
/// Events are type-tagged POD `Event`s dispatched by enum switch at the
/// call site (no stored callback, so no heap allocation at schedule time
/// and no indirect call at dispatch).
///
/// The core holds **at most one pending event per (type, subject)
/// stream**: a winner (tournament) tree with one leaf per declared stream,
/// sized once by `declare_streams` — no allocation and no stale events,
/// ever. Leaves sit at `[n, 2n)` and node `i` holds the earlier of nodes
/// `2i` and `2i + 1`, which works for any `n`; an empty leaf holds a
/// sentinel that orders after every event.
///  * `schedule` writes the stream's leaf and replays its matches up to the
///    root: one pass of log2(n) levels, each reading the sibling `i ^ 1`
///    and keeping the earlier node without a branch. On a stream with a
///    pending event this *replaces* it. A block race whose rate changed
///    when miners migrated is simply re-scheduled; the exponential race is
///    memoryless, so the fresh draw is exact.
///  * `cancel` writes the sentinel into the stream's leaf, if it is pending.
///  * `pop_until` reads the root and leaves the dispatched event in its
///    leaf. When the handler re-arms that stream (a chain's next block
///    race) the new event overwrites it in one pass; otherwise the next
///    `pop_until` clears the leaf first.
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
  /// Pending events: at most one per declared stream. Counts the leaves,
  /// so it costs O(streams); the simulators never ask.
  std::size_t pending() const noexcept;
  bool empty() const noexcept { return pending() == 0; }

 private:
  /// A tree node: the time's bits above `seq << kSlotBits | slot`. Times
  /// are ≥ +0.0 (−0.0 is stored as +0.0), so their bits order like the
  /// times, and sequence numbers are unique: one unsigned comparison
  /// orders two nodes by (time, seq).
  using Node = u128;
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << (64 - kSlotBits);
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();
  /// An empty leaf: its time bits exceed those of +inf.
  static constexpr Node kEmpty = ~Node{0};

  static double time_of(Node n) noexcept {
    return std::bit_cast<double>(static_cast<std::uint64_t>(n >> 64));
  }
  std::uint32_t slot(EventType type, std::uint32_t subject) const;
  /// Writes leaf `s` and replays its matches up to the root.
  void set_leaf(std::uint32_t s, Node n) noexcept;

  /// [1, n) matches, [n, 2n) leaves; [0] unused. Two empty nodes until
  /// streams are declared, so the root always exists.
  std::vector<Node> tree_{kEmpty, kEmpty};
  std::uint32_t leaves_ = 0;  ///< n: one leaf per declared stream
  std::array<std::uint32_t, kNumEventTypes> first_slot_{};
  std::array<std::uint32_t, kNumEventTypes> num_streams_{};
  /// Slot of the dispatched event still sitting in its leaf, or kNoSlot.
  std::uint32_t dispatched_ = kNoSlot;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace goc::sim
