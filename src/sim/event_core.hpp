#pragma once

#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/assert.hpp"

/// \file event_core.hpp
/// The flat discrete-event core — layer 1 of the `sim/` subsystem.
///
/// Events are type-tagged POD `Event`s dispatched by enum switch at the
/// call site (no stored callback, so no heap allocation at schedule time
/// and no indirect call at dispatch), kept in an explicit binary heap over
/// a reusable `std::vector` — zero per-event allocation once the heap has
/// warmed up.
///
/// Two facilities live in the core itself:
///  * **FIFO tie-breaking** — events at equal times pop in schedule order
///    (a monotone sequence number participates in the heap order), so event
///    trajectories are deterministic without epsilon time offsets;
///  * **generation-counter invalidation** — each (type, subject) stream
///    carries a generation; `schedule` stamps the current one onto the
///    event and `invalidate` bumps it, so stale events (a block race whose
///    rate changed when miners migrated) are skipped inside `pop_until`
///    without ever reaching the dispatch switch. The exponential race is
///    memoryless, so resampling after an invalidation is statistically
///    exact.

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
  std::uint64_t seq = 0;         ///< schedule order; breaks time ties FIFO
  std::uint32_t subject = 0;     ///< stream index within the type
  std::uint32_t generation = 0;  ///< stream generation at schedule time
  EventType type = EventType::kBlockFound;
};
static_assert(std::is_trivially_copyable_v<Event>,
              "events must stay POD — the heap moves them by plain copy");

class EventCore {
 public:
  /// Declares `count` subject streams for `type` (resets their
  /// generations). Scheduling on an undeclared stream is an error.
  void declare_streams(EventType type, std::size_t count);

  /// Schedules an event at absolute `time` (must be ≥ now()), stamped with
  /// the stream's current generation.
  void schedule(double time, EventType type, std::uint32_t subject);

  /// Bumps the stream's generation: every pending event scheduled on it
  /// becomes stale and will be silently dropped by `pop_until`.
  void invalidate(EventType type, std::uint32_t subject);

  /// Pops the earliest *live* event with time ≤ `t_end` into `out` and
  /// advances the clock to its time; stale events are skipped. When no
  /// live event remains in the window the clock advances to `t_end` and
  /// false is returned.
  bool pop_until(Event& out, double t_end);

  double now() const noexcept { return now_; }
  /// Pending events, stale ones included.
  std::size_t pending() const noexcept { return heap_.size(); }
  bool empty() const noexcept { return heap_.empty(); }

  /// Drops all pending events (clock and generations unchanged, capacity
  /// retained — reuse across replicas does not reallocate).
  void clear() noexcept { heap_.clear(); }

  /// Clears events, rewinds the clock to `now`, and resets the sequence
  /// counter; stream declarations and capacity survive.
  void reset(double now = 0.0);

 private:
  static bool earlier(const Event& a, const Event& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) noexcept;
  bool pop_raw(Event& out) noexcept;  ///< heap pop, no staleness check
  bool is_stale(const Event& e) const noexcept {
    return generations_[static_cast<std::size_t>(e.type)][e.subject] !=
           e.generation;
  }

  std::vector<Event> heap_;  ///< explicit binary min-heap by (time, seq)
  std::array<std::vector<std::uint32_t>, kNumEventTypes> generations_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace goc::sim
