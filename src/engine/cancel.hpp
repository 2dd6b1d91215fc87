#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

/// \file cancel.hpp
/// Cooperative cancellation for long-running engine work.
///
/// A `CancelToken` carries a monotone generation counter, work snapshots
/// the generation when it starts (`CancelView`), and a cancel *bumps* the
/// counter instead of flipping a boolean — so one token can arm many
/// successive runs, a stale view can never "un-cancel" itself, and the
/// check is a single relaxed atomic load on the hot path.
/// Engine loops (`run_trajectory_batch`, `SweepRunner::run`, the
/// enumeration shard fan-out) poll their view at natural boundaries
/// (replica / task / shard) and throw `Cancelled`, which the pool's
/// `parallel_for` propagates after draining — cancellation latency is one
/// unit of work, never a torn result.

namespace goc::engine {

/// Thrown by engine loops when their `CancelView` went stale mid-run.
/// Derives from std::runtime_error so unaware callers treat an abandoned
/// run as an ordinary failure; aware callers (the serve job table) catch
/// it specifically to mark the job cancelled rather than failed.
class Cancelled : public std::runtime_error {
 public:
  explicit Cancelled(const std::string& what) : std::runtime_error(what) {}
};

/// The cancellation source. One token per cancellable job; bumping the
/// generation invalidates every view snapshotted before the bump.
class CancelToken {
 public:
  std::uint32_t generation() const noexcept {
    return generation_.load(std::memory_order_acquire);
  }

  /// Cancels all outstanding views: work that snapshotted an older
  /// generation becomes stale and dies at its next poll.
  void invalidate() noexcept {
    generation_.fetch_add(1, std::memory_order_acq_rel);
  }

 private:
  std::atomic<std::uint32_t> generation_{0};
};

/// A job's snapshot of its token: stale once the token's generation moved.
/// Default-constructed views (no token) never report stale, so options
/// structs can embed one and non-daemon callers pay nothing.
struct CancelView {
  const CancelToken* token = nullptr;
  std::uint32_t generation = 0;

  /// Snapshot the token's current generation.
  static CancelView of(const CancelToken& token) noexcept {
    return CancelView{&token, token.generation()};
  }

  bool stale() const noexcept {
    return token != nullptr && token->generation() != generation;
  }

  /// Throws `Cancelled` when stale — the one-liner engine loops call at
  /// work boundaries.
  void throw_if_stale(const char* what) const {
    if (stale()) throw Cancelled(what);
  }
};

}  // namespace goc::engine
