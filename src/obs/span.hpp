#pragma once

#include <cstdint>

#include "obs/registry.hpp"

/// \file span.hpp
/// RAII scoped timers feeding latency histograms.
///
/// ```cpp
/// static obs::Histogram& kWaveNs =
///     obs::Registry::instance().histogram("sim.batch.wave_ns");
/// {
///   obs::Span span(kWaveNs);   // starts the clock
///   ...wave work...
/// }                            // records elapsed ns into the histogram
/// ```
///
/// Spans nest freely (each owns its own start stamp), cost two
/// `steady_clock` reads plus one histogram record when obs is enabled,
/// and degrade to almost nothing when it is not: with recording disabled
/// the constructor skips the clock read entirely. Timing never feeds back
/// into simulation state, so spans are deterministic-safe by construction.

namespace goc::obs {

class Span {
 public:
  explicit Span(Histogram& histogram) noexcept
      : histogram_(&histogram), start_ns_(enabled() ? now_ns() : 0) {}

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() { finish(); }

  /// Records the elapsed time now instead of at scope exit; idempotent
  /// (the destructor becomes a no-op).
  void finish() noexcept {
    if (histogram_ == nullptr) return;
    // A span opened while obs was disabled has no start stamp — recording
    // a bogus latency would be worse than dropping the sample.
    if (start_ns_ != 0) histogram_->record(now_ns() - start_ns_);
    histogram_ = nullptr;
  }

  /// Elapsed nanoseconds so far (0 when obs was disabled at entry).
  std::uint64_t elapsed_ns() const noexcept {
    return start_ns_ == 0 ? 0 : now_ns() - start_ns_;
  }

 private:
  Histogram* histogram_;
  std::uint64_t start_ns_;
};

}  // namespace goc::obs
