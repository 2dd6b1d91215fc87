#pragma once

#include <deque>
#include <memory>
#include <string>

#include "util/assert.hpp"

/// \file difficulty.hpp
/// Difficulty adjustment algorithms (DAAs).
///
/// Difficulty here is "expected hash-units per block": with aggregate
/// hashrate M on a chain of difficulty D, blocks arrive Poisson at rate
/// M/D. A DAA observes block timestamps and retunes D toward the protocol's
/// target interval. Three real-world families are implemented:
///  * fixed-window retarget (Bitcoin: 2016-block windows, clamped ×4);
///  * simple moving average (many altcoins);
///  * fixed-window + emergency adjustment (Bitcoin Cash's 2017 EDA: drop
///    difficulty 20% whenever blocks stall) — the algorithm whose
///    interaction with reward-chasing miners produced the hashrate
///    oscillations visible in the paper's Figure 1b.

namespace goc::chain {

class DifficultyAdjuster {
 public:
  virtual ~DifficultyAdjuster() = default;

  /// Observes a block found at absolute time `now` (hours) under the
  /// current difficulty, and returns the difficulty for the next block.
  virtual double on_block(double now, double current_difficulty) = 0;

  /// The difficulty the *next* block would face if found at time `now`,
  /// without consuming any state. Identity for window/SMA rules; the EDA
  /// overrides it with the stall discount — the rule is public protocol, so
  /// profit-chasing miners evaluate it *before* deciding where to point
  /// hashrate (as BCH miners famously did in 2017).
  virtual double prospective(double now, double current_difficulty) const {
    (void)now;
    return current_difficulty;
  }

  virtual std::string name() const = 0;
};

/// Bitcoin-style: every `window` blocks, scale difficulty by
/// expected/actual span, clamped to [1/max_factor, max_factor].
class FixedWindowRetarget final : public DifficultyAdjuster {
 public:
  FixedWindowRetarget(std::size_t window, double target_interval_hours,
                      double max_factor = 4.0);

  double on_block(double now, double current_difficulty) override;
  std::string name() const override { return "fixed-window"; }

 private:
  std::size_t window_;
  double target_interval_;
  double max_factor_;
  std::size_t blocks_in_window_ = 0;
  double window_start_ = 0.0;
  bool have_start_ = false;
};

/// Per-block retarget toward the target interval using a moving average of
/// the last `window` inter-block intervals, with per-block clamping.
class SmaRetarget final : public DifficultyAdjuster {
 public:
  SmaRetarget(std::size_t window, double target_interval_hours,
              double max_step = 1.2);

  double on_block(double now, double current_difficulty) override;
  std::string name() const override { return "sma"; }

 private:
  std::size_t window_;
  double target_interval_;
  double max_step_;
  std::deque<double> times_;
};

/// Fixed-window retarget plus the EDA rule: one multiplicative cut of
/// `emergency_drop` (20% in BCH) per full `emergency_gap_hours` elapsed
/// since the previous block — so a deep stall compounds discounts, exactly
/// the dynamic that let BCH recover hashrate in 2017. `prospective` exposes
/// the discount the next block would enjoy, which is what profit-chasing
/// miners act on; the sawtooth of Figure 1b emerges from this interplay.
class EmergencyAdjuster final : public DifficultyAdjuster {
 public:
  EmergencyAdjuster(std::size_t window, double target_interval_hours,
                    double emergency_gap_hours, double emergency_drop = 0.20,
                    double max_factor = 4.0);

  double on_block(double now, double current_difficulty) override;
  double prospective(double now, double current_difficulty) const override;
  std::string name() const override { return "eda"; }

 private:
  /// 0.8^⌊stall/gap⌋ (bounded below so difficulty never hits zero).
  double stall_discount(double now) const;

  FixedWindowRetarget base_;
  double emergency_gap_;
  double emergency_drop_;
  // The genesis block anchors the stall clock at t = 0, so an idle chain's
  // prospective difficulty decays from the start of the run.
  double last_block_time_ = 0.0;
};

}  // namespace goc::chain
