#include "chain/difficulty.hpp"

#include <algorithm>
#include <cmath>

namespace goc::chain {

FixedWindowRetarget::FixedWindowRetarget(std::size_t window,
                                         double target_interval_hours,
                                         double max_factor)
    : window_(window),
      target_interval_(target_interval_hours),
      max_factor_(max_factor) {
  GOC_CHECK_ARG(window >= 1, "retarget window must be positive");
  GOC_CHECK_ARG(target_interval_hours > 0.0, "target interval must be positive");
  GOC_CHECK_ARG(max_factor >= 1.0, "clamp factor must be at least 1");
}

double FixedWindowRetarget::on_block(double now, double current_difficulty) {
  if (!have_start_) {
    window_start_ = now;
    have_start_ = true;
    blocks_in_window_ = 0;
    return current_difficulty;
  }
  if (++blocks_in_window_ < window_) return current_difficulty;

  const double actual = std::max(now - window_start_, 1e-9);
  const double expected = static_cast<double>(window_) * target_interval_;
  const double raw_factor = expected / actual;
  const double factor =
      std::clamp(raw_factor, 1.0 / max_factor_, max_factor_);
  blocks_in_window_ = 0;
  window_start_ = now;
  return current_difficulty * factor;
}

SmaRetarget::SmaRetarget(std::size_t window, double target_interval_hours,
                         double max_step)
    : window_(window), target_interval_(target_interval_hours),
      max_step_(max_step) {
  GOC_CHECK_ARG(window >= 2, "SMA window must be at least 2");
  GOC_CHECK_ARG(target_interval_hours > 0.0, "target interval must be positive");
  GOC_CHECK_ARG(max_step >= 1.0, "per-block clamp must be at least 1");
}

double SmaRetarget::on_block(double now, double current_difficulty) {
  times_.push_back(now);
  if (times_.size() > window_) times_.pop_front();
  if (times_.size() < 2) return current_difficulty;
  const double span = times_.back() - times_.front();
  const double mean_interval =
      std::max(span / static_cast<double>(times_.size() - 1), 1e-9);
  const double raw_factor = target_interval_ / mean_interval;
  const double factor = std::clamp(raw_factor, 1.0 / max_step_, max_step_);
  return current_difficulty * factor;
}

EmergencyAdjuster::EmergencyAdjuster(std::size_t window,
                                     double target_interval_hours,
                                     double emergency_gap_hours,
                                     double emergency_drop, double max_factor)
    : base_(window, target_interval_hours, max_factor),
      emergency_gap_(emergency_gap_hours),
      emergency_drop_(emergency_drop) {
  GOC_CHECK_ARG(emergency_gap_hours > 0.0, "emergency gap must be positive");
  GOC_CHECK_ARG(emergency_drop > 0.0 && emergency_drop < 1.0,
                "emergency drop must lie in (0,1)");
}

double EmergencyAdjuster::stall_discount(double now) const {
  const double stall = now - last_block_time_;
  if (stall <= emergency_gap_) return 1.0;
  const double cuts = std::floor(stall / emergency_gap_);
  // Cap the compounding at 50 cuts (≈ 0.8^50 ≈ 1e-5) so difficulty cannot
  // underflow to zero during pathological stalls.
  const double bounded = std::min(cuts, 50.0);
  return std::pow(1.0 - emergency_drop_, bounded);
}

double EmergencyAdjuster::prospective(double now, double current_difficulty) const {
  return current_difficulty * stall_discount(now);
}

double EmergencyAdjuster::on_block(double now, double current_difficulty) {
  const double difficulty = current_difficulty * stall_discount(now);
  last_block_time_ = now;
  return base_.on_block(now, difficulty);
}

}  // namespace goc::chain
