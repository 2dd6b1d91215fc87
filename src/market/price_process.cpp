#include "market/price_process.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace goc::market {
namespace {
constexpr double kHoursPerDay = 24.0;
}

GbmProcess::GbmProcess(double initial_price, double mu_daily, double sigma_daily)
    : mu_daily_(mu_daily),
      sigma_daily_(sigma_daily),
      price_(initial_price) {
  GOC_CHECK_ARG(initial_price > 0.0, "initial price must be positive");
  GOC_CHECK_ARG(sigma_daily >= 0.0, "volatility must be nonnegative");
}

double GbmProcess::step(double dt_hours, Rng& rng) {
  GOC_CHECK_ARG(dt_hours > 0.0, "dt must be positive");
  const double dt = dt_hours / kHoursPerDay;
  // Exact log-normal update (no Euler discretization error).
  const double drift = (mu_daily_ - 0.5 * sigma_daily_ * sigma_daily_) * dt;
  const double diffusion = sigma_daily_ * std::sqrt(dt) * rng.normal();
  price_ *= std::exp(drift + diffusion);
  return price_;
}

JumpDiffusionProcess::JumpDiffusionProcess(double initial_price, double mu_daily,
                                           double sigma_daily,
                                           double jumps_per_day,
                                           double jump_mean_log,
                                           double jump_sigma_log)
    : mu_daily_(mu_daily),
      sigma_daily_(sigma_daily),
      jumps_per_day_(jumps_per_day),
      jump_mean_log_(jump_mean_log),
      jump_sigma_log_(jump_sigma_log),
      price_(initial_price) {
  GOC_CHECK_ARG(initial_price > 0.0, "initial price must be positive");
  GOC_CHECK_ARG(sigma_daily >= 0.0, "volatility must be nonnegative");
  GOC_CHECK_ARG(jumps_per_day >= 0.0, "jump rate must be nonnegative");
}

double JumpDiffusionProcess::step(double dt_hours, Rng& rng) {
  GOC_CHECK_ARG(dt_hours > 0.0, "dt must be positive");
  const double dt = dt_hours / kHoursPerDay;
  const double drift = (mu_daily_ - 0.5 * sigma_daily_ * sigma_daily_) * dt;
  const double diffusion = sigma_daily_ * std::sqrt(dt) * rng.normal();
  double jump_log = 0.0;
  // Number of jumps in dt is Poisson(jumps_per_day·dt); dt is small, so
  // draw via sequential Bernoulli thinning of the exponential clock.
  double remaining = dt * jumps_per_day_;
  while (remaining > 0.0 && rng.uniform01() < 1.0 - std::exp(-remaining)) {
    jump_log += rng.normal(jump_mean_log_, jump_sigma_log_);
    remaining -= 1.0;  // subsequent jumps in the same step are ever rarer
  }
  price_ *= std::exp(drift + diffusion + jump_log);
  return price_;
}

ScheduledShockProcess::ScheduledShockProcess(std::unique_ptr<PriceProcess> base,
                                             std::vector<Shock> shocks)
    : base_(std::move(base)), shocks_(std::move(shocks)) {
  GOC_CHECK_ARG(base_ != nullptr, "shock wrapper requires a base process");
  std::sort(shocks_.begin(), shocks_.end(),
            [](const Shock& a, const Shock& b) { return a.at_hours < b.at_hours; });
  for (const Shock& s : shocks_) {
    GOC_CHECK_ARG(s.factor > 0.0, "shock factors must be positive");
  }
}

double ScheduledShockProcess::step(double dt_hours, Rng& rng) {
  base_->step(dt_hours, rng);
  clock_hours_ += dt_hours;
  while (next_shock_ < shocks_.size() &&
         shocks_[next_shock_].at_hours <= clock_hours_) {
    shock_multiplier_ *= shocks_[next_shock_].factor;
    ++next_shock_;
  }
  return price();
}

double ScheduledShockProcess::price() const {
  return base_->price() * shock_multiplier_;
}

std::unique_ptr<PriceProcess> ScheduledShockProcess::clone() const {
  auto copy = std::make_unique<ScheduledShockProcess>(base_->clone(), shocks_);
  // The constructor re-sorts and validates; carry the runtime state over so
  // mid-run clones continue the path (fired shocks stay fired).
  copy->clock_hours_ = clock_hours_;
  copy->next_shock_ = next_shock_;
  copy->shock_multiplier_ = shock_multiplier_;
  return copy;
}

}  // namespace goc::market
