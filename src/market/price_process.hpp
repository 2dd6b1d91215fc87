#pragma once

#include <memory>
#include <string>
#include <vector>

#include "util/rng.hpp"

/// \file price_process.hpp
/// Fiat exchange-rate processes for the multi-coin market simulator.
///
/// The paper's Figure 1a shows the BTC and BCH exchange rates around
/// November 12, 2017 — a scripted, exogenous shock from this simulator's
/// point of view. We model rates as stochastic processes:
///  * geometric Brownian motion (baseline drift/volatility),
///  * jump-diffusion (GBM plus Poisson-arriving log-normal jumps), and
///  * a scheduled-shock wrapper that multiplies the rate by scripted
///    factors at given times (used to replay the 2017 fork-flip event with
///    a deterministic shape).
/// All processes advance in hours and are deterministic for a fixed Rng.
/// They only move forward: a replica starts from a `clone` of the unstepped
/// prototype (`Scenario::make_simulator`), never from a rewound process.

namespace goc::market {

class PriceProcess {
 public:
  virtual ~PriceProcess() = default;

  /// Advances the process by `dt_hours` and returns the new price.
  virtual double step(double dt_hours, Rng& rng) = 0;

  /// Current price (initial price before the first step).
  virtual double price() const = 0;

  /// Deep copy carrying the *full runtime state* (current price, shock
  /// clock, fired shocks), not just the construction parameters — cloning
  /// then stepping both copies with identical Rng draws produces identical
  /// paths. The replica-stamping primitive behind `CoinSpec::clone` and
  /// `Scenario::make_simulator`.
  virtual std::unique_ptr<PriceProcess> clone() const = 0;
};

/// dS = μ·S·dt + σ·S·dW, parameters per *day*.
class GbmProcess final : public PriceProcess {
 public:
  /// `initial_price` > 0; `sigma_daily` ≥ 0.
  GbmProcess(double initial_price, double mu_daily, double sigma_daily);

  double step(double dt_hours, Rng& rng) override;
  double price() const override { return price_; }
  std::unique_ptr<PriceProcess> clone() const override {
    return std::make_unique<GbmProcess>(*this);
  }

 private:
  double mu_daily_;
  double sigma_daily_;
  double price_;
};

/// GBM plus Poisson jumps: at rate `jumps_per_day`, the price is multiplied
/// by exp(N(jump_mean_log, jump_sigma_log)).
class JumpDiffusionProcess final : public PriceProcess {
 public:
  JumpDiffusionProcess(double initial_price, double mu_daily, double sigma_daily,
                       double jumps_per_day, double jump_mean_log,
                       double jump_sigma_log);

  double step(double dt_hours, Rng& rng) override;
  double price() const override { return price_; }
  std::unique_ptr<PriceProcess> clone() const override {
    return std::make_unique<JumpDiffusionProcess>(*this);
  }

 private:
  double mu_daily_;
  double sigma_daily_;
  double jumps_per_day_;
  double jump_mean_log_;
  double jump_sigma_log_;
  double price_;
};

/// Wraps a base process and applies scripted multiplicative shocks when the
/// simulated clock passes their times (each fires once per run).
class ScheduledShockProcess final : public PriceProcess {
 public:
  struct Shock {
    double at_hours;
    double factor;  ///< price *= factor when the clock passes at_hours
  };

  ScheduledShockProcess(std::unique_ptr<PriceProcess> base,
                        std::vector<Shock> shocks);

  double step(double dt_hours, Rng& rng) override;
  double price() const override;
  std::unique_ptr<PriceProcess> clone() const override;

 private:
  std::unique_ptr<PriceProcess> base_;
  std::vector<Shock> shocks_;  // sorted by time
  double clock_hours_ = 0.0;
  std::size_t next_shock_ = 0;
  double shock_multiplier_ = 1.0;
};

}  // namespace goc::market
