#pragma once

#include "util/rng.hpp"

/// \file fee_market.hpp
/// A coin's transaction-fee market.
///
/// Transactions arrive Poisson at `tx_per_hour`, each carrying a fee drawn
/// from Pareto(fee_scale, fee_shape) — heavy-tailed, matching observed fee
/// distributions. Fees accumulate in a pending pool and are collected by
/// the epoch's blocks. A *whale transaction* (Liao–Katz) is an injected
/// outsized fee: the lever the paper names for raising a coin's weight
/// without touching the exchange rate. The reward-design examples use it as
/// the physical carrier of H(c) − F(c).
///
/// The stream is defined by a running sum of exponential gaps: one uniform
/// for the first gap, then per arrival a fee uniform and a gap uniform.
/// `accrue` draws exactly that stream but decides the clock on the product
/// of the gap uniforms (one multiply instead of a `log` per arrival), and
/// reruns the sum from the generator's entry state in the rare call where
/// the product is too close to its threshold to be sure. The
/// `market.fee.arrivals` and `market.fee.clock_fallbacks` counters take one
/// add per call.

namespace goc::market {

class FeeMarket {
 public:
  /// `tx_per_hour` ≥ 0, `fee_scale` > 0 (native coin units),
  /// `fee_shape` > 1 (finite mean).
  FeeMarket(double tx_per_hour, double fee_scale, double fee_shape);

  /// Accrues `dt_hours` (finite, ≥ 0) of organic fee arrivals into the
  /// pending pool. Returns the amount added.
  double accrue(double dt_hours, Rng& rng);

  /// Adds a whale fee (native units) to the pending pool.
  void inject_whale(double fee);

  /// Drains the pool — the fees collected by the blocks mined this epoch.
  double collect();

  double pending() const noexcept { return pending_; }
  /// Total whale fees injected over the lifetime (cost accounting).
  double whale_total() const noexcept { return whale_total_; }

  /// Expected organic fee income per hour (rate × mean fee).
  double expected_hourly() const noexcept;

 private:
  double tx_per_hour_;
  double fee_scale_;
  double fee_shape_;
  double pending_ = 0.0;
  double whale_total_ = 0.0;
};

}  // namespace goc::market
