#pragma once

#include <memory>
#include <vector>

#include "market/market_sim.hpp"

/// \file scenario.hpp
/// Scripted market scenarios.
///
/// `fork_flip_scenario` replays the November 2017 BTC/BCH episode that the
/// paper's Figure 1 documents: a dominant coin ("BTC") and a minor spin-off
/// ("BCH") trade sideways until a scripted shock multiplies the minor
/// coin's exchange rate severalfold while the major dips — flipping the
/// weight ordering for a window and pulling miners across, after which the
/// rates partially revert and so does the hashrate. Magnitudes are
/// calibrated to the public charts (BCH ≈ $600 → $1,900 spike; BTC ≈
/// $7,400 → $5,900 dip around Nov 12, 2017).

namespace goc::market {

/// A reusable market-scenario prototype: the miner power profile, one
/// prototype CoinSpec per coin, and the run options. Monte Carlo batches
/// stamp one independent simulator per replica with `make_simulator(seed)`
/// — coins are deep-cloned (`CoinSpec::clone`, price-process state
/// included) and only the seed differs — instead of hand-rebuilding the
/// coin list in every replica factory.
struct Scenario {
  std::vector<std::int64_t> miner_powers;
  std::vector<CoinSpec> coins;
  MarketOptions options;

  /// Deep copy of the coin prototypes.
  std::vector<CoinSpec> clone_coins() const;

  /// A fresh simulator over cloned coins, with `options.seed` replaced by
  /// `seed`. The prototype itself is untouched and reusable.
  MarketSimulator make_simulator(std::uint64_t seed) const;
};

struct ForkFlipParams {
  std::size_t miners = 64;
  std::int64_t min_power = 50;
  std::int64_t max_power = 4000;
  double days = 30.0;
  double shock_day = 12.0;   ///< day of the flip
  double revert_day = 15.0;  ///< partial reversal
  double major_price0 = 7400.0;
  double minor_price0 = 620.0;
  double minor_spike_factor = 3.1;   ///< minor price multiplier at the shock
  double major_dip_factor = 0.80;    ///< major price multiplier at the shock
  double minor_revert_factor = 0.42; ///< minor multiplier at the reversal
  double major_recover_factor = 1.22;
  std::uint64_t seed = 1711;         ///< November 2017
};

/// The fork-flip prototype (two coins: index 0 = major/"BTC", 1 =
/// minor/"BCH"), ready for replica stamping.
Scenario fork_flip_prototype(const ForkFlipParams& params = {});

/// Builds the simulator directly (equivalent to
/// `fork_flip_prototype(params).make_simulator(params.seed)`).
MarketSimulator fork_flip_scenario(const ForkFlipParams& params = {});

/// A generic N-coin market prototype with Pareto miner powers and
/// jump-diffusion prices sized as "majors plus tail".
Scenario random_market_prototype(std::size_t miners, std::size_t coins,
                                 double days, std::uint64_t seed);

}  // namespace goc::market
