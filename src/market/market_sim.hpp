#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/configuration.hpp"
#include "core/game.hpp"
#include "dynamics/best_response_index.hpp"
#include "dynamics/scheduler.hpp"
#include "market/fee_market.hpp"
#include "market/price_process.hpp"

/// \file market_sim.hpp
/// The multi-coin market simulator — the substrate for experiment E1/E2
/// (Figure 1a/1b).
///
/// Each coin has an exchange-rate process, a fee market, and protocol
/// constants (block subsidy, block cadence). Per epoch the simulator:
///   1. advances every coin's price and accrues fees;
///   2. derives the coin *weight* F(c) = (blocks/epoch × subsidy + fees) ×
///      price — the paper's "reward the coin divides among its miners",
///      quantized into exact rationals at the game boundary;
///   3. lets the miner population take up to `br_steps_per_epoch`
///      better-response steps in the induced game G_{Π,C,F} (partial
///      adjustment: real miners do not instantly re-equilibrate);
///   4. records prices, weights, hashrate shares and equilibrium status.
///
/// The output time series are exactly what Figure 1 plots: exchange rates
/// (1a) and per-coin hashrate (1b).
///
/// The run is a plain epoch loop driving the zero-rebuild adjustment: an
/// `EpochWorkspace` arena holds one `Game` whose rewards are swapped in
/// place per epoch (`Game::reweight`) and one `BestResponseIndex` that is
/// reweight-invalidated instead of reconstructed, so a steady-state epoch
/// performs no heap allocation. Epoch records are pinned byte for byte by
/// the committed `GOLDEN_market.gocr` recording and by the hash pins in
/// `tests/test_sim.cpp`.

namespace goc::market {

/// Static + dynamic description of one simulated coin.
struct CoinSpec {
  std::string name;
  double block_subsidy = 12.5;    ///< native units per block
  double blocks_per_hour = 6.0;   ///< protocol target cadence
  std::unique_ptr<PriceProcess> price;
  FeeMarket fees;

  CoinSpec(std::string coin_name, double subsidy, double blocks_hour,
           std::unique_ptr<PriceProcess> price_process, FeeMarket fee_market)
      : name(std::move(coin_name)),
        block_subsidy(subsidy),
        blocks_per_hour(blocks_hour),
        price(std::move(price_process)),
        fees(std::move(fee_market)) {}

  /// Deep copy, including the price process's full runtime state
  /// (`PriceProcess::clone`). Replica factories stamp independent coin
  /// lists from one prototype instead of hand-rebuilding them.
  CoinSpec clone() const {
    return CoinSpec(name, block_subsidy, blocks_per_hour, price->clone(),
                    fees);
  }
};

struct MarketOptions {
  double epoch_hours = 1.0;
  std::size_t epochs = 24 * 30;
  /// Better-response steps allowed per epoch (partial adjustment). 0 means
  /// "run to convergence every epoch".
  std::uint64_t br_steps_per_epoch = 8;
  SchedulerKind scheduler = SchedulerKind::kRandomMiner;
  std::uint64_t seed = 2021;
  /// Weight quantization denominator for Rational::from_double.
  std::uint64_t weight_denominator = 1u << 20;
};

/// One epoch of recorded market state.
struct EpochRecord {
  double t_hours = 0.0;
  std::vector<double> prices;           ///< per coin
  std::vector<double> weights;          ///< per coin (fiat per epoch)
  std::vector<double> hashrate_share;   ///< per coin, fraction of Σm
  std::uint64_t br_steps = 0;           ///< steps actually taken this epoch
  bool at_equilibrium = false;          ///< w.r.t. this epoch's weights
};

/// Preallocated per-simulation arena for the epoch hot loop.
///
/// Everything an epoch mutates lives here, sized once: the quantized
/// weight scratch, the induced game (whose rewards are swapped *in place*
/// by `Game::reweight` — the system, access policy and the game object's
/// address never change), the miners' configuration, and the incremental
/// best-response index (reweight-invalidated per epoch, never rebuilt from
/// scratch). After construction a steady-state epoch allocates nothing:
/// weights are copied into the reward function's existing storage, the
/// index rescans into its preallocated strips, and the adjustment loop
/// runs `pick_indexed` over it.
///
/// The index keeps pointers to `game` and `config`, so the workspace lives
/// on the heap and never moves; the simulator that owns it can.
struct EpochWorkspace {
  std::vector<Rational> weights;  ///< this epoch's F(c), quantized
  Game game;                      ///< reweighted in place each epoch
  Configuration config;           ///< the miners' current assignment
  dynamics::BestResponseIndex index;
  std::size_t epochs_run = 0;

  EpochWorkspace(std::shared_ptr<const System> system, Configuration start)
      : weights(system->num_coins(), Rational(1)),
        game(system, RewardFunction::constant(system->num_coins(),
                                              Rational(1))),
        config(std::move(start)),
        index(game, config) {}
  EpochWorkspace(const EpochWorkspace&) = delete;
  EpochWorkspace& operator=(const EpochWorkspace&) = delete;
};

class MarketSimulator {
 public:
  /// `miner_powers` defines Π (positive integers, any order); one CoinSpec
  /// per coin.
  MarketSimulator(std::vector<std::int64_t> miner_powers,
                  std::vector<CoinSpec> coins, MarketOptions options);

  /// Runs the full horizon and returns one record per epoch. The first
  /// record reflects the state after the first epoch.
  std::vector<EpochRecord> run();

  /// Injects a whale fee (native units) into `coin`'s pool before the next
  /// epoch — the manipulation lever for the whale-attack example.
  void inject_whale(std::size_t coin, double fee);

  const Configuration& configuration() const noexcept { return ws_->config; }
  std::size_t num_coins() const noexcept { return coins_.size(); }
  const CoinSpec& coin(std::size_t i) const { return coins_.at(i); }

  /// The most recent epoch's game (weights as of that epoch). Valid after
  /// at least one epoch has run (throws std::invalid_argument before
  /// that). The reference is *stable across epochs*: it aliases the
  /// workspace-owned game, which is reweighted in place rather than
  /// reallocated, and stays valid for the lifetime of the simulator, or
  /// of the simulator it is moved into.
  const Game& current_game() const;

 private:
  // One epoch = per coin, advance its price then accrue its fees and derive
  // its weight; then let the game adjust.
  void step_coin_price(std::size_t c, EpochRecord& record);
  void step_coin_fees(std::size_t c, EpochRecord& record);
  void finish_epoch(EpochRecord& record);

  std::shared_ptr<const System> system_;
  std::vector<CoinSpec> coins_;
  MarketOptions options_;
  Rng rng_;
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<EpochWorkspace> ws_;  // arena; built by the constructor
};

}  // namespace goc::market
