#pragma once

#include <cstdint>
#include <vector>

#include "chain/chain_sim.hpp"
#include "sim/trajectory.hpp"

/// \file fig1_replay.hpp
/// High-fidelity Figure 1b replay: price shocks × chain-level dynamics.
///
/// The epoch market simulator (scenario.hpp) reproduces Figure 1's shape
/// at the *game* level — miners settle near the weight-proportional
/// split. The real November 2017 episode had richer structure: BCH
/// hashrate briefly *exceeded* BTC's, because profit-chasing miners react
/// to per-hash profitability at the *current difficulty*, and BCH's EDA
/// rule kept slashing difficulty whenever the chain stalled. This module
/// couples the scripted exchange-rate shock into the discrete-event chain
/// simulator (fiat block reward = subsidy × price(t), via the chain
/// simulator's reward hook) with myopic miners and real DAAs — producing
/// the crossover and the post-shock sawtooth.

namespace goc::market {

struct Fig1ReplayParams {
  std::size_t miners = 40;
  double days = 30.0;
  double shock_day = 12.0;
  double revert_day = 15.0;
  double major_price0 = 7400.0;
  double minor_price0 = 620.0;
  double minor_spike_factor = 3.1;
  double major_dip_factor = 0.80;
  double minor_revert_factor = 0.42;
  double major_recover_factor = 1.22;
  /// Fraction of hashpower willing to switch per hour (loyalists stay).
  double reevaluation_fraction = 0.3;
  /// Relative profitability margin required to switch (friction).
  double hysteresis = 0.08;
  std::uint64_t seed = 1711;
  /// Decision-epoch execution mode of the underlying chain simulator
  /// (`chain::ChainSimOptions::epoch_lanes`): 0 keeps the sequential
  /// policy scan, >= 1 selects the sharded simultaneous-move epoch (a
  /// *different* — equally valid — dynamics whose results are
  /// bit-identical at any lane count).
  std::size_t epoch_lanes = 0;
};

struct Fig1ReplayPoint {
  double t_hours = 0.0;
  double major_price = 0.0;
  double minor_price = 0.0;
  double major_hash = 0.0;       ///< hash-units
  double minor_hash = 0.0;
  double minor_difficulty = 0.0; ///< the EDA chain's difficulty
};

struct Fig1ReplayResult {
  std::vector<Fig1ReplayPoint> series;  ///< hourly
  double peak_minor_share = 0.0;        ///< max minor/(major+minor)
  double peak_day = 0.0;
  std::uint64_t migrations = 0;
  /// Time-averaged minor-chain hashrate share before the shock, inside the
  /// flip window [shock, revert], and after the reversal — the three
  /// phases of Figure 1b.
  double pre_shock_share = 0.0;
  double flip_window_share = 0.0;
  double post_revert_share = 0.0;
};

/// Runs the coupled replay. Chain 0 = major (fixed-window DAA), chain 1 =
/// minor (EDA). Deterministic for a fixed seed.
Fig1ReplayResult run_fig1_replay(const Fig1ReplayParams& params = {});

/// Metric names of `run_fig1_replay_batch` rows.
const std::vector<std::string>& fig1_replay_metrics();

/// One `fig1_replay_metrics()` row from a finished replay — shared by the
/// batch adapter and the golden-replay recorder (replay/golden.hpp).
std::vector<double> fig1_replica_metrics(const Fig1ReplayResult& result);

/// FNV-1a over every deterministic field of a replay result (the hourly
/// series included) — same trajectory-hash contract as
/// `sim::chain_result_hash`.
std::uint64_t fig1_result_hash(const Fig1ReplayResult& result) noexcept;

/// Monte Carlo over the replay: R replicas with per-replica seeds derived
/// from `options.root_seed` (`params.seed` is overridden), fanned across
/// the thread pool; reports {peak_minor_share, peak_day, pre_shock_share,
/// flip_window_share, post_revert_share, migrations} with mean/CI —
/// bit-identical at any thread count.
sim::TrajectoryBatchResult run_fig1_replay_batch(
    const Fig1ReplayParams& params, const sim::TrajectoryBatchOptions& options);

}  // namespace goc::market
