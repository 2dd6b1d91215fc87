#include "market/scenario.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace goc::market {
namespace {

std::vector<std::int64_t> pareto_powers(std::size_t miners, std::int64_t lo,
                                        std::int64_t hi, Rng& rng) {
  std::vector<std::int64_t> powers;
  powers.reserve(miners);
  for (std::size_t i = 0; i < miners; ++i) {
    const double raw = rng.pareto(static_cast<double>(lo), 1.16);
    powers.push_back(
        std::min<std::int64_t>(hi, static_cast<std::int64_t>(std::ceil(raw))));
  }
  return powers;
}

}  // namespace

std::vector<CoinSpec> Scenario::clone_coins() const {
  std::vector<CoinSpec> copies;
  copies.reserve(coins.size());
  for (const CoinSpec& c : coins) copies.push_back(c.clone());
  return copies;
}

MarketSimulator Scenario::make_simulator(std::uint64_t seed) const {
  MarketOptions replica_options = options;
  replica_options.seed = seed;
  return MarketSimulator(miner_powers, clone_coins(), replica_options);
}

Scenario fork_flip_prototype(const ForkFlipParams& params) {
  GOC_CHECK_ARG(params.miners >= 2, "scenario needs at least two miners");
  GOC_CHECK_ARG(params.shock_day < params.revert_day &&
                    params.revert_day < params.days,
                "shock must precede reversal within the horizon");
  Rng rng(params.seed);

  const double shock_h = params.shock_day * 24.0;
  const double revert_h = params.revert_day * 24.0;

  std::vector<CoinSpec> coins;
  // Major coin: deep fee market, low drift, moderate vol.
  coins.emplace_back(
      "BTC", 12.5, 6.0,
      std::make_unique<ScheduledShockProcess>(
          std::make_unique<GbmProcess>(params.major_price0, 0.002, 0.035),
          std::vector<ScheduledShockProcess::Shock>{
              {shock_h, params.major_dip_factor},
              {revert_h, params.major_recover_factor}}),
      FeeMarket(/*tx_per_hour=*/12000.0, /*fee_scale=*/0.0002,
                /*fee_shape=*/1.8));
  // Minor spin-off: thinner fees, higher vol, scripted spike + reversal.
  coins.emplace_back(
      "BCH", 12.5, 6.0,
      std::make_unique<ScheduledShockProcess>(
          std::make_unique<GbmProcess>(params.minor_price0, 0.001, 0.06),
          std::vector<ScheduledShockProcess::Shock>{
              {shock_h, params.minor_spike_factor},
              {revert_h, params.minor_revert_factor}}),
      FeeMarket(/*tx_per_hour=*/900.0, /*fee_scale=*/0.0002,
                /*fee_shape=*/1.8));

  Scenario scenario;
  scenario.miner_powers =
      pareto_powers(params.miners, params.min_power, params.max_power, rng);
  scenario.coins = std::move(coins);
  scenario.options.epoch_hours = 1.0;
  scenario.options.epochs = static_cast<std::size_t>(params.days * 24.0);
  scenario.options.br_steps_per_epoch = 6;
  scenario.options.seed = params.seed;
  return scenario;
}

MarketSimulator fork_flip_scenario(const ForkFlipParams& params) {
  return fork_flip_prototype(params).make_simulator(params.seed);
}

Scenario random_market_prototype(std::size_t miners, std::size_t coins,
                                 double days, std::uint64_t seed) {
  GOC_CHECK_ARG(coins >= 1, "market needs at least one coin");
  Rng rng(seed);
  std::vector<CoinSpec> specs;
  specs.reserve(coins);
  for (std::size_t c = 0; c < coins; ++c) {
    // Geometric size decay from the top coin, mild idiosyncratic vol.
    const double price0 = 5000.0 / std::pow(1.9, static_cast<double>(c));
    specs.emplace_back(
        "coin" + std::to_string(c), 12.5, 6.0,
        std::make_unique<JumpDiffusionProcess>(price0, 0.0, 0.05, 0.15, 0.0, 0.12),
        FeeMarket(3000.0 / std::pow(2.0, static_cast<double>(c)), 0.0002, 1.8));
  }
  Scenario scenario;
  scenario.miner_powers = pareto_powers(miners, 50, 4000, rng);
  scenario.coins = std::move(specs);
  scenario.options.epoch_hours = 1.0;
  scenario.options.epochs = static_cast<std::size_t>(days * 24.0);
  scenario.options.br_steps_per_epoch = 6;
  scenario.options.seed = seed;
  return scenario;
}

}  // namespace goc::market
