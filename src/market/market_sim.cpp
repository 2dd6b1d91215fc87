#include "market/market_sim.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace goc::market {
namespace {

std::shared_ptr<const System> build_system(
    const std::vector<std::int64_t>& powers, std::size_t num_coins) {
  std::vector<Rational> rp;
  rp.reserve(powers.size());
  for (const auto v : powers) rp.emplace_back(v);
  return std::make_shared<const System>(std::move(rp), num_coins);
}

}  // namespace

MarketSimulator::MarketSimulator(std::vector<std::int64_t> miner_powers,
                                 std::vector<CoinSpec> coins,
                                 MarketOptions options)
    : system_(build_system(miner_powers, coins.size())),
      coins_(std::move(coins)),
      options_(options),
      rng_(options.seed),
      scheduler_(make_scheduler(options.scheduler, options.seed ^ 0x5eedULL)) {
  GOC_CHECK_ARG(!coins_.empty(), "market needs at least one coin");
  GOC_CHECK_ARG(options_.epoch_hours > 0.0, "epoch length must be positive");
  for (const CoinSpec& c : coins_) {
    GOC_CHECK_ARG(c.price != nullptr, "every coin needs a price process");
    GOC_CHECK_ARG(c.block_subsidy >= 0.0, "subsidy must be nonnegative");
    GOC_CHECK_ARG(c.blocks_per_hour > 0.0, "block cadence must be positive");
  }
  // Start from the greedy assignment induced by initial weights: miners
  // begin on the initially heaviest coin, then immediately adapt; this
  // avoids an artificial all-on-coin-0 transient when coin 0 is minor.
  std::size_t heaviest = 0;
  double best = -1.0;
  for (std::size_t c = 0; c < coins_.size(); ++c) {
    const double w = coins_[c].price->price() *
                     (coins_[c].block_subsidy * coins_[c].blocks_per_hour);
    if (w > best) {
      best = w;
      heaviest = c;
    }
  }
  ws_ = std::make_unique<EpochWorkspace>(
      system_, Configuration::all_at(
                   system_, CoinId(static_cast<std::uint32_t>(heaviest))));
}

void MarketSimulator::inject_whale(std::size_t coin, double fee) {
  GOC_CHECK_ARG(coin < coins_.size(), "unknown coin index");
  coins_[coin].fees.inject_whale(fee);
}

const Game& MarketSimulator::current_game() const {
  GOC_CHECK_ARG(ws_->epochs_run > 0, "no epoch has run yet");
  return ws_->game;
}

void MarketSimulator::step_coin_price(std::size_t c, EpochRecord& record) {
  record.prices[c] = coins_[c].price->step(options_.epoch_hours, rng_);
}

void MarketSimulator::step_coin_fees(std::size_t c, EpochRecord& record) {
  std::vector<Rational>& weights = ws_->weights;
  CoinSpec& coin = coins_[c];
  coin.fees.accrue(options_.epoch_hours, rng_);
  const double fees_native = coin.fees.collect();
  const double subsidy_native =
      coin.block_subsidy * coin.blocks_per_hour * options_.epoch_hours;
  const double weight_fiat = (subsidy_native + fees_native) * record.prices[c];
  record.weights[c] = weight_fiat;
  // Quantize at the boundary; weights must stay positive for the game.
  const double clamped = std::max(weight_fiat, 1e-9);
  weights[c] = Rational::from_double(clamped, options_.weight_denominator);
  if (!weights[c].is_positive()) weights[c] = Rational(1, 1000000);
}

void MarketSimulator::finish_epoch(EpochRecord& record) {
  // Induced game and partial better-response adjustment. Zero-rebuild:
  // swap this epoch's weights into the workspace game and
  // reweight-invalidate the index — no Game, RewardFunction or index
  // construction, no allocation. pick_indexed picks the exact move the
  // scan-based pick would, drawing the same variates.
  Game& game = ws_->game;
  Configuration& config = ws_->config;
  dynamics::BestResponseIndex& index = ws_->index;
  const std::uint64_t cap = options_.br_steps_per_epoch == 0
                                ? UINT64_MAX
                                : options_.br_steps_per_epoch;
  std::uint64_t steps = 0;
  game.reweight(ws_->weights);
  index.reweight();
  while (steps < cap) {
    const auto move = scheduler_->pick_indexed(game, config, index);
    if (!move) break;
    config.move(move->miner, move->to);
    index.sync(config);
    ++steps;
  }
  record.at_equilibrium = index.at_equilibrium();
  record.br_steps = steps;
  ++ws_->epochs_run;

  // Hashrate shares.
  const double total = system_->total_power().to_double();
  for (std::size_t c = 0; c < coins_.size(); ++c) {
    record.hashrate_share[c] =
        config.mass(CoinId(static_cast<std::uint32_t>(c))).to_double() / total;
  }
}

std::vector<EpochRecord> MarketSimulator::run() {
  // Preallocate the *entire* output: after this block the epoch loop does
  // not touch the heap — epochs write into their records in place, weights
  // are copied into the workspace game's existing storage, and the index
  // rescans its preallocated strips (tests/test_sim.cpp counts the
  // allocations to prove it).
  std::vector<EpochRecord> records(options_.epochs);
  for (EpochRecord& r : records) {
    r.prices.resize(coins_.size());
    r.weights.resize(coins_.size());
    r.hashrate_share.resize(coins_.size());
  }
  for (std::size_t e = 0; e < options_.epochs; ++e) {
    EpochRecord& record = records[e];
    record.t_hours = static_cast<double>(e + 1) * options_.epoch_hours;
    for (std::size_t c = 0; c < coins_.size(); ++c) {
      step_coin_price(c, record);
      step_coin_fees(c, record);
    }
    finish_epoch(record);
  }
  return records;
}

}  // namespace goc::market
