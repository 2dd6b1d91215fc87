#include "market/fig1_replay.hpp"

#include <algorithm>
#include <cmath>

#include "market/price_process.hpp"
#include "util/assert.hpp"
#include "util/fnv.hpp"

namespace goc::market {
namespace {

constexpr double kSubsidy = 12.5;          // coins per block, both chains
constexpr double kTargetInterval = 1.0 / 6.0;  // hours per block

/// Precomputes an hourly price path (deterministic for the rng).
std::vector<double> price_path(double price0, double vol_daily,
                               const std::vector<ScheduledShockProcess::Shock>& shocks,
                               std::size_t hours, Rng& rng) {
  ScheduledShockProcess process(
      std::make_unique<GbmProcess>(price0, 0.0, vol_daily), shocks);
  std::vector<double> path;
  path.reserve(hours + 1);
  path.push_back(process.price());
  for (std::size_t h = 0; h < hours; ++h) {
    path.push_back(process.step(1.0, rng));
  }
  return path;
}

}  // namespace

Fig1ReplayResult run_fig1_replay(const Fig1ReplayParams& params) {
  GOC_CHECK_ARG(params.miners >= 8, "replay needs a meaningful population");
  GOC_CHECK_ARG(params.shock_day < params.revert_day &&
                    params.revert_day < params.days,
                "shock must precede reversal within the horizon");
  Rng rng(params.seed);
  const auto hours = static_cast<std::size_t>(params.days * 24.0);
  const double shock_h = params.shock_day * 24.0;
  const double revert_h = params.revert_day * 24.0;

  // Exogenous price paths (Figure 1a).
  const std::vector<double> major_price =
      price_path(params.major_price0, 0.035,
                 {{shock_h, params.major_dip_factor},
                  {revert_h, params.major_recover_factor}},
                 hours, rng);
  const std::vector<double> minor_price =
      price_path(params.minor_price0, 0.06,
                 {{shock_h, params.minor_spike_factor},
                  {revert_h, params.minor_revert_factor}},
                 hours, rng);

  // Miner population: heavy-tailed, ~1/8 starting on the minor chain
  // (post-fork loyalists), the rest on the major chain.
  std::vector<double> powers;
  std::vector<std::size_t> assignment;
  double major_mass = 0.0;
  double minor_mass = 0.0;
  for (std::size_t i = 0; i < params.miners; ++i) {
    const double p = std::min(4000.0, std::ceil(rng.pareto(50.0, 1.16)));
    powers.push_back(p);
    const std::size_t chain = (i % 8 == 0) ? 1 : 0;
    assignment.push_back(chain);
    (chain == 0 ? major_mass : minor_mass) += p;
  }
  GOC_ASSERT(minor_mass > 0.0, "minor chain needs initial loyalists");

  // Difficulties calibrated to the initial split (both at protocol cadence).
  std::vector<chain::ChainSpec> chains;
  chains.push_back(chain::ChainSpec{
      "major", major_mass * kTargetInterval, kTargetInterval,
      kSubsidy * major_price.front(),
      std::make_unique<chain::FixedWindowRetarget>(72, kTargetInterval)});
  chains.push_back(chain::ChainSpec{
      "minor", minor_mass * kTargetInterval, kTargetInterval,
      kSubsidy * minor_price.front(),
      std::make_unique<chain::EmergencyAdjuster>(72, kTargetInterval,
                                                 /*gap=*/1.0, 0.20)});

  chain::ChainSimOptions options;
  options.duration_hours = static_cast<double>(hours);
  options.decision_interval_hours = 1.0;
  options.policy = chain::MinerPolicy::kMyopicDifficulty;
  options.reevaluation_fraction = params.reevaluation_fraction;
  options.myopic_hysteresis = params.hysteresis;
  options.seed = params.seed ^ 0xF161;
  options.epoch_lanes = params.epoch_lanes;

  chain::MultiChainSimulator sim(std::move(powers), std::move(chains), options,
                                 std::move(assignment));
  sim.set_reward_hook([&](std::size_t chain_index, double t_hours) {
    const auto h = std::min(static_cast<std::size_t>(t_hours),
                            hours);
    const double price =
        chain_index == 0 ? major_price[h] : minor_price[h];
    return kSubsidy * price;
  });

  const chain::ChainSimResult raw = sim.run();

  Fig1ReplayResult result;
  result.migrations = raw.migrations;
  result.series.reserve(raw.timeline.size());
  double pre_sum = 0.0, flip_sum = 0.0, post_sum = 0.0;
  std::size_t pre_n = 0, flip_n = 0, post_n = 0;
  for (const chain::TimelinePoint& point : raw.timeline) {
    const auto h = std::min(static_cast<std::size_t>(point.t_hours), hours);
    Fig1ReplayPoint out;
    out.t_hours = point.t_hours;
    out.major_price = major_price[h];
    out.minor_price = minor_price[h];
    out.major_hash = point.hashrate[0];
    out.minor_hash = point.hashrate[1];
    out.minor_difficulty = point.difficulty[1];
    result.series.push_back(out);
    const double total = out.major_hash + out.minor_hash;
    if (total > 0.0) {
      const double share = out.minor_hash / total;
      if (share > result.peak_minor_share) {
        result.peak_minor_share = share;
        result.peak_day = point.t_hours / 24.0;
      }
      if (point.t_hours < shock_h) {
        pre_sum += share;
        ++pre_n;
      } else if (point.t_hours < revert_h) {
        flip_sum += share;
        ++flip_n;
      } else {
        post_sum += share;
        ++post_n;
      }
    }
  }
  if (pre_n > 0) result.pre_shock_share = pre_sum / static_cast<double>(pre_n);
  if (flip_n > 0) result.flip_window_share = flip_sum / static_cast<double>(flip_n);
  if (post_n > 0) result.post_revert_share = post_sum / static_cast<double>(post_n);
  return result;
}

const std::vector<std::string>& fig1_replay_metrics() {
  static const std::vector<std::string> kNames = {
      "peak_minor_share", "peak_day",          "pre_shock_share",
      "flip_window_share", "post_revert_share", "migrations"};
  return kNames;
}

std::vector<double> fig1_replica_metrics(const Fig1ReplayResult& result) {
  return {result.peak_minor_share,
          result.peak_day,
          result.pre_shock_share,
          result.flip_window_share,
          result.post_revert_share,
          static_cast<double>(result.migrations)};
}

std::uint64_t fig1_result_hash(const Fig1ReplayResult& result) noexcept {
  std::uint64_t h = fnv::kOffset;
  for (const Fig1ReplayPoint& p : result.series) {
    fnv::mix_bytes(h, p.t_hours);
    fnv::mix_bytes(h, p.major_price);
    fnv::mix_bytes(h, p.minor_price);
    fnv::mix_bytes(h, p.major_hash);
    fnv::mix_bytes(h, p.minor_hash);
    fnv::mix_bytes(h, p.minor_difficulty);
  }
  fnv::mix_bytes(h, result.peak_minor_share);
  fnv::mix_bytes(h, result.peak_day);
  fnv::mix_bytes(h, result.migrations);
  fnv::mix_bytes(h, result.pre_shock_share);
  fnv::mix_bytes(h, result.flip_window_share);
  fnv::mix_bytes(h, result.post_revert_share);
  return h;
}

sim::TrajectoryBatchResult run_fig1_replay_batch(
    const Fig1ReplayParams& params,
    const sim::TrajectoryBatchOptions& options) {
  return sim::run_trajectory_batch(
      fig1_replay_metrics(), options,
      [&params](std::size_t, std::uint64_t seed) {
        Fig1ReplayParams replica = params;
        replica.seed = seed;
        return fig1_replica_metrics(run_fig1_replay(replica));
      });
}

}  // namespace goc::market
