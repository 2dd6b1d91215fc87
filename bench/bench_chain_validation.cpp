/// \file bench_chain_validation.cpp
/// Experiment E9 — grounding the model: proof-of-work reward shares and
/// difficulty dynamics.
///
/// The paper's model assumes each coin divides its reward in proportion to
/// invested power. Part A validates that abstraction from first principles
/// as a Monte Carlo batch: R independent block-race replicas per horizon,
/// fanned across the thread pool by the trajectory engine, each miner's
/// realized fiat share converging to its power share (law of large numbers
/// over block lotteries) — now with the variance quantified (mean ± 95% CI
/// across replicas, bit-identical at any `--threads`). Part B shows the
/// migration equilibrium of the induced game emerging from chain-level
/// dynamics. Part C exhibits what the abstraction hides: the EDA
/// difficulty rule plus myopic profitability-chasers yields the 2017
/// hashrate sawtooth (Figure 1b's fine structure), while game-semantics
/// miners settle. Exits 1 unless every Part B final split is a pure
/// equilibrium of the game (`is_equilibrium`) and the game-semantics
/// miners of Part C make no late share change.

#include <algorithm>
#include <cmath>

#include "bench_common.hpp"
#include "chain/chain_sim.hpp"
#include "chain/difficulty.hpp"
#include "core/moves.hpp"
#include "sim/batch_cli.hpp"
#include "sim/trajectory.hpp"
#include "util/stats.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace goc;
  using namespace goc::chain;
  const Cli cli = bench::parse_cli(
      argc, argv, {"seed", "quick", "adaptive"}, sim::batch_cli_names());
  const std::uint64_t seed0 = cli.get_u64("seed", 9);
  const bool quick = cli.get_bool("quick", false);
  const std::size_t replicas = cli.get_u64("replicas", quick ? 4 : 16);
  // Part A's batch options, read before the banner so a malformed batch
  // flag refuses the run before any output. --adaptive replaces the fixed
  // replica count with a CI-driven stopping rule on share_mae — replicas
  // is then the floor, 8x replicas the cap; --stop-* / --checkpoint
  // override that preset.
  sim::TrajectoryBatchOptions part_a;
  part_a.replicas = replicas;
  if (cli.get_bool("adaptive", false)) {
    sim::StoppingRule rule;
    rule.metric = "share_mae";
    rule.tolerance = 0.25;  // 25% relative half-width on the MAE trend
    rule.relative = true;
    rule.min_replicas = std::max<std::size_t>(2, replicas);
    rule.max_replicas = 8 * std::max<std::size_t>(2, replicas);
    rule.wave = std::max<std::size_t>(2, replicas);
    part_a.stopping = rule;
  }
  sim::apply_batch_cli(cli, part_a);

  bench::banner("E9 — chain-level validation of the proportional-reward "
                "model",
                "Exponential block races with power-proportional winner "
                "lotteries; difficulty adjustment per real protocols. "
                "Part A is a Monte Carlo batch (mean ± 95% CI over " +
                    std::to_string(replicas) + " replicas).");

  // Builds the Part A single-chain validation scenario.
  const auto make_validation = [&](double days, std::uint64_t seed) {
    std::vector<ChainSpec> chains;
    chains.push_back(ChainSpec{"solo", 600.0, 1.0 / 6.0, 10.0,
                               std::make_unique<FixedWindowRetarget>(
                                   10, 1.0 / 6.0)});
    ChainSimOptions opts;
    opts.duration_hours = days * 24.0;
    opts.policy = MinerPolicy::kStatic;
    opts.seed = seed;
    opts.record_timeline = false;
    return MultiChainSimulator({100.0, 50.0, 30.0, 20.0}, std::move(chains),
                               opts);
  };

  // Part A: realized vs predicted reward share, by horizon — batched.
  Table share({"horizon_days", "replicas", "stop", "blocks_mean",
               "share_MAE_mean", "share_MAE_ci95", "largest_realized_mean",
               "largest_power_share"});
  for (const double days : {2.0, 10.0, 60.0, 240.0}) {
    sim::TrajectoryBatchOptions batch = part_a;
    batch.root_seed = seed0 + static_cast<std::uint64_t>(days);
    // The horizon suffix keeps the four studies from sharing one checkpoint
    // file (their root seeds differ, so a shared file would refuse to
    // resume).
    if (batch.checkpoint.has_value()) {
      batch.checkpoint->path +=
          "." + std::to_string(static_cast<int>(days)) + "d";
    }
    const sim::TrajectoryBatchResult result = sim::run_trajectory_batch(
        {"blocks", "share_mae", "largest_realized"}, batch,
        [&](std::size_t, std::uint64_t seed) {
          MultiChainSimulator sim = make_validation(days, seed);
          const ChainSimResult r = sim.run();
          double total = 0.0;
          for (const double v : r.miner_rewards_fiat) total += v;
          return std::vector<double>{
              static_cast<double>(r.blocks_per_chain[0]),
              r.share_prediction_mae,
              total > 0.0 ? r.miner_rewards_fiat[0] / total : 0.0};
        });
    share.row() << fmt_double(days, 0)
                << (fmt_group(result.replicas()) + "/" +
                    fmt_group(result.replicas_requested()))
                << sim::stop_reason_name(result.stop_reason())
                << fmt_double(result.summary("blocks").mean, 0)
                << fmt_double(result.summary("share_mae").mean, 4)
                << fmt_double(result.summary("share_mae").ci95_halfwidth, 4)
                << fmt_double(result.summary("largest_realized").mean, 3)
                << fmt_double(0.5, 3);
  }
  bench::emit(cli, share,
              "Part A — reward share vs power share, Monte Carlo "
              "(theory: MAE -> 0 as horizon grows)",
              "share");

  // Part B: migration equilibrium from chain dynamics.
  constexpr std::size_t kSplitMiners = 16;
  std::size_t off_equilibrium = 0;
  Table split({"weights", "equilibrium_heavy_share", "simulated_heavy_share"});
  for (const auto& [heavy, light] :
       std::vector<std::pair<std::int64_t, std::int64_t>>{
           {30, 10}, {20, 20}, {50, 10}}) {
    const auto result = [&, heavy = heavy, light = light] {
      std::vector<ChainSpec> chains;
      chains.push_back(ChainSpec{
          "heavy", 600.0, 1.0 / 6.0, static_cast<double>(heavy),
          std::make_unique<FixedWindowRetarget>(10, 1.0 / 6.0)});
      chains.push_back(ChainSpec{
          "light", 600.0, 1.0 / 6.0, static_cast<double>(light),
          std::make_unique<FixedWindowRetarget>(10, 1.0 / 6.0)});
      ChainSimOptions opts;
      opts.duration_hours = 24.0 * 20;
      opts.policy = MinerPolicy::kBetterResponse;
      opts.reevaluation_fraction = 0.5;
      opts.seed = seed0 + 1;
      std::vector<double> powers(kSplitMiners, 10.0);
      return MultiChainSimulator(std::move(powers), std::move(chains), opts)
          .run();
    }();
    // The prediction is the paper's game on the same population. With
    // equal powers a configuration is fixed up to relabelling by the count
    // k of miners on the heavy coin, so the equilibria are the counts
    // whose configuration passes `is_equilibrium`.
    const Game game(System::from_integer_powers(
                        std::vector<std::int64_t>(kSplitMiners, 10), 2),
                    RewardFunction::from_integers({heavy, light}));
    const auto equilibrium_at = [&](std::size_t k) {
      std::vector<CoinId> assignment(kSplitMiners, CoinId(1));
      std::fill_n(assignment.begin(), k, CoinId(0));
      return is_equilibrium(
          game, Configuration(game.system_ptr(), std::move(assignment)));
    };
    std::string predicted;
    for (std::size_t k = 0; k <= kSplitMiners; ++k) {
      if (!equilibrium_at(k)) continue;
      if (!predicted.empty()) predicted += " or ";
      predicted += fmt_double(
          static_cast<double>(k) / static_cast<double>(kSplitMiners), 3);
    }
    const auto& last = result.timeline.back();
    const double total = last.hashrate[0] + last.hashrate[1];
    const auto simulated_k =
        static_cast<std::size_t>(std::lround(last.hashrate[0] / 10.0));
    if (!equilibrium_at(simulated_k)) ++off_equilibrium;
    split.row() << (std::to_string(heavy) + ":" + std::to_string(light))
                << predicted << fmt_double(last.hashrate[0] / total, 3);
  }
  bench::emit(cli, split,
              "Part B — hashrate split at migration equilibrium "
              "(theory: a pure equilibrium of the game)",
              "split");

  // Part C: EDA sawtooth vs game-semantics stability.
  std::uint64_t game_late_changes = 0;
  Table churn({"policy", "migrations", "late_share_changes", "bch_share_sd%"});
  for (const MinerPolicy policy :
       {MinerPolicy::kMyopicDifficulty, MinerPolicy::kBetterResponse}) {
    const auto result = [&] {
      std::vector<ChainSpec> chains;
      chains.push_back(
          ChainSpec{"btc", 20.0, 1.0 / 6.0, 60.0,
                    std::make_unique<SmaRetarget>(20, 1.0 / 6.0, 1.2)});
      chains.push_back(ChainSpec{"bch", 20.0, 1.0 / 6.0, 10.0,
                                 std::make_unique<EmergencyAdjuster>(
                                     20, 1.0 / 6.0, 0.5, 0.20)});
      ChainSimOptions opts;
      opts.duration_hours = 24.0 * 20;
      opts.policy = policy;
      opts.reevaluation_fraction = 0.5;
      opts.seed = seed0 + 2;
      std::vector<double> powers(12, 10.0);
      return MultiChainSimulator(std::move(powers), std::move(chains), opts)
          .run();
    }();
    std::uint64_t late_changes = 0;
    RunningStats bch_share;
    for (std::size_t i = result.timeline.size() / 2;
         i < result.timeline.size(); ++i) {
      const auto& p = result.timeline[i];
      bch_share.add(p.hashrate[1] / (p.hashrate[0] + p.hashrate[1]));
      if (i + 1 < result.timeline.size() &&
          std::fabs(result.timeline[i + 1].hashrate[1] - p.hashrate[1]) >
              1e-9) {
        ++late_changes;
      }
    }
    if (policy == MinerPolicy::kBetterResponse) {
      game_late_changes = late_changes;
    }
    churn.row() << (policy == MinerPolicy::kMyopicDifficulty
                        ? "myopic (reward/difficulty)"
                        : "game better-response")
                << result.migrations << late_changes
                << fmt_double(100.0 * bch_share.stddev(), 2);
  }
  bench::emit(cli, churn,
              "Part C — EDA sawtooth: myopic chasers churn forever, "
              "game-semantics miners settle",
              "churn");
  std::cout << "[Part B: " << off_equilibrium
            << " final splits off equilibrium; Part C: game-semantics "
               "late share changes "
            << game_late_changes << "]\n";
  return off_equilibrium == 0 && game_late_changes == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return goc::run_main(argc, argv, run); }
