/// \file sweep_demo.cpp
/// The sweep engine in ~40 lines: expand a miner-count × coin-count ×
/// scheduler grid, fan it across every core, and emit the per-point table
/// (`--csv=<base>` / `--json=<base>` also save it as `<base>.csv` /
/// `<base>.json`, as every bench does).
///
///   ./sweep_demo --trials=5 --seed=42 --csv=sweep --json=sweep
///
/// Determinism: rerunning with any `--threads` value reproduces the exact
/// same records, and so the same table apart from its `ms_mean` timing
/// column — per-task seeds depend only on the root seed and the task's
/// position in the grid.
///
/// A second section demonstrates the shared Monte Carlo batch flags
/// (bench_common.hpp): a two-chain better-response study fanned as a
/// trajectory batch, with CI-driven stopping, crash-safe checkpoints and
/// sharded decision epochs all reachable from the command line:
///
///   ./sweep_demo --replicas=32 --stop-metric=blocks_total --stop-tol=0.02
///
/// stops adding replicas once the 95% CI half-width of `blocks_total` is
/// below 0.02; add `--stop-rel` to read that tolerance relative to |mean|,
/// `--checkpoint=demo.gocr` for crash-safe checkpoints and
/// `--epoch-lanes=4` to shard each decision epoch.

#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "chain/chain_sim.hpp"
#include "chain/difficulty.hpp"
#include "engine/sweep.hpp"
#include "sim/batch_cli.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace goc;
  const Cli cli = bench::parse_cli(
      argc, argv, {"trials", "seed", "epoch-lanes"}, sim::batch_cli_names());
  const std::size_t trials = cli.get_u64("trials", 5);
  const std::uint64_t seed = cli.get_u64("seed", 42);
  const std::size_t threads = cli.get_u64("threads", 0);  // 0 = all cores
  // The batch flags of the second section are read here too, so a
  // malformed value refuses the run before it prints anything:
  // --replicas/--stop-*/--checkpoint (sim::apply_batch_cli) and
  // --epoch-lanes (sharded simultaneous-move decision epochs; 0 keeps
  // the sequential policy scan).
  const std::size_t epoch_lanes = sim::epoch_lanes_from_cli(cli);
  sim::TrajectoryBatchOptions batch;
  batch.replicas = 4;
  batch.root_seed = seed;
  batch.threads = threads;
  sim::apply_batch_cli(cli, batch);

  engine::SweepSpec spec;
  spec.base.power_shape = PowerShape::kPareto;
  spec.base.power_lo = 10;
  spec.base.reward_shape = RewardShape::kMajors;
  spec.base.reward_lo = 100;
  spec.base.reward_hi = 100000;
  spec.miner_counts = {20, 100};
  spec.coin_counts = {3, 6};
  spec.scheduler_kinds = {SchedulerKind::kRandomMove,
                          SchedulerKind::kRoundRobin,
                          SchedulerKind::kMaxGain};
  spec.trials = trials;
  spec.root_seed = seed;
  spec.audit_max_miners = 50;  // verify Theorem 1's potential on small runs
  spec.validate();             // refuses --trials=0 before any output

  std::cout << "Expanding " << spec.grid_size() << " scenarios...\n";
  const engine::SweepRunner runner({threads});
  const engine::SweepResult result = runner.run(spec);

  bench::emit(cli, result.to_table(),
              "Sweep: convergence + equilibrium quality");
  std::cout << "[" << result.records().size() << " scenarios on "
            << result.threads() << " lanes in "
            << fmt_double(result.total_wall_ms(), 1) << " ms; all converged: "
            << (result.all_converged() ? "yes" : "NO") << "]\n";

  // Monte Carlo trajectory batch, wired through the shared flags.
  const auto chain_factory = [&](std::uint64_t task_seed) {
    std::vector<chain::ChainSpec> chains;
    chains.push_back(chain::ChainSpec{
        "heavy", 600.0, 1.0 / 6.0, 30.0,
        std::make_unique<chain::FixedWindowRetarget>(10, 1.0 / 6.0)});
    chains.push_back(chain::ChainSpec{
        "light", 600.0, 1.0 / 6.0, 10.0,
        std::make_unique<chain::FixedWindowRetarget>(10, 1.0 / 6.0)});
    chain::ChainSimOptions opts;
    opts.duration_hours = 24.0 * 5;
    opts.policy = chain::MinerPolicy::kBetterResponse;
    opts.reevaluation_fraction = 0.5;
    opts.seed = task_seed;
    opts.epoch_lanes = epoch_lanes;
    opts.record_timeline = false;
    std::vector<double> powers(12, 10.0);
    return chain::MultiChainSimulator(std::move(powers), std::move(chains),
                                      opts);
  };
  const sim::TrajectoryBatchResult batch_result =
      sim::run_chain_batch(chain_factory, batch);
  batch_result.to_table().print(
      std::cout, "Chain trajectory batch (mean / 95% CI per metric)");
  std::cout << "\n[batch: " << batch_result.replicas() << " of "
            << batch_result.replicas_requested() << " replicas ("
            << sim::stop_reason_name(batch_result.stop_reason())
            << "); epoch_lanes=" << epoch_lanes << "; values_hash "
            << batch_result.values_hash() << "]\n";

  return result.all_converged() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return goc::run_main(argc, argv, run); }
