/// \file bench_des.cpp
/// The stochastic hot path: throughput of the chain simulator's event core
/// (`sim::EventCore`: POD events, enum switch, one pending event per stream
/// with in-place re-arm, per-chain member lists) and of the market's
/// zero-rebuild epoch loop.
/// Each row prints its trajectory hash, so a run is comparable byte for
/// byte with the committed baseline.
///
/// The second table exercises layer 2: a Monte Carlo chain batch fanned
/// across the thread pool, replayed on one lane — bit-identical aggregates
/// at any `--threads`, with the parallel speedup reported.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "chain/chain_sim.hpp"
#include "chain/difficulty.hpp"
#include "market/fee_market.hpp"
#include "market/market_sim.hpp"
#include "market/price_process.hpp"
#include "sim/batch_cli.hpp"
#include "sim/scenarios.hpp"
#include "sim/trajectory.hpp"
#include "util/rng.hpp"

namespace {

using namespace goc;

// ------------------------------------------------------------- workloads

/// The reference chain workload lives in sim/scenarios.hpp now — the serve
/// daemon submits the identical scenario, and CI asserts the daemon batch
/// and this bench produce bit-identical `values_hash`.
chain::MultiChainSimulator make_reference_chain(std::size_t miners,
                                                std::size_t num_chains,
                                                double days,
                                                std::uint64_t seed) {
  sim::ReferenceChainParams params;
  params.miners = miners;
  params.chains = num_chains;
  params.days = days;
  return sim::make_reference_chain(params, sim::EngineKind::kFlat, seed);
}

/// The EDA stress: few miners, hot re-arm churn (every epoch moves
/// hashrate, so pending races are replaced constantly) — the
/// queue-mechanics case.
chain::MultiChainSimulator make_eda_chain(double days, std::uint64_t seed) {
  std::vector<chain::ChainSpec> chains;
  chains.push_back(chain::ChainSpec{
      "btc", 20.0, 1.0 / 6.0, 60.0,
      std::make_unique<chain::SmaRetarget>(20, 1.0 / 6.0, 1.2)});
  chains.push_back(chain::ChainSpec{
      "bch", 20.0, 1.0 / 6.0, 10.0,
      std::make_unique<chain::EmergencyAdjuster>(20, 1.0 / 6.0, 0.5, 0.20)});
  chain::ChainSimOptions options;
  options.duration_hours = days * 24.0;
  options.policy = chain::MinerPolicy::kMyopicDifficulty;
  options.reevaluation_fraction = 0.5;
  options.seed = seed;
  options.record_timeline = false;
  std::vector<double> powers(12, 10.0);
  return chain::MultiChainSimulator(std::move(powers), std::move(chains),
                                    options);
}

market::MarketSimulator make_market(std::size_t epochs, std::uint64_t seed) {
  std::vector<market::CoinSpec> coins;
  coins.emplace_back("major", 12.5, 6.0,
                     std::make_unique<market::GbmProcess>(7400.0, 0.0, 0.03),
                     market::FeeMarket(400.0, 0.05, 1.5));
  coins.emplace_back("minor", 12.5, 6.0,
                     std::make_unique<market::GbmProcess>(620.0, 0.0, 0.06),
                     market::FeeMarket(60.0, 0.02, 1.5));
  coins.emplace_back("tail", 25.0, 12.0,
                     std::make_unique<market::GbmProcess>(40.0, 0.0, 0.10),
                     market::FeeMarket(10.0, 0.01, 1.5));
  market::MarketOptions options;
  options.epochs = epochs;
  options.seed = seed;
  std::vector<std::int64_t> powers;
  for (std::size_t i = 0; i < 48; ++i) {
    powers.push_back(10 + static_cast<std::int64_t>(i) * 37 % 900);
  }
  return market::MarketSimulator(std::move(powers), std::move(coins), options);
}

/// The decision-epoch workload: a large population under synchronous
/// better-response epochs (`reevaluation_fraction = 1`, hourly decisions,
/// slow block cadence) so `decision_epoch()` dominates the run. Rewards are
/// proportional to each chain's initial hashrate, which puts the population
/// at a better-response equilibrium: every miner still evaluates the full
/// chain menu each epoch — the cost the sharded mode attacks — but nobody
/// migrates, so the apply phase is identical across modes and the table
/// isolates evaluation throughput (the regime the paper's dynamics converge
/// to). Used by the `--adaptive` table to compare the sequential scan
/// (`epoch_lanes = 0`) against the sharded frozen-state mode.
chain::MultiChainSimulator make_epoch_chain(std::size_t miners,
                                            std::size_t num_chains,
                                            double hours,
                                            std::size_t epoch_lanes,
                                            std::uint64_t seed) {
  Rng setup(seed ^ 0xE90CULL);
  std::vector<double> powers;
  powers.reserve(miners);
  for (std::size_t i = 0; i < miners; ++i) {
    powers.push_back(std::min(4000.0, std::ceil(setup.pareto(10.0, 1.16))));
  }
  std::vector<std::size_t> assignment;
  assignment.reserve(miners);
  for (std::size_t i = 0; i < miners; ++i) {
    assignment.push_back(i % num_chains);
  }
  std::vector<double> mass(num_chains, 0.0);
  for (std::size_t i = 0; i < miners; ++i) mass[assignment[i]] += powers[i];

  std::vector<chain::ChainSpec> chains;
  for (std::size_t c = 0; c < num_chains; ++c) {
    // Reward proportional to initial mass: staying strictly dominates every
    // candidate (reward_c·p/(mass_c+p) < reward_cur·p/mass_cur), so the
    // epochs are pure evaluation. One block per hour keeps blocks cheap.
    const double reward = 0.01 * std::max(1.0, mass[c]);
    chains.push_back(chain::ChainSpec{
        "c" + std::to_string(c), std::max(1.0, mass[c]), 1.0, reward,
        std::make_unique<chain::FixedWindowRetarget>(24, 1.0)});
  }
  chain::ChainSimOptions options;
  options.duration_hours = hours;
  options.decision_interval_hours = 1.0;
  options.policy = chain::MinerPolicy::kBetterResponse;
  options.reevaluation_fraction = 1.0;
  options.seed = seed;
  options.record_timeline = false;
  options.epoch_lanes = epoch_lanes;
  return chain::MultiChainSimulator(std::move(powers), std::move(chains),
                                    options, std::move(assignment));
}

struct TimedRun {
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  std::uint64_t hash = 0;
};

template <typename MakeSim>
TimedRun time_chain(const MakeSim& make) {
  goc::bench::Stopwatch watch;
  chain::MultiChainSimulator sim = make();
  const chain::ChainSimResult result = sim.run();
  TimedRun run;
  run.wall_ms = watch.elapsed_ms();
  run.events = result.events_dispatched;
  run.hash = sim::chain_result_hash(result);
  return run;
}

TimedRun time_market(std::size_t epochs, std::uint64_t seed) {
  goc::bench::Stopwatch watch;
  market::MarketSimulator sim = make_market(epochs, seed);
  const auto records = sim.run();
  TimedRun run;
  run.wall_ms = watch.elapsed_ms();
  // One price step + one fee step per coin per epoch, plus the epoch's
  // adjustment — the unit of the market row's events/s.
  run.events = records.size() * (2 * sim.num_coins() + 1);
  run.hash = sim::market_records_hash(records);
  return run;
}

int run(int argc, char** argv) {
  const Cli cli = bench::parse_cli(argc, argv, {"quick", "seed", "adaptive"},
                                   sim::batch_cli_names());
  const bool quick = cli.get_bool("quick", false);
  const std::size_t threads = cli.get_u64("threads", 0);  // 0 = all cores
  const std::uint64_t seed0 = cli.get_u64("seed", 2017);
  const bool with_adaptive = cli.get_bool("adaptive", false);
  // The Monte Carlo batch section's flags are read here, before any
  // output, so a malformed value refuses the run before it starts.
  sim::TrajectoryBatchOptions batch;
  batch.replicas = quick ? 16 : 48;
  batch.root_seed = seed0;
  batch.threads = threads;
  sim::apply_batch_cli(cli, batch);  // --replicas/--stop-*/--checkpoint

  bench::banner(
      "Stochastic simulators (single lane)",
      "Chain rows: sim::EventCore POD events + enum dispatch + member lists; "
      "market row: the zero-rebuild epoch loop. The trajectory hash pins "
      "each row's run byte for byte.");

  bool all_identical = true;
  Table table({"workload", "events", "ms", "events/s", "trajectory hash"});
  const auto add_row = [&](const std::string& name, const TimedRun& run) {
    table.row() << name << fmt_group(run.events) << fmt_double(run.wall_ms, 2)
                << fmt_group(static_cast<std::uint64_t>(
                       1000.0 * static_cast<double>(run.events) / run.wall_ms))
                << std::to_string(run.hash);
  };

  {
    const std::size_t miners = 2048;  // the acceptance reference shape
    const std::size_t num_chains = 128;
    const double days = quick ? 5.0 : 20.0;
    add_row("chain " + std::to_string(miners) + "m x " +
                std::to_string(num_chains) + "c better-response (reference)",
            time_chain([&] {
              return make_reference_chain(miners, num_chains, days, seed0);
            }));
  }
  {
    const double days = quick ? 60.0 : 240.0;
    add_row("chain 12m x 2c EDA sawtooth (re-arm churn)",
            time_chain([&] { return make_eda_chain(days, seed0 + 1); }));
  }
  {
    const std::size_t epochs = quick ? 24 * 30 : 24 * 90;
    add_row("market 48m x 3c epochs", time_market(epochs, seed0 + 2));
  }
  bench::emit(cli, table, "Stochastic simulators (trajectory hash per row)");

  // ---------------------------------------------------- Monte Carlo batch
  const std::size_t replicas = batch.replicas;
  const auto chain_factory = [&](std::uint64_t seed) {
    return make_reference_chain(quick ? 128 : 256, 8, quick ? 10.0 : 20.0,
                                seed);
  };
  bench::Stopwatch watch;
  const sim::TrajectoryBatchResult parallel =
      sim::run_chain_batch(chain_factory, batch);
  const double parallel_ms = watch.elapsed_ms();
  batch.threads = 1;
  batch.checkpoint.reset();  // the 1-lane replay must recompute, not resume
  watch.restart();
  const sim::TrajectoryBatchResult serial =
      sim::run_chain_batch(chain_factory, batch);
  const double serial_ms = watch.elapsed_ms();
  const bool batch_identical = parallel.deterministic_equals(serial);
  all_identical = all_identical && batch_identical;

  bench::emit(cli, parallel.to_table(),
              "Monte Carlo chain batch: " + std::to_string(replicas) +
                  " replicas (mean / 95% CI per metric)",
              "batch");
  std::cout << "[batch: " << replicas << " replicas in "
            << fmt_double(parallel_ms, 1) << " ms; 1-lane replay "
            << fmt_double(serial_ms, 1) << " ms; speedup "
            << fmt_double(serial_ms / parallel_ms, 2) << "x; aggregates "
            << (batch_identical ? "bit-identical" : "DIVERGED")
            << " (values_hash " << parallel.values_hash() << ")]\n";

  // ----------------------------------------------- adaptive Monte Carlo
  if (with_adaptive) {
    bench::banner(
        "Adaptive Monte Carlo (CI-driven stopping + sharded decision epochs)",
        "Stopping: waves of replicas stop once the replica-ordered prefix "
        "95% CI meets the tolerance — same chosen R at any --threads. "
        "Epochs: frozen-state sharded decision_epoch vs the sequential "
        "scan; sharded trajectories are hash-checked across lane counts.");

    Table adaptive_table(
        {"case", "mode", "n", "wall_ms", "gain", "detail", "ok"});

    // (a) Sequential stopping on the low-variance chain batch: a fixed-R
    // study wildly overshoots the 2% relative CI target; the stopping rule
    // reaches the same target in a fraction of the replicas.
    {
      const double tol = 0.02;  // relative 95% half-width on blocks_total
      sim::TrajectoryBatchOptions fixed;
      fixed.replicas = quick ? 64 : 256;
      fixed.root_seed = seed0 + 7;
      fixed.threads = threads;
      bench::Stopwatch stop_watch;
      const sim::TrajectoryBatchResult full =
          sim::run_chain_batch(chain_factory, fixed);
      const double fixed_ms = stop_watch.elapsed_ms();

      sim::TrajectoryBatchOptions adaptive = fixed;
      sim::StoppingRule rule;
      rule.metric = "blocks_total";
      rule.tolerance = tol;
      rule.relative = true;
      rule.min_replicas = 8;
      rule.max_replicas = fixed.replicas;
      rule.wave = 8;
      adaptive.stopping = rule;
      stop_watch.restart();
      const sim::TrajectoryBatchResult stopped =
          sim::run_chain_batch(chain_factory, adaptive);
      const double adaptive_ms = stop_watch.elapsed_ms();

      const auto rel_ci = [](const sim::TrajectoryBatchResult& result) {
        const sim::MetricSummary& s = result.summary("blocks_total");
        return s.ci95_halfwidth / std::abs(s.mean);
      };
      const double reduction = static_cast<double>(full.replicas()) /
                               static_cast<double>(stopped.replicas());
      const bool fixed_ok = rel_ci(full) <= tol;
      const bool stopped_ok =
          stopped.stop_reason() != sim::StopReason::kToleranceMet ||
          rel_ci(stopped) <= tol;
      all_identical = all_identical && fixed_ok && stopped_ok;
      adaptive_table.row()
          << "stopping low-variance" << "fixed-R"
          << fmt_group(full.replicas()) << fmt_double(fixed_ms, 1) << "1.0"
          << ("rel_ci95=" + fmt_double(100.0 * rel_ci(full), 3) + "% tol=" +
              fmt_double(100.0 * tol, 1) + "%")
          << (fixed_ok ? "yes" : "NO");
      adaptive_table.row()
          << "stopping low-variance" << "adaptive"
          << fmt_group(stopped.replicas()) << fmt_double(adaptive_ms, 1)
          << (fmt_double(reduction, 1) + "x fewer")
          << ("reason=" + std::string(stop_reason_name(stopped.stop_reason())) +
              " rel_ci95=" + fmt_double(100.0 * rel_ci(stopped), 3) +
              "% of " + fmt_group(stopped.replicas_requested()) + " requested")
          << (stopped_ok ? "yes" : "NO");

      // A noisy metric under a tight tolerance escalates to the ceiling.
      sim::TrajectoryBatchOptions noisy = fixed;
      sim::StoppingRule tight;
      tight.metric = "share_mae";
      tight.tolerance = 0.002;
      tight.relative = true;
      tight.min_replicas = 8;
      tight.max_replicas = quick ? 32 : 64;
      tight.wave = 8;
      noisy.stopping = tight;
      stop_watch.restart();
      const sim::TrajectoryBatchResult capped =
          sim::run_chain_batch(chain_factory, noisy);
      adaptive_table.row()
          << "stopping high-variance" << "adaptive"
          << fmt_group(capped.replicas())
          << fmt_double(stop_watch.elapsed_ms(), 1) << "-"
          << ("reason=" + std::string(stop_reason_name(capped.stop_reason())) +
              " of " + fmt_group(capped.replicas_requested()) + " requested")
          << "yes";
    }

    // (b) The decision-epoch workload: sequential scan vs the sharded
    // frozen-state epoch. The two are *different dynamics* (the scan sees
    // live mid-epoch state), so only sharded rows are hash-compared — at
    // every lane count they must coincide.
    {
      const std::size_t miners = quick ? 20000 : 100000;
      const std::size_t num_chains = 128;
      const double hours = quick ? 8.0 : 16.0;
      const std::string name = std::to_string(miners / 1000) + "k m x " +
                               std::to_string(num_chains) + "c";
      const auto run_epoch = [&](std::size_t lanes) {
        return time_chain([&] {
          return make_epoch_chain(miners, num_chains, hours, lanes,
                                  seed0 + 11);
        });
      };
      const TimedRun scan = run_epoch(0);
      const TimedRun lane1 = run_epoch(1);
      const TimedRun lane8 = run_epoch(8);
      const bool lanes_identical = lane1.hash == lane8.hash;
      all_identical = all_identical && lanes_identical;
      adaptive_table.row()
          << ("epoch " + name) << "sequential-scan" << "-"
          << fmt_double(scan.wall_ms, 1) << "1.0"
          << (fmt_group(scan.events) + " events") << "yes";
      adaptive_table.row()
          << ("epoch " + name) << "sharded lanes=1" << "1"
          << fmt_double(lane1.wall_ms, 1)
          << (fmt_double(scan.wall_ms / lane1.wall_ms, 1) + "x")
          << ("hash=" + std::to_string(lane1.hash))
          << (lanes_identical ? "yes" : "NO");
      adaptive_table.row()
          << ("epoch " + name) << "sharded lanes=8" << "8"
          << fmt_double(lane8.wall_ms, 1)
          << (fmt_double(scan.wall_ms / lane8.wall_ms, 1) + "x")
          << "hash matches lanes=1" << (lanes_identical ? "yes" : "NO");
    }

    bench::emit(cli, adaptive_table,
                "Adaptive Monte Carlo: stopping + sharded epochs", "adaptive");
  }

  std::cout << "trajectory equality: "
            << (all_identical ? "OK (all bit-identical)" : "FAIL") << "\n";
  return all_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return goc::run_main(argc, argv, run); }
