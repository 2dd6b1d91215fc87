/// chain-mc: fixed-R Monte Carlo batches of the reference chain scenario
/// (2048 miners x 128 chains, sequential decision epochs), no stopping
/// rule and no checkpoint. Each rep is one `sim::run_chain_batch` call
/// with its own root seed derived from --seed.

#include <memory>

#include "engine/thread_pool.hpp"
#include "harness.hpp"
#include "sim/scenarios.hpp"
#include "sim/trajectory.hpp"

namespace perfbench {
namespace {

using goc::engine::ThreadPool;
using goc::sim::TrajectoryBatchResult;

constexpr std::size_t kReplicas = 16;       // per batch
constexpr std::size_t kTracedBatches = 12;  // per pass of a trace run

goc::sim::ReferenceChainParams chain_params() {
  goc::sim::ReferenceChainParams params;
  params.miners = 2048;
  params.chains = 128;
  params.days = 2.0;
  params.epoch_lanes = 0;  // sequential decision epochs
  return params;
}

goc::sim::TrajectoryBatchOptions batch_options(std::uint64_t root_seed,
                                               ThreadPool* pool) {
  goc::sim::TrajectoryBatchOptions options;
  options.replicas = kReplicas;
  options.root_seed = root_seed;
  options.pool = pool;
  options.threads = 1;  // used only without a pool
  return options;
}

TrajectoryBatchResult run_batch(std::uint64_t root_seed, ThreadPool* pool) {
  const goc::sim::ReferenceChainParams params = chain_params();
  return goc::sim::run_chain_batch(
      [&params](std::uint64_t seed) {
        return goc::sim::make_reference_chain(
            params, goc::sim::EngineKind::kFlat, seed);
      },
      batch_options(root_seed, pool));
}

/// The same rows as `run_batch`, through the batch engine directly so the
/// harness can span each replica's build and run.
TrajectoryBatchResult run_batch_traced(std::uint64_t root_seed,
                                       ThreadPool& pool, Tracer& tracer,
                                       std::uint64_t batch_span) {
  const goc::sim::ReferenceChainParams params = chain_params();
  return goc::sim::run_trajectory_batch(
      goc::sim::chain_batch_metrics(), batch_options(root_seed, &pool),
      [&](std::size_t replica, std::uint64_t seed) {
        ScopedSpan span(&tracer, "replica", batch_span, replica);
        auto sim = [&] {
          ScopedSpan build(&tracer, "chain.build", span.id(), replica);
          return goc::sim::make_reference_chain(
              params, goc::sim::EngineKind::kFlat, seed);
        }();
        ScopedSpan run(&tracer, "chain.run", span.id(), replica);
        return goc::sim::chain_replica_metrics(sim.run());
      });
}

double migrations(const TrajectoryBatchResult& result) {
  double total = 0.0;
  for (std::size_t r = 0; r < result.replicas(); ++r) {
    total += result.value(r, 2);  // chain_batch_metrics()[2] = "migrations"
  }
  return total;
}

}  // namespace

void run_chain_mc(const RunConfig& config, Outcome& out) {
  out.work_unit = "replicas";
  out.latency_unit = "batch of " + std::to_string(kReplicas) + " replicas";
  const auto make = [&] {
    auto pool = std::make_unique<ThreadPool>(ThreadPool::workers_for(config.lanes));
    run_batch(kWarmupSeed, pool.get());
    return pool;
  };
  const auto pool = timed_setup(out.setup_s, make);

  std::vector<std::uint64_t> hashes;
  const auto measured = [&](std::size_t rep) {
    const auto start = Clock::now();
    const TrajectoryBatchResult result =
        run_batch(derive_seed(config.seed, rep), pool.get());
    const double wall = seconds_since(start);
    out.add_rep(static_cast<double>(result.replicas()), wall);
    out.attempted += kReplicas;
    if (result.replicas() != kReplicas || result.summary("blocks_total").min <= 0) {
      out.fail(kReplicas, "chain batch " + std::to_string(rep) + " is malformed");
    }
    hashes.push_back(result.values_hash());
    return result;
  };

  if (!config.trace) {
    timed_run(config.seconds, out.setup_s, make, [&](double seconds) {
      timed_reps(seconds, [&] { measured(hashes.size()); });
    });
  } else {
    RegistryDelta plain;
    double migrated = 0.0;
    std::vector<double> plain_ms;
    for (std::size_t rep = 0; rep < kTracedBatches; ++rep) {
      migrated += migrations(measured(rep));
      plain_ms.push_back(out.latency_ms.back());
    }
    plain.finish();

    std::vector<double> traced_ms;
    RegistryDelta traced;
    for (std::size_t rep = 0; rep < kTracedBatches; ++rep) {
      const auto start = Clock::now();
      std::uint64_t hash = 0;
      {
        ScopedSpan batch(&out.tracer, "batch", 0, rep);
        hash = run_batch_traced(derive_seed(config.seed, rep), *pool,
                                out.tracer, batch.id())
                   .values_hash();
      }
      traced_ms.push_back(seconds_since(start) * 1e3);
      if (hash != hashes[rep]) {
        out.fail(kReplicas, "traced chain batch " + std::to_string(rep) +
                                " hashes differently from the untraced one");
      }
    }
    traced.finish();

    registry_layers(plain, out);
    auto& layer = out.layer;
    layer["chain.build_ms"] = median(out.tracer.durations_ms("chain.build"));
    layer["chain.replica_ms"] = median(out.tracer.durations_ms("replica"));
    layer["chain.migrations"] = migrated;
    double run_s = 0.0;
    for (const double ms : out.tracer.durations_ms("chain.run")) run_s += ms / 1e3;
    layer["sim.events_per_s"] =
        static_cast<double>(traced.counter_prefix("sim.events.dispatched.")) /
        run_s;
    layer["batch.self_ms"] = median(out.tracer.self_ms("batch", "replica"));
    layer["trace.overhead_ratio"] = median(traced_ms) / median(plain_ms);
  }

  // Thread-count invariance: the first and last batch again on one lane.
  for (const std::size_t rep : {std::size_t{0}, hashes.size() - 1}) {
    if (run_batch(derive_seed(config.seed, rep), nullptr).values_hash() !=
        hashes[rep]) {
      out.fail(kReplicas, "chain batch " + std::to_string(rep) +
                              " differs between 1 lane and " +
                              std::to_string(config.lanes) + " lanes");
    }
  }
  out.hashes["batch0"] = hashes.front();
}

}  // namespace perfbench
