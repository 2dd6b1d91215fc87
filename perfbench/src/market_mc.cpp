/// market-mc: adaptive Monte Carlo batches of `random_market_prototype`
/// (48 miners x 3 coins). The stopping rule never meets its tolerance, so
/// every batch escalates wave by wave to its ceiling and writes a
/// checkpoint at each wave. Each rep draws a fresh prototype and root seed
/// from --seed. The traced run adds probes that time the per-epoch market
/// and exact-arithmetic calls at this workload's shapes.

#include <filesystem>
#include <memory>

#include <unistd.h>

#include "core/game.hpp"
#include "core/generators.hpp"
#include "core/move_compare.hpp"
#include "dynamics/best_response_index.hpp"
#include "engine/thread_pool.hpp"
#include "harness.hpp"
#include "market/scenario.hpp"
#include "sim/trajectory.hpp"

namespace perfbench {
namespace {

using goc::engine::ThreadPool;
using goc::sim::TrajectoryBatchResult;

constexpr std::size_t kMiners = 48;
constexpr std::size_t kCoins = 3;
constexpr double kDays = 2.0;
constexpr std::size_t kMaxReplicas = 8;     // ceiling every batch reaches
constexpr std::size_t kTracedBatches = 12;  // per pass of a trace run

goc::market::Scenario prototype(std::uint64_t seed, std::size_t rep) {
  return goc::market::random_market_prototype(kMiners, kCoins, kDays,
                                              derive_seed(seed, 2 * rep));
}

/// `written`, when set, sums the checkpoint bytes seen by the write hook.
goc::sim::TrajectoryBatchOptions batch_options(std::uint64_t seed,
                                               std::size_t rep,
                                               ThreadPool* pool,
                                               const std::string& path,
                                               std::uint64_t* written) {
  goc::sim::TrajectoryBatchOptions options;
  options.root_seed = derive_seed(seed, 2 * rep + 1);
  options.pool = pool;
  options.threads = 1;  // used only without a pool
  goc::sim::StoppingRule rule;
  rule.metric = "mean_share_coin0";
  rule.tolerance = 1e-12;  // never met: the batch escalates to the ceiling
  rule.relative = true;
  rule.min_replicas = 2;
  rule.max_replicas = kMaxReplicas;
  rule.wave = 1;
  options.stopping = rule;
  goc::replay::CheckpointOptions checkpoint;
  checkpoint.path = path;
  checkpoint.resume = false;
  if (written != nullptr) {
    checkpoint.on_write = [written, path](std::size_t) {
      *written += std::filesystem::file_size(path);
    };
  }
  options.checkpoint = checkpoint;
  return options;
}

/// Per-call cost of `op(i)`, ns: median of three blocks of >= 10 ms each.
template <typename Op>
double ns_per_call(Op&& op) {
  std::vector<double> samples;
  std::size_t i = 0;
  for (int block = 0; block < 3; ++block) {
    const auto start = Clock::now();
    std::size_t calls = 0;
    double elapsed = 0.0;
    for (std::size_t batch = 16; elapsed < 0.01; batch *= 2) {
      for (std::size_t k = 0; k < batch; ++k) op(i++);
      calls += batch;
      elapsed = seconds_since(start);
    }
    samples.push_back(elapsed * 1e9 / static_cast<double>(calls));
  }
  return median(samples);
}

/// Times the calls a market epoch makes, each at this workload's shapes:
/// per coin one price step, one fee accrual (+ collect) and one weight
/// quantization; per epoch one game + index reweight, which refreshes the
/// comparator once.
void probe_epoch_calls(const goc::market::Scenario& proto, std::uint64_t seed,
                       Outcome& out) {
  goc::Rng rng(derive_seed(seed, 0x9a0b));
  const double hours = proto.options.epoch_hours;
  const std::uint64_t denominator = proto.options.weight_denominator;

  // One run of epoch weights, computed the way the simulator does.
  std::vector<goc::market::CoinSpec> coins = proto.clone_coins();
  std::vector<double> raw;
  std::vector<std::vector<goc::Rational>> weights;
  for (int epoch = 0; epoch < 64; ++epoch) {
    std::vector<goc::Rational> w;
    for (auto& coin : coins) {
      const double price = coin.price->step(hours, rng);
      coin.fees.accrue(hours, rng);
      const double fees = coin.fees.collect();
      const double fiat =
          (coin.block_subsidy * coin.blocks_per_hour * hours + fees) * price;
      raw.push_back(std::max(fiat, 1e-9));
      w.push_back(goc::Rational::from_double(raw.back(), denominator));
    }
    weights.push_back(std::move(w));
  }

  auto& layer = out.layer;
  layer["price.step_ns"] = ns_per_call(
      [&](std::size_t i) { coins[i % kCoins].price->step(hours, rng); });
  layer["fee.accrue_ns"] = ns_per_call([&](std::size_t i) {
    auto& fees = coins[i % kCoins].fees;
    fees.accrue(hours, rng);
    fees.collect();
  });
  std::uint64_t sink = 0;
  layer["arith.from_double_ns"] = ns_per_call([&](std::size_t i) {
    sink += goc::Rational::from_double(raw[i % raw.size()], denominator).hash();
  });

  std::vector<goc::Rational> powers;
  for (const std::int64_t p : proto.miner_powers) powers.emplace_back(p);
  auto system = std::make_shared<const goc::System>(std::move(powers), kCoins);
  goc::Game game(system, goc::RewardFunction(weights.front()));
  const goc::Configuration config = goc::random_configuration(game, rng);
  goc::dynamics::BestResponseIndex index(game, config);
  layer["arith.reweight_ns"] = ns_per_call([&](std::size_t i) {
    game.reweight(weights[i % weights.size()]);
    index.reweight();
  });
  goc::MoveComparator comparator(game);
  layer["arith.refresh_ns"] = ns_per_call([&](std::size_t i) {
    // The in-place reweight is amortized over 32 refreshes.
    if (i % 32 == 0) game.reweight(weights[(i / 32) % weights.size()]);
    comparator.refresh();
  });
  keep(sink);

  // Each probe's predicted share of the measured epoch time.
  const double epoch_ns = layer["market.epoch_us"] * 1e3;
  const auto share = [&](const char* name, double calls) {
    return epoch_ns > 0 ? calls * layer[name] / epoch_ns : 0.0;
  };
  layer["price.step_share"] = share("price.step_ns", kCoins);
  layer["fee.accrue_share"] = share("fee.accrue_ns", kCoins);
  layer["arith.from_double_share"] = share("arith.from_double_ns", kCoins);
  layer["arith.reweight_share"] = share("arith.reweight_ns", 1);
  layer["arith.refresh_share"] = share("arith.refresh_ns", 1);
}

struct Fixture {
  Fixture(std::size_t lanes, const std::string& work_dir)
      : pool(ThreadPool::workers_for(lanes)),
        checkpoint(work_dir + "/market-" + std::to_string(::getpid()) +
                   ".gocr") {}
  ~Fixture() {
    std::error_code ignored;
    std::filesystem::remove(checkpoint, ignored);
  }
  ThreadPool pool;
  std::string checkpoint;
};

}  // namespace

void run_market_mc(const RunConfig& config, Outcome& out) {
  out.work_unit = "replicas";
  out.latency_unit = "adaptive batch of " + std::to_string(kMaxReplicas) +
                     " replicas in " + std::to_string(kMaxReplicas - 1) +
                     " waves";
  const auto make = [&] {
    auto f = std::make_unique<Fixture>(config.lanes, config.work_dir);
    goc::sim::run_market_batch(
        prototype(kWarmupSeed, 0),
        batch_options(kWarmupSeed, 0, &f->pool, f->checkpoint, nullptr));
    return f;
  };
  const auto fixture = timed_setup(out.setup_s, make);

  std::vector<std::uint64_t> hashes;
  std::uint64_t checkpoint_bytes = 0;
  const auto measured = [&](std::size_t rep) {
    const goc::market::Scenario proto = prototype(config.seed, rep);
    const auto start = Clock::now();
    const TrajectoryBatchResult result = goc::sim::run_market_batch(
        proto, batch_options(config.seed, rep, &fixture->pool,
                             fixture->checkpoint, &checkpoint_bytes));
    const double wall = seconds_since(start);
    out.add_rep(static_cast<double>(result.replicas()), wall);
    out.attempted += result.replicas();
    if (result.replicas() < 2) {
      out.fail(kMaxReplicas, "market batch " + std::to_string(rep) +
                                 " stopped before its second wave");
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
    double br_steps = 0.0;
    std::vector<double> plain_ms;
    for (std::size_t rep = 0; rep < kTracedBatches; ++rep) {
      const TrajectoryBatchResult result = measured(rep);
      for (std::size_t r = 0; r < result.replicas(); ++r) {
        br_steps += result.value(r, 3);  // market_batch_metrics()[3]
      }
      plain_ms.push_back(out.latency_ms.back());
    }
    plain.finish();

    std::vector<double> traced_ms;
    std::vector<double> epoch_us;  // per replica: run time over its epochs
    std::uint64_t epochs = 0;
    std::mutex epoch_mutex;
    for (std::size_t rep = 0; rep < kTracedBatches; ++rep) {
      const goc::market::Scenario proto = prototype(config.seed, rep);
      const auto start = Clock::now();
      std::uint64_t hash = 0;
      {
        ScopedSpan batch(&out.tracer, "batch", 0, rep);
        hash = goc::sim::run_trajectory_batch(
                   goc::sim::market_batch_metrics(),
                   batch_options(config.seed, rep, &fixture->pool,
                                 fixture->checkpoint, nullptr),
                   [&](std::size_t replica, std::uint64_t seed) {
                     ScopedSpan span(&out.tracer, "replica", batch.id(),
                                     replica);
                     auto sim = [&] {
                       ScopedSpan build(&out.tracer, "market.build", span.id(),
                                        replica);
                       return proto.make_simulator(seed);
                     }();
                     const auto run_start = Clock::now();
                     std::vector<goc::market::EpochRecord> records;
                     {
                       ScopedSpan run(&out.tracer, "market.run", span.id(),
                                      replica);
                       records = sim.run();
                     }
                     const double us = seconds_since(run_start) * 1e6;
                     std::lock_guard<std::mutex> lock(epoch_mutex);
                     epochs += records.size();
                     epoch_us.push_back(us / static_cast<double>(records.size()));
                     return goc::sim::market_replica_metrics(records);
                   })
                   .values_hash();
      }
      traced_ms.push_back(seconds_since(start) * 1e3);
      if (hash != hashes[rep]) {
        out.fail(kMaxReplicas, "traced market batch " + std::to_string(rep) +
                                   " hashes differently from the untraced one");
      }
    }

    registry_layers(plain, out);
    auto& layer = out.layer;
    layer["market.build_ms"] = median(out.tracer.durations_ms("market.build"));
    layer["market.replica_ms"] = median(out.tracer.durations_ms("replica"));
    layer["market.epochs"] = static_cast<double>(epochs);
    layer["market.br_steps"] = br_steps;
    layer["market.epoch_us"] = median(epoch_us);
    layer["batch.self_ms"] = median(out.tracer.self_ms("batch", "replica"));
    layer["replay.checkpoint_bytes"] = static_cast<double>(checkpoint_bytes);
    layer["trace.overhead_ratio"] = median(traced_ms) / median(plain_ms);
    probe_epoch_calls(prototype(config.seed, 0), config.seed, out);
  }

  // Thread-count invariance: the first and last batch again on one lane.
  for (const std::size_t rep : {std::size_t{0}, hashes.size() - 1}) {
    const TrajectoryBatchResult again = goc::sim::run_market_batch(
        prototype(config.seed, rep),
        batch_options(config.seed, rep, nullptr, fixture->checkpoint, nullptr));
    if (again.values_hash() != hashes[rep]) {
      out.fail(kMaxReplicas, "market batch " + std::to_string(rep) +
                                 " differs between 1 lane and " +
                                 std::to_string(config.lanes) + " lanes");
    }
  }
  out.hashes["batch0"] = hashes.front();
}

}  // namespace perfbench
