/// e3-sweep: the E3 convergence grid (Theorem 1) as bench_convergence runs
/// it -- Pareto powers, four schedulers, potential audit on for <= 100
/// miners -- through `engine::SweepRunner`. Each rep is one sweep over the
/// grid with its own root seed derived from --seed.

#include <memory>

#include "core/generators.hpp"
#include "dynamics/best_response_index.hpp"
#include "engine/sweep.hpp"
#include "engine/thread_pool.hpp"
#include "harness.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using goc::SchedulerKind;
using goc::engine::SweepRecord;
using goc::engine::ThreadPool;

constexpr std::size_t kAuditMaxMiners = 100;
constexpr std::size_t kTracedSweeps = 24;  // per pass of a trace run

const std::vector<SchedulerKind> kSchedulers = {
    SchedulerKind::kRandomMove, SchedulerKind::kRoundRobin,
    SchedulerKind::kMaxGain, SchedulerKind::kMinGain};

goc::engine::SweepSpec e3_spec(std::uint64_t root_seed,
                               std::vector<std::size_t> miners = {10, 30, 100,
                                                                  300}) {
  goc::engine::SweepSpec spec;
  spec.base.power_shape = goc::PowerShape::kPareto;
  spec.base.power_lo = 10;
  spec.base.reward_lo = 100;
  spec.base.reward_hi = 100000;
  spec.miner_counts = std::move(miners);
  spec.coin_counts = {3};
  spec.scheduler_kinds = kSchedulers;
  spec.trials = 1;
  spec.root_seed = root_seed;
  spec.audit_max_miners = kAuditMaxMiners;
  // bench_convergence's cap: min-gain paths explode past 100 miners.
  spec.filter = [](const goc::engine::SweepTask& task) {
    return !(task.scheduler == SchedulerKind::kMinGain &&
             task.game_spec.num_miners > 100 && task.game_spec.num_coins > 2);
  };
  return spec;
}

bool audited(const goc::engine::SweepTask& task) {
  return task.game_spec.num_miners <= kAuditMaxMiners;
}

/// Median construction time of the incremental index over the grid's
/// games, built exactly as `SweepRunner::run_task` builds them (us).
double index_build_us(const goc::engine::SweepSpec& spec) {
  std::vector<double> samples;
  for (const goc::engine::SweepTask& task : spec.expand()) {
    goc::Rng rng(task.game_seed);
    const goc::Game game = goc::random_game(task.game_spec, rng);
    const goc::Configuration start = goc::random_configuration(game, rng);
    std::vector<double> builds;
    for (int i = 0; i < 5; ++i) {
      const auto t = Clock::now();
      const goc::dynamics::BestResponseIndex index(game, start);
      builds.push_back(seconds_since(t) * 1e6);
    }
    samples.push_back(median(builds));
  }
  return median(samples);
}

/// A sweep runner on `pool`, or on one lane when `pool` is null.
goc::engine::SweepRunner runner_on(ThreadPool* pool) {
  goc::engine::SweepRunner::Options options;
  options.threads = 1;  // used only without a pool
  options.pool = pool;
  return goc::engine::SweepRunner(options);
}

}  // namespace

void run_e3_sweep(const RunConfig& config, Outcome& out) {
  out.work_unit = "better-response steps";
  out.latency_unit = "sweep over the grid";
  const auto make = [&] {
    auto pool = std::make_unique<ThreadPool>(ThreadPool::workers_for(config.lanes));
    runner_on(pool.get()).run(e3_spec(kWarmupSeed, {10, 30}));
    return pool;
  };
  const auto pool = timed_setup(out.setup_s, make);

  std::vector<std::uint64_t> hashes;
  const auto measured = [&](std::size_t rep) {
    const goc::engine::SweepSpec spec = e3_spec(derive_seed(config.seed, rep));
    const auto start = Clock::now();
    const goc::engine::SweepResult result = runner_on(pool.get()).run(spec);
    const double wall = seconds_since(start);
    double steps = 0.0;
    for (const SweepRecord& r : result.records()) {
      steps += static_cast<double>(r.steps);
      ++out.attempted;
      if (!r.converged) {
        out.fail(1, "sweep " + std::to_string(rep) + " task " +
                        std::to_string(r.task.grid_index) +
                        " did not converge (Theorem 1)");
      }
    }
    out.add_rep(steps, wall);
    hashes.push_back(sweep_records_hash(result.records()));
    return wall;
  };

  if (!config.trace) {
    timed_run(config.seconds, out.setup_s, make, [&](double seconds) {
      timed_reps(seconds, [&] { measured(hashes.size()); });
    });
  } else {
    RegistryDelta plain;
    std::vector<double> plain_ms;
    for (std::size_t rep = 0; rep < kTracedSweeps; ++rep) {
      plain_ms.push_back(measured(rep) * 1e3);
    }
    plain.finish();

    // The traced twin: the same tasks fanned out by the harness, one span
    // per `SweepRunner::run_task`, with the audit switched on as `run` does.
    struct TaskSample {
      SchedulerKind scheduler;
      bool audited;
      std::uint64_t steps;
      double ms;
    };
    std::vector<TaskSample> samples;
    std::vector<double> traced_ms;
    for (std::size_t rep = 0; rep < kTracedSweeps; ++rep) {
      const goc::engine::SweepSpec spec = e3_spec(derive_seed(config.seed, rep));
      const auto tasks = spec.expand();
      std::vector<SweepRecord> records(tasks.size());
      std::vector<double> task_ms(tasks.size());
      const auto start = Clock::now();
      {
        ScopedSpan sweep(&out.tracer, "sweep", 0, rep);
        pool->parallel_for(tasks.size(), [&](std::size_t i) {
          ScopedSpan span(&out.tracer, "task", sweep.id(), tasks[i].grid_index);
          goc::LearningOptions options = spec.learning;
          options.audit_potential = audited(tasks[i]);
          const auto t = Clock::now();
          records[i] = goc::engine::SweepRunner::run_task(tasks[i], options);
          task_ms[i] = seconds_since(t) * 1e3;
        });
      }
      traced_ms.push_back(seconds_since(start) * 1e3);
      if (sweep_records_hash(records) != hashes[rep]) {
        out.fail(tasks.size(), "traced sweep " + std::to_string(rep) +
                                   " hashes differently from the untraced one");
      }
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        samples.push_back({tasks[i].scheduler, audited(tasks[i]),
                           records[i].steps, task_ms[i]});
      }
    }

    registry_layers(plain, out);
    auto& layer = out.layer;
    layer["learn.steps"] = out.work;  // the plain pass's steps, exact
    std::vector<double> audited_ms, unaudited_ms;
    for (const TaskSample& s : samples) {
      (s.audited ? audited_ms : unaudited_ms).push_back(s.ms);
    }
    layer["learn.task_ms.audited"] = median(audited_ms);
    layer["learn.task_ms.unaudited"] = median(unaudited_ms);
    for (const SchedulerKind kind : kSchedulers) {
      double steps = 0.0, seconds = 0.0;
      for (const TaskSample& s : samples) {
        if (s.scheduler != kind) continue;
        steps += static_cast<double>(s.steps);
        seconds += s.ms / 1e3;
      }
      layer["learn.steps_per_s." + goc::scheduler_kind_name(kind)] =
          seconds > 0 ? steps / seconds : 0.0;
    }
    layer["index.build_us"] = index_build_us(e3_spec(derive_seed(config.seed, 0)));
    layer["trace.overhead_ratio"] = median(traced_ms) / median(plain_ms);
  }

  // Thread-count invariance: the first and last sweep again on one lane.
  for (const std::size_t rep : {std::size_t{0}, hashes.size() - 1}) {
    const goc::engine::SweepResult again =
        runner_on(nullptr).run(e3_spec(derive_seed(config.seed, rep)));
    if (sweep_records_hash(again.records()) != hashes[rep]) {
      out.fail(again.records().size(),
               "sweep " + std::to_string(rep) + " differs between 1 lane and " +
                   std::to_string(config.lanes) + " lanes");
    }
  }
  out.hashes["sweep0"] = hashes.front();
}

}  // namespace perfbench
