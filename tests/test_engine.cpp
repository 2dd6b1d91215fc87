#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "core/generators.hpp"
#include "dynamics/learning.hpp"
#include "engine/cancel.hpp"
#include "engine/sweep.hpp"
#include "engine/thread_pool.hpp"
#include "equilibrium/welfare.hpp"
#include "sim/batch_cli.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace goc::engine {
namespace {

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPool, SubmitReturnsResults) {
  ThreadPool pool(3);
  auto a = pool.submit([] { return 7; });
  auto b = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(a.get(), 7);
  EXPECT_EQ(b.get(), "ok");
}

TEST(ThreadPool, InlineModeRunsOnCallingThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  const auto caller = std::this_thread::get_id();
  auto ran_on = pool.submit([] { return std::this_thread::get_id(); });
  EXPECT_EQ(ran_on.get(), caller);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    ThreadPool pool(threads);
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> visits(kCount);
    pool.parallel_for(kCount, [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPool, ParallelForChunksCoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    for (const std::size_t grain :
         {std::size_t{1}, std::size_t{7}, std::size_t{256}, std::size_t{5000}}) {
      ThreadPool pool(threads);
      constexpr std::size_t kCount = 1000;
      std::vector<std::atomic<int>> visits(kCount);
      pool.parallel_for_chunks(kCount, grain,
                               [&](std::size_t begin, std::size_t end) {
                                 ASSERT_LE(begin, end);
                                 ASSERT_LE(end, kCount);
                                 for (std::size_t i = begin; i < end; ++i) {
                                   ++visits[i];
                                 }
                               });
      for (std::size_t i = 0; i < kCount; ++i) {
        ASSERT_EQ(visits[i].load(), 1)
            << "threads=" << threads << " grain=" << grain << " index=" << i;
      }
    }
  }
}

TEST(ThreadPool, ParallelForChunksHandlesDegenerateArguments) {
  ThreadPool pool(2);
  // Empty range: the callback never fires.
  pool.parallel_for_chunks(0, 16, [](std::size_t, std::size_t) { FAIL(); });
  // Grain 0 is clamped to 1 rather than dividing by zero.
  std::vector<std::atomic<int>> visits(5);
  pool.parallel_for_chunks(5, 0, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++visits[i];
  });
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(visits[i].load(), 1);
  // A grain covering the whole range runs as one direct call.
  std::atomic<int> calls{0};
  pool.parallel_for_chunks(10, 100, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, ParallelForChunksMatchesSerialAccumulation) {
  // Disjoint chunk writes into a plain vector must land identically with
  // and without workers.
  const auto run_with = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<double> out(777, 0.0);
    pool.parallel_for_chunks(out.size(), 64,
                             [&](std::size_t begin, std::size_t end) {
                               for (std::size_t i = begin; i < end; ++i) {
                                 out[i] = static_cast<double>(i) * 1.5 + 0.25;
                               }
                             });
    return out;
  };
  EXPECT_EQ(run_with(0), run_with(4));
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   100,
                   [](std::size_t i) {
                     if (i == 42) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPool, FailedSpawnJoinsSpawnedWorkersAndRethrows) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer runtimes reserve more address space than any "
                  "RLIMIT_AS that still admits a few thread stacks";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "sanitizer runtimes reserve more address space than any "
                  "RLIMIT_AS that still admits a few thread stacks";
#endif
#endif
  // A forked child caps its address space a few thread stacks above its
  // current size, so the pool's constructor spawns some of its most
  // workers and then fails. Before the fix the joinable workers made
  // unwinding call std::terminate (SIGABRT); now they are joined and the
  // error rethrown.
  const ::pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    long pages = 0;
    std::ifstream("/proc/self/statm") >> pages;
    const rlim_t cap = static_cast<rlim_t>(pages) *
                           static_cast<rlim_t>(::sysconf(_SC_PAGESIZE)) +
                       (rlim_t{64} << 20);
    const ::rlimit limit{cap, cap};
    if (pages <= 0 || ::setrlimit(RLIMIT_AS, &limit) != 0) _exit(3);
    try {
      ThreadPool pool(ThreadPool::kMaxWorkers);
      _exit(2);  // the cap did not bite
    } catch (const std::system_error&) {
      _exit(0);
    } catch (...) {
      _exit(4);
    }
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status))
      << "child died of signal "
      << (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ThreadPool, RefusesMoreThanTheCeilingBeforeSpawning) {
  EXPECT_THROW(ThreadPool(ThreadPool::kMaxWorkers + 1), std::invalid_argument);
  EXPECT_THROW(ThreadPool(SIZE_MAX), std::invalid_argument);
  EXPECT_LE(ThreadPool::default_threads(), ThreadPool::kMaxWorkers + 1);
}

// ---------------------------------------------------------- grid expansion

SweepSpec small_spec() {
  SweepSpec spec;
  spec.base.power_lo = 1;
  spec.base.power_hi = 50;
  spec.base.reward_lo = 10;
  spec.base.reward_hi = 1000;
  spec.miner_counts = {4, 8};
  spec.coin_counts = {2, 3};
  spec.power_shapes = {PowerShape::kUniform, PowerShape::kPareto};
  spec.reward_shapes = {RewardShape::kUniform};
  spec.scheduler_kinds = {SchedulerKind::kRandomMove,
                          SchedulerKind::kRoundRobin,
                          SchedulerKind::kMaxGain};
  spec.trials = 3;
  spec.root_seed = 99;
  return spec;
}

TEST(SweepSpec, GridCardinalityIsAxisProductTimesTrials) {
  const SweepSpec spec = small_spec();
  // 2 miners × 2 coins × 2 powers × 1 rewards × 3 schedulers × 3 trials.
  EXPECT_EQ(spec.grid_size(), 2u * 2u * 2u * 1u * 3u * 3u);
  EXPECT_EQ(spec.expand().size(), spec.grid_size());
}

TEST(SweepSpec, EmptyAxesFallBackToBaseSpec) {
  SweepSpec spec;
  spec.base.num_miners = 6;
  spec.base.num_coins = 4;
  spec.trials = 2;
  const auto tasks = spec.expand();
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_EQ(tasks[0].game_spec.num_miners, 6u);
  EXPECT_EQ(tasks[0].game_spec.num_coins, 4u);
  EXPECT_EQ(tasks[0].trial, 0u);
  EXPECT_EQ(tasks[1].trial, 1u);
}

TEST(SweepSpec, TaskSeedsAreDistinctAndDeterministic) {
  const SweepSpec spec = small_spec();
  const auto tasks = spec.expand();
  std::set<std::uint64_t> seeds;
  for (const SweepTask& task : tasks) {
    seeds.insert(task.game_seed);
    seeds.insert(task.scheduler_seed);
    EXPECT_EQ(task.game_seed, task_seed(spec.root_seed, task.grid_index, 0));
    EXPECT_EQ(task.scheduler_seed,
              task_seed(spec.root_seed, task.grid_index, 1));
  }
  EXPECT_EQ(seeds.size(), 2 * tasks.size()) << "seed collision";
}

TEST(SweepSpec, FilterPrunesWithoutReseedingSurvivors) {
  SweepSpec spec = small_spec();
  const auto all_tasks = spec.expand();
  spec.filter = [](const SweepTask& task) {
    return task.game_spec.num_miners != 8;
  };
  const auto pruned = spec.expand();
  ASSERT_LT(pruned.size(), all_tasks.size());
  for (const SweepTask& task : pruned) {
    EXPECT_NE(task.game_spec.num_miners, 8u);
    // The survivor keeps the seeds it had in the unfiltered grid.
    EXPECT_EQ(task.game_seed, all_tasks[task.grid_index].game_seed);
    EXPECT_EQ(task.scheduler_seed, all_tasks[task.grid_index].scheduler_seed);
  }
}

// ------------------------------------------------------------ determinism

TEST(SweepRunner, OneThreadAndManyThreadsProduceBitIdenticalResults) {
  const SweepSpec spec = small_spec();
  const SweepResult serial = SweepRunner({/*threads=*/1}).run(spec);
  const SweepResult parallel = SweepRunner({/*threads=*/8}).run(spec);

  ASSERT_EQ(serial.records().size(), parallel.records().size());
  EXPECT_TRUE(serial.deterministic_equals(parallel));
  for (std::size_t i = 0; i < serial.records().size(); ++i) {
    EXPECT_TRUE(serial.records()[i].deterministic_equals(parallel.records()[i]))
        << "record " << i;
  }
  // The emitted table is bit-identical too, apart from its one timing
  // column.
  const Table serial_table = serial.to_table();
  const Table parallel_table = parallel.to_table();
  ASSERT_EQ(serial_table.headers(), parallel_table.headers());
  ASSERT_EQ(serial_table.headers().back(), "ms_mean");
  ASSERT_EQ(serial_table.rows(), parallel_table.rows());
  ASSERT_GT(serial_table.rows(), 0u);
  for (std::size_t i = 0; i < serial_table.rows(); ++i) {
    std::vector<std::string> serial_row = serial_table.row_data()[i];
    std::vector<std::string> parallel_row = parallel_table.row_data()[i];
    serial_row.pop_back();
    parallel_row.pop_back();
    EXPECT_EQ(serial_row, parallel_row) << "row " << i;
  }
}

TEST(SweepRunner, EngineReproducesTheDirectSerialPath) {
  // One task replayed by hand with the same derived seeds must match the
  // engine's record exactly: the engine adds scheduling, not semantics.
  const SweepSpec spec = small_spec();
  const auto tasks = spec.expand();
  const SweepResult result = SweepRunner({/*threads=*/4}).run(spec);
  ASSERT_EQ(result.records().size(), tasks.size());

  for (const std::size_t i : {std::size_t{0}, tasks.size() / 2}) {
    const SweepTask& task = tasks[i];
    Rng rng(task.game_seed);
    const Game game = random_game(task.game_spec, rng);
    const Configuration start = random_configuration(game, rng);
    auto scheduler = make_scheduler(task.scheduler, task.scheduler_seed);
    const LearningResult learned =
        run_learning(game, start, *scheduler, spec.learning);
    EXPECT_EQ(result.records()[i].steps, learned.steps);
    EXPECT_EQ(result.records()[i].converged, learned.converged);
    const double welfare =
        (distributed_reward(game, learned.final_configuration) /
         game.rewards().total_reward())
            .to_double();
    EXPECT_EQ(result.records()[i].welfare_efficiency, welfare);
  }
}

TEST(SweepRunner, IndexAndScanPathsProduceBitIdenticalRecords) {
  // The --compare-scan contract: a sweep scheduled through the incremental
  // BestResponseIndex must reproduce the from-scratch scan path's records
  // exactly — including the per-trajectory move hash, i.e. every scenario
  // picked the same move sequence.
  SweepSpec spec = small_spec();
  spec.scheduler_kinds = all_scheduler_kinds();
  spec.learning.use_index = true;
  const SweepResult indexed = SweepRunner({/*threads=*/4}).run(spec);
  spec.learning.use_index = false;
  const SweepResult scanned = SweepRunner({/*threads=*/4}).run(spec);
  ASSERT_EQ(indexed.records().size(), scanned.records().size());
  EXPECT_TRUE(indexed.deterministic_equals(scanned));
  for (std::size_t i = 0; i < indexed.records().size(); ++i) {
    EXPECT_EQ(indexed.records()[i].move_hash, scanned.records()[i].move_hash)
        << "record " << i;
  }
}

// ------------------------------------------------------------ aggregation

TEST(SweepResult, AggregatesMatchHandComputedStats) {
  SweepSpec spec;
  spec.base.num_miners = 10;
  spec.base.num_coins = 3;
  spec.scheduler_kinds = {SchedulerKind::kRoundRobin,
                          SchedulerKind::kLexicographic};
  spec.trials = 4;
  spec.root_seed = 7;
  const SweepResult result = SweepRunner({/*threads=*/2}).run(spec);

  ASSERT_EQ(result.records().size(), 8u);
  ASSERT_EQ(result.points().size(), 2u);
  for (std::size_t p = 0; p < 2; ++p) {
    const SweepPointStats& point = result.points()[p];
    EXPECT_EQ(point.trials, 4u);
    double steps_sum = 0.0;
    double steps_max = 0.0;
    std::size_t converged = 0;
    for (std::size_t t = 0; t < 4; ++t) {
      const SweepRecord& record = result.records()[p * 4 + t];
      EXPECT_EQ(record.task.scheduler, point.scheduler);
      steps_sum += static_cast<double>(record.steps);
      steps_max = std::max(steps_max, static_cast<double>(record.steps));
      if (record.converged) ++converged;
    }
    EXPECT_DOUBLE_EQ(point.steps.mean(), steps_sum / 4.0);
    EXPECT_DOUBLE_EQ(point.steps.max(), steps_max);
    EXPECT_EQ(point.converged, converged);
    EXPECT_EQ(point.steps.count(), 4u);
  }
}

TEST(SweepResult, ConvergedRunsReportConsistentMetricsAndTheoremOneHolds) {
  // Theorem 1: every scheduler converges (audited against the ordinal
  // potential). Welfare efficiency is the distributed-reward fraction, so
  // it is exactly 1 iff every coin is occupied (random games need not
  // satisfy Assumption 1, so an unmined dust coin is legitimate).
  SweepSpec spec;
  spec.base.num_miners = 12;
  spec.base.num_coins = 3;
  spec.scheduler_kinds = all_scheduler_kinds();
  spec.trials = 2;
  spec.root_seed = 2021;
  spec.audit_max_miners = 100;  // audit the potential on every run
  const SweepResult result = SweepRunner({/*threads=*/4}).run(spec);
  EXPECT_TRUE(result.all_converged());
  for (const SweepRecord& record : result.records()) {
    EXPECT_GT(record.welfare_efficiency, 0.0);
    EXPECT_LE(record.welfare_efficiency, 1.0);
    EXPECT_EQ(record.welfare_efficiency == 1.0, record.occupied_coins == 3u);
    EXPECT_GE(record.occupied_coins, 1u);
    EXPECT_GT(record.rpu_fairness, 0.0);
    EXPECT_LE(record.max_domination_share, 1.0);
  }
}

TEST(SweepResult, TableHasOneRowPerGridPoint) {
  const SweepSpec spec = small_spec();
  const SweepResult result = SweepRunner({/*threads=*/2}).run(spec);
  // 2 × 2 × 2 × 1 × 3 grid points (trials collapse into rows).
  EXPECT_EQ(result.to_table().rows(), 24u);
  EXPECT_EQ(result.points().size(), 24u);
}

// ------------------------------------------------------ dispatch order

TEST(SweepRunner, CostliestTasksGoFirstAndRecordsKeepGridOrder) {
  // In grid order the costliest task (audited min-gain at 40 miners) comes
  // last among the audited ones, and the unaudited 60-miner tasks after it.
  SweepSpec spec;
  spec.base.power_shape = PowerShape::kPareto;
  spec.base.power_lo = 10;
  spec.base.reward_lo = 100;
  spec.base.reward_hi = 100000;
  spec.miner_counts = {6, 12, 40, 60};
  spec.coin_counts = {3};
  spec.scheduler_kinds = {SchedulerKind::kRandomMove, SchedulerKind::kMinGain};
  spec.trials = 2;
  spec.root_seed = 2021;
  spec.audit_max_miners = 40;
  const std::vector<SweepTask> tasks = spec.expand();
  // Grid positions: miners 6 → 0..3, 12 → 4..7, 40 → 8..11, 60 → 12..15,
  // random-move before min-gain and trials innermost within each.
  EXPECT_EQ(spec.dispatch_order(tasks),
            (std::vector<std::size_t>{10, 11, 8, 9, 6, 7, 4, 5, 2, 3, 0, 1,
                                      14, 15, 12, 13}));

  // The serial grid-order path: run_task on each task in turn.
  std::vector<SweepRecord> serial;
  for (const SweepTask& task : tasks) {
    LearningOptions options = spec.learning;
    options.audit_potential = spec.audits(task);
    serial.push_back(SweepRunner::run_task(task, options));
  }
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const SweepResult result = SweepRunner({threads}).run(spec);
    ASSERT_EQ(result.records().size(), tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      EXPECT_EQ(result.records()[i].task.grid_index, tasks[i].grid_index);
      EXPECT_TRUE(result.records()[i].deterministic_equals(serial[i]))
          << "record " << i << " at " << threads << " threads";
    }
  }
}

// ------------------------------------------------- pool sharing + cancel

TEST(SweepRunner, SharedPoolMatchesOwnedPoolBitForBit) {
  const SweepSpec spec = small_spec();
  const SweepResult owned = SweepRunner({/*threads=*/4}).run(spec);
  ThreadPool pool(3);  // + the driving thread = 4 lanes
  SweepRunner::Options options;
  options.pool = &pool;
  const SweepResult shared = SweepRunner(options).run(spec);
  EXPECT_TRUE(owned.deterministic_equals(shared));
}

TEST(SweepRunner, StaleCancelViewAbortsTheSweep) {
  const SweepSpec spec = small_spec();
  CancelToken token;
  SweepRunner::Options options;
  options.threads = 2;
  options.cancel = CancelView::of(token);
  token.invalidate();  // stale before the sweep starts
  EXPECT_THROW(SweepRunner(options).run(spec), Cancelled);
  // A fresh view runs normally.
  options.cancel = CancelView::of(token);
  EXPECT_NO_THROW(SweepRunner(options).run(spec));
}

// ------------------------------------------------------------ batch CLI

/// Regression: `apply_batch_cli` once resolved `--stop-max` as
/// `cli.get_u64("stop-max", options.replicas)`, silently flattening a
/// caller's pre-seeded `stopping->max_replicas` ceiling to the replica
/// count whenever the flag was absent.
TEST(BatchCli, PreSeededStoppingRuleSurvivesWithoutStopMax) {
  sim::TrajectoryBatchOptions options;
  options.replicas = 64;
  sim::StoppingRule rule;
  rule.metric = "blocks_total";
  rule.tolerance = 0.02;
  rule.relative = true;
  rule.max_replicas = 1024;  // a deliberate, wider-than-replicas ceiling
  rule.wave = 8;
  options.stopping = rule;

  const char* argv[] = {"test", "--stop-tol=0.01"};
  sim::apply_batch_cli(Cli(2, argv), options);
  ASSERT_TRUE(options.stopping.has_value());
  EXPECT_EQ(options.stopping->metric, "blocks_total");
  EXPECT_DOUBLE_EQ(options.stopping->tolerance, 0.01);  // flag applied
  EXPECT_EQ(options.stopping->max_replicas, 1024u);     // ceiling survives
  EXPECT_EQ(options.stopping->wave, 8u);

  // An explicit --stop-max still overrides the pre-seeded ceiling.
  const char* argv_max[] = {"test", "--stop-max=32"};
  sim::apply_batch_cli(Cli(2, argv_max), options);
  EXPECT_EQ(options.stopping->max_replicas, 32u);

  // Without pre-seeding, --stop-max still defaults to --replicas.
  sim::TrajectoryBatchOptions fresh;
  const char* argv_fresh[] = {"test", "--replicas=48",
                              "--stop-metric=share_mae"};
  sim::apply_batch_cli(Cli(3, argv_fresh), fresh);
  ASSERT_TRUE(fresh.stopping.has_value());
  EXPECT_EQ(fresh.stopping->max_replicas, 48u);
}

TEST(BatchCli, NoStoppingFlagsLeaveOptionsAlone) {
  sim::TrajectoryBatchOptions options;
  const char* argv[] = {"test", "--replicas=8"};
  sim::apply_batch_cli(Cli(2, argv), options);
  EXPECT_EQ(options.replicas, 8u);
  EXPECT_FALSE(options.stopping.has_value());
  EXPECT_FALSE(options.checkpoint.has_value());
}

// ------------------------------------------------------------ Cli::unknown

TEST(CliUnknown, FlagsOutsideTheKnownSet) {
  const char* argv[] = {"prog", "--alpha=1", "--beta", "--gamma", "2"};
  const Cli cli(5, argv);
  EXPECT_TRUE(cli.unknown({"alpha", "beta", "gamma"}).empty());
  EXPECT_EQ(cli.unknown({"alpha", "gamma"}),
            (std::vector<std::string>{"beta"}));
  EXPECT_EQ(cli.unknown({}), (std::vector<std::string>{"alpha", "beta",
                                                       "gamma"}));
  // Positional arguments are not options and never flagged.
  const char* argv_pos[] = {"prog", "file.txt"};
  EXPECT_TRUE(Cli(2, argv_pos).unknown({}).empty());
}

}  // namespace
}  // namespace goc::engine
