/// \file bench_convergence.cpp
/// Experiment E3 — Theorem 1: any better-response learning converges.
///
/// The paper proves convergence for arbitrary Π, C, F and arbitrary
/// improving paths; it reports no empirical speed numbers (the Discussion
/// names convergence speed as an open question). This harness measures it:
/// steps to equilibrium across system sizes, coin counts and schedulers,
/// with every small-instance run audited against the ordinal potential.
/// The grid is expanded and fanned across all cores by the sweep engine;
/// per-task seeding is a pure function of the root seed, so the table is
/// identical at any `--threads` value. `--compare-serial` additionally
/// replays the sweep on the 1-lane serial path, checks bit-identical
/// records, and reports the parallel speedup; `--compare-scan` replays it
/// unaudited on the index and on the scan path, checks bit-identical move
/// sequences, and reports the index speedup.
///
/// The headline row the paper's theory predicts: convergence rate 100%
/// everywhere, including the adversarial min-gain scheduler.

#include "bench_common.hpp"
#include "engine/sweep.hpp"
#include "engine/thread_pool.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace goc;
  const Cli cli = bench::parse_cli(argc, argv,
                                   {"trials", "seed", "quick", "threads",
                                    "compare-serial", "compare-scan"});
  const std::size_t trials = cli.get_u64("trials", 10);
  const std::uint64_t seed0 = cli.get_u64("seed", 2021);
  const bool quick = cli.get_bool("quick", false);
  const std::size_t threads = cli.get_u64("threads", 0);  // 0 = all cores
  const bool compare_serial = cli.get_bool("compare-serial", false);
  const bool compare_scan = cli.get_bool("compare-scan", false);

  engine::SweepSpec spec;
  spec.base.power_shape = PowerShape::kPareto;
  spec.base.power_lo = 10;
  spec.base.reward_lo = 100;
  spec.base.reward_hi = 100000;
  spec.miner_counts = quick ? std::vector<std::size_t>{10, 50}
                            : std::vector<std::size_t>{10, 30, 100, 300, 1000};
  spec.coin_counts = quick ? std::vector<std::size_t>{3}
                           : std::vector<std::size_t>{2, 5, 10};
  spec.scheduler_kinds = {SchedulerKind::kRandomMove, SchedulerKind::kRoundRobin,
                          SchedulerKind::kMaxGain, SchedulerKind::kMinGain};
  spec.trials = trials;
  spec.root_seed = seed0;
  // The audit checks every miner against an exact scan each step (one scan
  // per occupied (power class, home) cell, O(n·|C|) at worst); keep it for
  // small runs.
  spec.audit_max_miners = 100;
  spec.filter = [trials](const engine::SweepTask& task) {
    const std::size_t n = task.game_spec.num_miners;
    const std::size_t coins = task.game_spec.num_coins;
    const SchedulerKind kind = task.scheduler;
    // The adversarial min-gain rule's path length explodes with n and |C|
    // (measured: ~32k steps at n=300, |C|=10 — see EXPERIMENTS.md); its
    // n≤100 rows already exhibit the blow-up, so cap it there. At n=1000
    // the other global-scan rules are likewise sampled on the two-coin
    // column only — the scaling trend is established by then.
    if (kind == SchedulerKind::kMinGain && (n > 100 && coins > 2)) return false;
    if (kind == SchedulerKind::kMinGain && n > 300) return false;
    if (n >= 1000 && coins > 2 && kind != SchedulerKind::kRoundRobin) {
      return false;
    }
    // Large instances run fewer replicates.
    const std::size_t row_trials =
        (n >= 300) ? std::max<std::size_t>(3, trials / 3) : trials;
    return task.trial < row_trials;
  };

  // The spec and the pool check their values (--trials, --threads) before
  // the banner, so a bad value refuses the run before any output.
  spec.validate();
  using engine::ThreadPool;
  ThreadPool pool(ThreadPool::workers_for(ThreadPool::resolve_lanes(threads)));
  const engine::SweepRunner runner({.pool = &pool});

  bench::banner(
      "E3 — Theorem 1: convergence of arbitrary better-response learning",
      "Steps to pure equilibrium from a uniform random start; audit = ordinal-"
      "potential ascent verified every step (small instances). Sweep engine, "
      "deterministic per-task seeding.");

  bench::Stopwatch watch;
  const engine::SweepResult result = runner.run(spec);
  const double parallel_ms = watch.elapsed_ms();

  bench::emit(cli, result.to_table(),
              "Better-response learning: steps to equilibrium "
              "(theory: converged% == 100 in every row)");
  std::cout << "[" << result.records().size() << " scenarios on "
            << result.threads() << " lanes in " << fmt_double(parallel_ms, 1)
            << " ms]\n";

  if (compare_serial) {
    engine::SweepRunner serial({/*threads=*/1});
    watch.restart();
    const engine::SweepResult serial_result = serial.run(spec);
    const double serial_ms = watch.elapsed_ms();
    const bool identical = result.deterministic_equals(serial_result);
    std::cout << "[serial replay: " << fmt_double(serial_ms, 1) << " ms; "
              << "speedup " << fmt_double(serial_ms / parallel_ms, 2) << "x; "
              << "records " << (identical ? "bit-identical" : "DIVERGED")
              << "]\n";
    if (!identical) return 1;
  }

  if (compare_scan) {
    // Replay the whole sweep on the from-scratch scan path. Records include
    // the per-trajectory move hash, so equality means every scenario's move
    // sequence — not just its endpoint — matched the index path. The
    // speedup compares like with like: both replays run unaudited (the
    // audit above costs the index run a full rescan per step).
    engine::SweepSpec replay = spec;
    replay.audit_max_miners = 0;
    watch.restart();
    runner.run(replay);
    const double index_ms = watch.elapsed_ms();
    replay.learning.use_index = false;
    watch.restart();
    const engine::SweepResult scan_result = runner.run(replay);
    const double scan_ms = watch.elapsed_ms();
    const bool identical = result.deterministic_equals(scan_result);
    std::cout << "[unaudited replays: index " << fmt_double(index_ms, 1)
              << " ms, scan " << fmt_double(scan_ms, 1) << " ms; "
              << "index speedup " << fmt_double(scan_ms / index_ms, 2)
              << "x; move sequences "
              << (identical ? "bit-identical" : "DIVERGED") << "]\n";
    if (!identical) return 1;
  }
  return result.all_converged() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return goc::run_main(argc, argv, run); }
