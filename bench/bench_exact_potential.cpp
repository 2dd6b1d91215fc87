/// \file bench_exact_potential.cpp
/// Experiment E4 — Proposition 1: no exact potential.
///
/// Reproduces the paper's worked 2×2 counterexample — the four
/// configurations, their payoffs, and the nonzero improvement sum around
/// the deviation 4-cycle — then scans random games to show the obstruction
/// is generic for unequal powers and vanishes for equal powers (where the
/// game degenerates to a congestion game). Exits 1 unless the worked
/// 4-cycle sum is nonzero and no equal-power game has an obstruction.
///
/// The random scan runs on the sweep-engine treatment: the
/// (family × trial) grid fans across a ThreadPool (`--threads`, 0 = all
/// cores) with per-task seeds derived from the root seed and grid position
/// (`engine::task_seed`), and per-task results land in a pre-sized slot
/// vector — bit-identical tables at any thread count.

#include "bench_common.hpp"
#include "core/generators.hpp"
#include "engine/sweep.hpp"
#include "engine/thread_pool.hpp"
#include "potential/exact_potential.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace goc;
  const Cli cli = bench::parse_cli(
      argc, argv, {"trials", "seed", "threads", "compare-scan"});
  const std::size_t trials = cli.get_u64("trials", 200);
  const std::uint64_t seed0 = cli.get_u64("seed", 4);
  const std::size_t threads = cli.get_u64("threads", 0);  // 0 = all cores
  const bool compare_scan = cli.has("compare-scan");

  bench::banner("E4 — Proposition 1: the game has no exact potential",
                "Worked example: m=(2,1), F≡1, two coins; then a random-game "
                "scan for 4-cycle obstructions (Monderer–Shapley). 4-cycle "
                "searches run on the enumeration engine (--compare-scan "
                "replays them on the legacy walker and asserts agreement).");

  // The paper's table of four configurations and payoffs.
  const Game g = proposition1_game();
  const auto sys = g.system_ptr();
  const std::vector<std::pair<std::string, Configuration>> configs = {
      {"s1=<c1,c1>", Configuration(sys, {CoinId(0), CoinId(0)})},
      {"s2=<c1,c2>", Configuration(sys, {CoinId(0), CoinId(1)})},
      {"s3=<c2,c2>", Configuration(sys, {CoinId(1), CoinId(1)})},
      {"s4=<c2,c1>", Configuration(sys, {CoinId(1), CoinId(0)})}};
  Table worked({"config", "u_p1", "u_p2"});
  for (const auto& [name, s] : configs) {
    worked.row() << name << g.payoff(s, MinerId(0)).to_string()
                 << g.payoff(s, MinerId(1)).to_string();
  }
  bench::emit(cli, worked, "Worked example payoffs (paper Section 3)", "worked");

  const Rational cycle = four_cycle_sum(g, configs[0].second, MinerId(0),
                                        CoinId(1), MinerId(1), CoinId(1));
  std::cout << "4-cycle improvement sum = " << cycle.to_string()
            << "  (paper: 2/3 != 0 => no exact potential)\n\n";

  // Random scan: unequal powers vs equal powers, fanned over the pool.
  // Task grid: family-major, trial-minor; one bool slot per task.
  const std::vector<std::pair<std::string, bool>> families = {
      {"distinct powers", true}, {"equal powers (congestion game)", false}};
  // One game per task slot, shared by the engine pass and the
  // --compare-scan replay so both always judge the same games.
  const auto task_game = [&](std::size_t i) {
    const bool distinct = families[i / trials].second;
    Rng rng(engine::task_seed(seed0, i, 0));
    GameSpec spec;
    spec.num_miners = 3;
    spec.num_coins = 2;
    spec.power_lo = 1;
    spec.power_hi = distinct ? 30 : 1;
    spec.power_shape = distinct ? PowerShape::kUniform : PowerShape::kEqual;
    spec.distinct_powers = distinct;
    return random_game(spec, rng);
  };
  std::vector<std::uint8_t> obstructed(families.size() * trials, 0);
  const std::size_t lanes = engine::ThreadPool::resolve_lanes(threads);
  engine::ThreadPool pool(engine::ThreadPool::workers_for(lanes));
  bench::Stopwatch watch;
  pool.parallel_for(obstructed.size(), [&](std::size_t i) {
    if (find_nonzero_four_cycle(task_game(i)).has_value()) obstructed[i] = 1;
  });
  const double wall_ms = watch.elapsed_ms();

  Table scan({"family", "games", "with_obstruction", "fraction"});
  std::size_t equal_obstructed = 0;  // the congestion-game family
  for (std::size_t f = 0; f < families.size(); ++f) {
    std::size_t with = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      with += obstructed[f * trials + t];
    }
    if (!families[f].second) equal_obstructed = with;
    scan.row() << families[f].first << std::uint64_t(trials)
               << std::uint64_t(with)
               << fmt_double(static_cast<double>(with) /
                                 static_cast<double>(trials),
                             3);
  }
  bench::emit(cli, scan,
              "Exact-potential obstruction scan "
              "(theory: ~1.0 for distinct powers, 0.0 for equal)");
  std::cout << "[" << obstructed.size() << " scan games on " << lanes
            << " lanes in " << fmt_double(wall_ms, 1) << " ms]\n";

  if (compare_scan) {
    // Replay the obstruction scan on the legacy full-space walker (same
    // tasks, same seeds) and assert verdict-for-verdict agreement.
    std::vector<std::uint8_t> legacy(obstructed.size(), 0);
    watch.restart();
    pool.parallel_for(legacy.size(), [&](std::size_t i) {
      if (find_nonzero_four_cycle_scan(task_game(i)).has_value()) legacy[i] = 1;
    });
    const double legacy_ms = watch.elapsed_ms();
    const bool identical = legacy == obstructed;
    std::cout << "[compare-scan: legacy walker " << fmt_double(legacy_ms, 1)
              << " ms vs engine " << fmt_double(wall_ms, 1) << " ms => "
              << fmt_double(legacy_ms / wall_ms, 1) << "x, verdicts "
              << (identical ? "identical" : "MISMATCH") << "]\n";
    if (!identical) return 1;
  }
  return cycle.is_zero() || equal_obstructed != 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) { return goc::run_main(argc, argv, run); }
