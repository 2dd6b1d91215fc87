/// \file bench_enumeration.cpp
/// The enumeration-engine headline: old vs new on every exhaustive path.
///
/// The legacy walker visits all |C|^n configurations through a
/// `std::function` callback and re-verifies each candidate with full
/// O(n·|C|) exact-Rational payoff scans. The engine (core/enumerate.hpp)
/// walks canonical representatives with a templated incremental odometer,
/// checks equilibria with i128 cross-multiplications, and shards the space
/// across a ThreadPool with deterministic concatenation. This harness
/// measures both on the same workloads and — under `--compare-scan` —
/// asserts the results are bit-identical at 1 and `--threads` lanes.
///
/// Workloads: the E5 reference exhaustive rows (distinct powers — no
/// symmetry to exploit, so the speedup is pure devirtualization + i128 +
/// threads), an equal-power family where canonical reduction collapses
/// |C|^n to the multiset count, and the Assumption-1 / exact-potential
/// walks ported onto the same engine.

#include <vector>

#include "bench_common.hpp"
#include "core/enumerate.hpp"
#include "core/generators.hpp"
#include "engine/thread_pool.hpp"
#include "equilibrium/assumptions.hpp"
#include "equilibrium/enumerate.hpp"
#include "potential/exact_potential.hpp"

namespace {

using namespace goc;

GameSpec reference_spec(std::size_t miners, std::size_t coins) {
  // bench_better_equilibrium's reference exhaustive workload (E5).
  GameSpec spec;
  spec.num_miners = miners;
  spec.num_coins = coins;
  spec.power_lo = 1;
  spec.power_hi = 60;
  spec.reward_lo = 150;
  spec.reward_hi = 400;
  spec.distinct_powers = true;
  spec.sort_desc = true;
  return spec;
}

std::vector<Game> make_games(const GameSpec& spec, std::size_t trials,
                             std::uint64_t seed0) {
  std::vector<Game> games;
  games.reserve(trials);
  for (std::size_t t = 0; t < trials; ++t) {
    Rng rng(seed0 + t * 6151 + spec.num_miners * 17 + spec.num_coins);
    games.push_back(random_game(spec, rng));
  }
  return games;
}

int run(int argc, char** argv) {
  const Cli cli = bench::parse_cli(
      argc, argv, {"quick", "trials", "seed", "threads", "compare-scan"});
  const bool quick = cli.has("quick");
  const std::size_t trials = cli.get_u64("trials", quick ? 3 : 10);
  const std::uint64_t seed0 = cli.get_u64("seed", 5);
  const std::size_t threads = cli.get_u64("threads", 8);
  const bool compare_scan = cli.has("compare-scan");

  bench::banner(
      "Enumeration engine — parallel, symmetry-reduced exhaustive walks",
      "Old (std::function walk + Rational payoff scans) vs new (templated "
      "canonical odometer + i128 checks + ThreadPool shards); "
      "--compare-scan asserts bit-identical results at any thread count.");

  // One pool for the whole run — per-call spawning would swamp small
  // games. Sized at min(--threads, hardware): extra lanes on a smaller
  // box only add scheduler noise, never throughput.
  const std::size_t hw = engine::ThreadPool::default_threads();
  const std::size_t requested = engine::ThreadPool::resolve_lanes(threads);
  const std::size_t lanes = requested < hw ? requested : hw;
  engine::ThreadPool pool(engine::ThreadPool::workers_for(lanes));
  EnumerationOptions engine_opts;
  engine_opts.threads = threads;
  engine_opts.symmetry = true;
  engine_opts.pool = &pool;

  Table table({"workload", "games", "configs", "scan_ms", "engine_ms",
               "speedup", "threads", "identical"});
  bool all_identical = true;
  double ref_scan_ms = 0.0;
  double ref_engine_ms = 0.0;

  // ---- equilibrium enumeration rows -----------------------------------
  struct EqRow {
    std::string name;
    GameSpec spec;
    bool reference;  // counts toward the E5-reference headline
  };
  std::vector<EqRow> rows;
  rows.push_back({"equilibria 8mx2c distinct (E5)", reference_spec(8, 2), true});
  rows.push_back({"equilibria 9mx3c distinct (E5)", reference_spec(9, 3), true});
  {
    GameSpec symmetric = reference_spec(quick ? 10 : 12, 3);
    symmetric.power_shape = PowerShape::kEqual;
    symmetric.distinct_powers = false;
    rows.push_back({"equilibria equal-power symmetric", symmetric, false});
  }

  for (const EqRow& row : rows) {
    const std::vector<Game> games = make_games(row.spec, trials, seed0);
    std::uint64_t configs = 0;
    for (const Game& g : games) configs += *configuration_count(g.system());

    bench::Stopwatch watch;
    std::vector<std::vector<Configuration>> scan_sets;
    for (const Game& g : games) scan_sets.push_back(enumerate_equilibria_scan(g));
    const double scan_ms = watch.elapsed_ms();

    watch.restart();
    std::vector<std::vector<Configuration>> engine_sets;
    for (const Game& g : games) {
      engine_sets.push_back(enumerate_equilibria(g, engine_opts));
    }
    const double engine_ms = watch.elapsed_ms();

    bool identical = engine_sets == scan_sets;
    if (compare_scan) {
      // Thread-count invariance: the serial engine must reproduce the
      // parallel result element-for-element.
      EnumerationOptions serial = engine_opts;
      serial.threads = 1;
      serial.pool = nullptr;
      for (std::size_t i = 0; i < games.size(); ++i) {
        if (enumerate_equilibria(games[i], serial) != engine_sets[i]) {
          identical = false;
        }
      }
    }
    all_identical = all_identical && identical;
    if (row.reference) {
      ref_scan_ms += scan_ms;
      ref_engine_ms += engine_ms;
    }
    table.row() << row.name << std::uint64_t(games.size()) << configs
                << fmt_double(scan_ms, 2) << fmt_double(engine_ms, 2)
                << fmt_double(scan_ms / engine_ms, 1) << std::uint64_t(threads)
                << (identical ? "yes" : "NO");
  }

  // ---- Assumption 1 row ------------------------------------------------
  {
    const std::vector<Game> games = make_games(reference_spec(8, 2), trials, seed0);
    std::uint64_t configs = 0;
    for (const Game& g : games) configs += *configuration_count(g.system());

    bench::Stopwatch watch;
    std::vector<bool> scan_verdicts;
    for (const Game& g : games) {
      scan_verdicts.push_back(find_never_alone_violation_scan(g).has_value());
    }
    const double scan_ms = watch.elapsed_ms();

    watch.restart();
    std::vector<bool> engine_verdicts;
    for (const Game& g : games) {
      engine_verdicts.push_back(
          find_never_alone_violation(g, engine_opts).has_value());
    }
    const double engine_ms = watch.elapsed_ms();

    const bool identical = engine_verdicts == scan_verdicts;
    all_identical = all_identical && identical;
    table.row() << "never-alone 8mx2c (A1 check)" << std::uint64_t(games.size())
                << configs << fmt_double(scan_ms, 2) << fmt_double(engine_ms, 2)
                << fmt_double(scan_ms / engine_ms, 1) << std::uint64_t(threads)
                << (identical ? "yes" : "NO");
  }

  // ---- canonical-only row ---------------------------------------------
  {
    // The symmetry-reduction headline: counting equilibria (canonical
    // representatives + orbit sizes) without materializing the full set.
    GameSpec spec = reference_spec(quick ? 10 : 12, 3);
    spec.power_shape = PowerShape::kEqual;
    spec.distinct_powers = false;
    const std::vector<Game> games = make_games(spec, trials, seed0);
    std::uint64_t configs = 0;
    for (const Game& g : games) configs += *configuration_count(g.system());

    bench::Stopwatch watch;
    std::vector<std::uint64_t> scan_counts;
    for (const Game& g : games) {
      scan_counts.push_back(enumerate_equilibria_scan(g).size());
    }
    const double scan_ms = watch.elapsed_ms();

    watch.restart();
    std::vector<std::uint64_t> engine_counts;
    for (const Game& g : games) {
      engine_counts.push_back(enumerate_canonical_equilibria(g, engine_opts).total());
    }
    const double engine_ms = watch.elapsed_ms();

    const bool identical = engine_counts == scan_counts;
    all_identical = all_identical && identical;
    table.row() << "equilibrium counts, orbit-only" << std::uint64_t(games.size())
                << configs << fmt_double(scan_ms, 2) << fmt_double(engine_ms, 2)
                << fmt_double(scan_ms / engine_ms, 1) << std::uint64_t(threads)
                << (identical ? "yes" : "NO");
  }

  // ---- exact-potential row --------------------------------------------
  {
    // Equal powers: every 4-cycle sums to zero (congestion game), so both
    // paths must walk the whole base space — the regime where the
    // canonical reduction and in-place cycle walk matter. Unequal-power
    // games exit at the first base and measure nothing.
    GameSpec spec;
    spec.num_miners = quick ? 5 : 6;
    spec.num_coins = 3;
    spec.power_shape = PowerShape::kEqual;
    spec.power_lo = 1;
    spec.power_hi = 1;
    const std::vector<Game> games = make_games(spec, trials, seed0);
    std::uint64_t configs = 0;
    for (const Game& g : games) configs += *configuration_count(g.system());

    bench::Stopwatch watch;
    std::vector<bool> scan_verdicts;
    for (const Game& g : games) scan_verdicts.push_back(has_exact_potential_scan(g));
    const double scan_ms = watch.elapsed_ms();

    watch.restart();
    std::vector<bool> engine_verdicts;
    for (const Game& g : games) {
      EnumerationOptions opts = engine_opts;
      opts.max_configs = 1u << 20;
      engine_verdicts.push_back(has_exact_potential(g, opts));
    }
    const double engine_ms = watch.elapsed_ms();

    const bool identical = engine_verdicts == scan_verdicts;
    all_identical = all_identical && identical;
    table.row() << "exact-potential 4-cycle walk" << std::uint64_t(games.size())
                << configs << fmt_double(scan_ms, 2) << fmt_double(engine_ms, 2)
                << fmt_double(scan_ms / engine_ms, 1) << std::uint64_t(threads)
                << (identical ? "yes" : "NO");
  }

  bench::emit(cli, table,
              "Enumeration engine old-vs-new (speedup = scan_ms/engine_ms)");

  const double headline = ref_scan_ms / ref_engine_ms;
  std::cout << "[E5 reference workload: scan " << fmt_double(ref_scan_ms, 1)
            << " ms vs engine " << fmt_double(ref_engine_ms, 1) << " ms at "
            << threads << " threads (" << lanes
            << " effective lanes on this hardware) => " << fmt_double(headline, 1)
            << "x]\n";
  if (compare_scan) {
    std::cout << (all_identical
                      ? "[compare-scan: all results bit-identical across "
                        "scan/engine and 1/N threads]\n"
                      : "[compare-scan: MISMATCH]\n");
  }
  return all_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return goc::run_main(argc, argv, run); }
