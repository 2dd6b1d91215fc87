/// \file bench_better_equilibrium.cpp
/// Experiment E5 — Section 4: there is often a better equilibrium.
///
/// On exhaustively-enumerable games satisfying Assumptions 1–2, the paper
/// proves (Prop 2) that every equilibrium leaves some miner strictly better
/// off in another equilibrium. This harness quantifies the landscape:
/// how many pure equilibria random games have, how often the assumptions
/// hold, that the welfare identity (Obs 3) holds at every equilibrium, and
/// the payoff gains on the table for the would-be manipulator. Exits 1
/// unless Prop 2 and Obs 3 hold in every row (a row without a
/// multi-equilibrium game holds vacuously), and under `--compare-scan`
/// unless the engine and the legacy walker agree.

#include "bench_common.hpp"
#include "core/enumerate.hpp"
#include "core/generators.hpp"
#include "engine/thread_pool.hpp"
#include "equilibrium/assumptions.hpp"
#include "equilibrium/better_equilibrium.hpp"
#include "equilibrium/enumerate.hpp"
#include "equilibrium/welfare.hpp"
#include "util/stats.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace goc;
  const Cli cli = bench::parse_cli(
      argc, argv, {"trials", "seed", "threads", "compare-scan"});
  const std::size_t trials = cli.get_u64("trials", 60);
  const std::uint64_t seed0 = cli.get_u64("seed", 5);
  const std::size_t threads = cli.get_u64("threads", 0);  // 0 = all cores
  const bool compare_scan = cli.has("compare-scan");

  bench::banner(
      "E5 — Proposition 2: every equilibrium has a better one for someone",
      "Exhaustive equilibrium enumeration on random small games; assumption "
      "checks are exact (never-alone over all configurations, genericity "
      "over all subset sums). Exhaustive walks run on the enumeration "
      "engine (--threads; --compare-scan replays them on the legacy "
      "walker and asserts identical results while timing both).");

  // The engine's exhaustive walks share one pool across all games.
  engine::ThreadPool pool(engine::ThreadPool::workers_for(
      engine::ThreadPool::resolve_lanes(threads)));
  EnumerationOptions engine_opts;
  engine_opts.pool = &pool;
  bench::Stopwatch split;
  double engine_ms = 0.0;
  double scan_ms = 0.0;
  bool identical = true;
  bool claim_holds = true;  // prop2_holds% and obs3_holds% are 100 per row

  Table table({"miners", "coins", "games", "A1&A2_ok", "avg_eqs",
               "multi_eq%", "prop2_holds%", "obs3_holds%", "avg_gain%",
               "max_gain%"});

  // Assumption 1 needs miners to clearly outnumber coins (|Π| ≥ 2|C| is
  // necessary); the sweep keeps that regime, adding a 3-coin row with a
  // proportionally larger population.
  for (const auto& [n, coins] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {5, 2}, {6, 2}, {8, 2}, {9, 3}}) {
    std::size_t assumption_ok = 0;
    std::size_t multi = 0;
    std::size_t prop2_ok = 0;
    std::size_t obs3_ok = 0;
    std::size_t obs3_total = 0;
    RunningStats eq_counts;
    Sample gains;
    for (std::size_t t = 0; t < trials; ++t) {
      Rng rng(seed0 + t * 6151 + n * 17 + coins);
      GameSpec spec;
      spec.num_miners = n;
      spec.num_coins = coins;
      spec.power_lo = 1;
      spec.power_hi = 60;
      // Balanced rewards keep the never-alone regime reachable: a coin an
      // order of magnitude lighter than the rest is rationally ignored.
      spec.reward_lo = 150;
      spec.reward_hi = 400;
      spec.distinct_powers = true;
      spec.sort_desc = true;
      const Game game = random_game(spec, rng);
      split.restart();
      const bool never_alone_violated =
          find_never_alone_violation(game, engine_opts).has_value();
      engine_ms += split.elapsed_ms();
      if (compare_scan) {
        split.restart();
        const bool scan_violated = find_never_alone_violation_scan(game).has_value();
        scan_ms += split.elapsed_ms();
        identical = identical && scan_violated == never_alone_violated;
      }
      if (never_alone_violated) continue;
      if (!is_generic(game)) continue;
      ++assumption_ok;

      split.restart();
      const auto eqs = enumerate_equilibria(game, engine_opts);
      engine_ms += split.elapsed_ms();
      if (compare_scan) {
        split.restart();
        const auto scan_eqs = enumerate_equilibria_scan(game);
        scan_ms += split.elapsed_ms();
        identical = identical && scan_eqs == eqs;
      }
      eq_counts.add(static_cast<double>(eqs.size()));
      // Observation 3 at every equilibrium.
      for (const auto& s : eqs) {
        ++obs3_total;
        if (globally_optimal(game, s)) ++obs3_ok;
      }
      if (eqs.size() < 2) continue;
      ++multi;
      bool all_have_better = true;
      for (const auto& s : eqs) {
        const auto witness = find_better_equilibrium(game, s, eqs);
        if (!witness) {
          all_have_better = false;
          continue;
        }
        const double gain =
            (witness->payoff_after - witness->payoff_before).to_double() /
            witness->payoff_before.to_double();
        gains.add(100.0 * gain);
      }
      if (all_have_better) ++prop2_ok;
    }
    claim_holds = claim_holds && prop2_ok == multi && obs3_ok == obs3_total;
    const auto pct = [](std::size_t a, std::size_t b) {
      return b == 0 ? 0.0 : 100.0 * static_cast<double>(a) / static_cast<double>(b);
    };
    table.row() << std::uint64_t(n) << std::uint64_t(coins)
                << std::uint64_t(trials) << std::uint64_t(assumption_ok)
                << fmt_double(eq_counts.mean(), 2)
                << fmt_double(pct(multi, assumption_ok), 1)
                << fmt_double(pct(prop2_ok, multi), 1)
                << fmt_double(pct(obs3_ok, obs3_total), 1)
                << fmt_double(gains.empty() ? 0.0 : gains.mean(), 1)
                << fmt_double(gains.empty() ? 0.0 : gains.max(), 1);
  }
  bench::emit(cli, table,
              "Equilibrium landscape (theory: prop2_holds% == 100 and "
              "obs3_holds% == 100 whenever A1 & A2 hold)");
  std::cout << "[exhaustive walks on the enumeration engine: "
            << fmt_double(engine_ms, 1) << " ms]\n";
  if (compare_scan) {
    std::cout << "[legacy scan replay: " << fmt_double(scan_ms, 1) << " ms => "
              << fmt_double(scan_ms / engine_ms, 1) << "x, results "
              << (identical ? "identical" : "MISMATCH") << "]\n";
  }
  if (!claim_holds) {
    std::cout << "[CLAIM FAILED: prop2_holds% or obs3_holds% below 100]\n";
  }
  return identical && claim_holds ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return goc::run_main(argc, argv, run); }
