/// \file bench_scheduler_ablation.cpp
/// Experiment E7 — Discussion §6: speed of convergence under specific
/// markets.
///
/// The paper leaves convergence speed open; this ablation measures it for
/// every scheduler in the suite on a fixed market family (heavy-tailed
/// powers, majors+tail rewards), and contrasts strict better-response
/// dynamics with the noisy variants (ε-exploration, logit) the Discussion
/// gestures at: noise trades convergence for perpetual churn, quantified
/// by the fraction of time spent at equilibrium. Exits 1 unless every
/// strict-rule run converges (Theorem 1).

#include "bench_common.hpp"
#include "core/generators.hpp"
#include "dynamics/learning.hpp"
#include "dynamics/noisy.hpp"
#include "engine/sweep.hpp"
#include "util/stats.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace goc;
  const Cli cli = bench::parse_cli(
      argc, argv, {"trials", "miners", "coins", "seed", "threads"});
  const std::size_t trials = cli.get_u64("trials", 15);
  const std::size_t n = cli.get_u64("miners", 200);
  const std::size_t coins = cli.get_u64("coins", 5);
  const std::uint64_t seed0 = cli.get_u64("seed", 7);
  const std::size_t threads = cli.get_u64("threads", 0);  // 0 = all cores

  bench::banner("E7 — scheduler ablation: convergence speed by learning rule",
                "Fixed market family: n=" + std::to_string(n) + ", |C|=" +
                    std::to_string(coins) +
                    ", Pareto powers, majors+tail rewards.");

  // The one market family every section below measures.
  GameSpec market;
  market.num_miners = n;
  market.num_coins = coins;
  market.power_shape = PowerShape::kPareto;
  market.power_lo = 10;
  market.reward_shape = RewardShape::kMajors;
  market.reward_lo = 100;
  market.reward_hi = 100000;

  const auto make_game = [&](std::uint64_t seed) {
    Rng rng(seed);
    return random_game(market, rng);
  };

  // The strict-rule ablation is a one-point sweep over the scheduler axis;
  // the engine fans the trials across all cores.
  engine::SweepSpec spec;
  spec.base = market;
  spec.scheduler_kinds = all_scheduler_kinds();
  spec.trials = trials;
  spec.root_seed = seed0;
  const engine::SweepRunner runner({threads});
  const engine::SweepResult sweep = runner.run(spec);
  bench::emit(cli, sweep.to_table(), "Strict better-response rules", "strict");
  std::cout << "[" << sweep.records().size() << " scenarios on "
            << sweep.threads() << " lanes in "
            << fmt_double(sweep.total_wall_ms(), 1) << " ms; all converged: "
            << (sweep.all_converged() ? "yes" : "NO") << "]\n\n";

  // ε-equilibrium: how much of the convergence tail is negligible-gain
  // churn? Steps to reach a relative ε-equilibrium vs the exact one.
  Table eps_table({"epsilon", "trials", "steps_mean", "fraction_of_exact"});
  Sample exact_steps;
  for (std::size_t t = 0; t < trials; ++t) {
    const Game game = make_game(seed0 + t * 101);
    Rng rng(seed0 + t * 131);
    const Configuration start = random_configuration(game, rng);
    exact_steps.add(static_cast<double>(
        run_learning_to_epsilon(game, start, Rational(0)).steps));
  }
  for (const auto& [label, eps] :
       std::vector<std::pair<std::string, Rational>>{
           {"0", Rational(0)},
           {"1%", Rational(1, 100)},
           {"5%", Rational(1, 20)},
           {"25%", Rational(1, 4)}}) {
    Sample steps;
    for (std::size_t t = 0; t < trials; ++t) {
      const Game game = make_game(seed0 + t * 101);
      Rng rng(seed0 + t * 131);
      const Configuration start = random_configuration(game, rng);
      steps.add(static_cast<double>(
          run_learning_to_epsilon(game, start, eps).steps));
    }
    eps_table.row() << label << std::uint64_t(trials)
                    << fmt_double(steps.mean(), 1)
                    << fmt_double(exact_steps.mean() > 0
                                      ? steps.mean() / exact_steps.mean()
                                      : 1.0,
                                  3);
  }
  bench::emit(cli, eps_table,
              "Steps to relative ε-equilibrium (max-relative-gain dynamics)",
              "epsilon");

  // Noisy dynamics: no convergence guarantee — measure equilibrium dwell.
  // The dwell metric samples every 25th step (the membership check is
  // O(n·|C|) and dominates the horizon otherwise).
  Table noisy({"rule", "param", "steps", "eq_visit%", "ends_at_eq%"});
  const std::uint64_t horizon = 10000;
  const std::uint64_t stride = 25;
  for (const double eps : {0.0, 0.01, 0.05, 0.2}) {
    Sample dwell;
    std::size_t at_eq = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      const Game game = make_game(seed0 + t * 101);
      Rng rng(seed0 + t * 555);
      NoisyOptions opts;
      opts.epsilon = eps;
      opts.max_steps = horizon;
      opts.equilibrium_check_stride = stride;
      const auto r = run_epsilon_noisy(game, random_configuration(game, rng),
                                       rng, opts);
      dwell.add(100.0 * r.equilibrium_visit_rate);
      if (r.ended_at_equilibrium) ++at_eq;
    }
    noisy.row() << "epsilon-noisy" << fmt_double(eps, 2)
                << std::uint64_t(horizon) << fmt_double(dwell.mean(), 1)
                << fmt_double(100.0 * static_cast<double>(at_eq) /
                                  static_cast<double>(trials),
                              1);
  }
  for (const double beta : {0.0, 1.0, 50.0, 400.0}) {
    Sample dwell;
    std::size_t at_eq = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      const Game game = make_game(seed0 + t * 101);
      Rng rng(seed0 + t * 777);
      NoisyOptions opts;
      opts.beta = beta;
      opts.max_steps = horizon;
      opts.equilibrium_check_stride = stride;
      const auto r =
          run_logit(game, random_configuration(game, rng), rng, opts);
      dwell.add(100.0 * r.equilibrium_visit_rate);
      if (r.ended_at_equilibrium) ++at_eq;
    }
    noisy.row() << "logit" << fmt_double(beta, 1) << std::uint64_t(horizon)
                << fmt_double(dwell.mean(), 1)
                << fmt_double(100.0 * static_cast<double>(at_eq) /
                                  static_cast<double>(trials),
                              1);
  }
  bench::emit(cli, noisy,
              "Noisy dynamics (Discussion §6): equilibrium dwell time",
              "noisy");
  return sweep.all_converged() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return goc::run_main(argc, argv, run); }
