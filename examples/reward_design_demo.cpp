/// \file reward_design_demo.cpp
/// Walkthrough of the paper's headline mechanism (Section 5, Algorithm 2):
/// a manipulator moves the whole mining ecosystem from one equilibrium to
/// another of its choosing by *temporarily* raising coin rewards — stage
/// by stage, mover by mover — and then stops paying, leaving the system
/// parked at the target because the target is an equilibrium of the
/// original rewards.
///
/// Run:  ./reward_design_demo [--miners N] [--coins C] [--seed S]
///       [--scheduler random-miner|min-gain|...]

#include <iostream>

#include "core/generators.hpp"
#include "design/intermediate.hpp"
#include "design/reward_design.hpp"
#include "equilibrium/enumerate.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

goc::SchedulerKind parse_scheduler(const std::string& name) {
  using goc::SchedulerKind;
  for (const SchedulerKind kind : goc::all_scheduler_kinds()) {
    if (goc::scheduler_kind_name(kind) == name) return kind;
  }
  throw std::invalid_argument(
      "option --scheduler expects a scheduler name, got '" + name + "'");
}

int run(int argc, char** argv) {
  using namespace goc;
  const Cli cli(argc, argv);
  if (cli.refuse_unknown({"miners", "coins", "seed", "scheduler"})) return 2;
  const std::size_t miners = cli.get_u64("miners", 6);
  const std::size_t coins = cli.get_u64("coins", 3);
  const std::uint64_t seed = cli.get_u64("seed", 7);
  const SchedulerKind kind =
      parse_scheduler(cli.get_string("scheduler", "random-miner"));

  // A game with strictly decreasing powers (the Section 5 assumption) and
  // at least two equilibria to move between.
  Rng rng(seed);
  GameSpec spec;
  spec.num_miners = miners;
  spec.num_coins = coins;
  spec.distinct_powers = true;
  spec.sort_desc = true;
  spec.power_hi = 100;
  spec.reward_lo = 50;
  spec.reward_hi = 900;
  Game game = random_game(spec, rng);
  auto equilibria = sample_equilibria(game, rng, 64);
  if (equilibria.size() < 2) {
    std::cout << "drawn game has a single sampled equilibrium; rerun with "
                 "another --seed\n";
    return 1;
  }
  const Configuration& s0 = equilibria.front();
  const Configuration& sf = equilibria.back();

  std::cout << "game:   " << game.to_string() << "\n"
            << "start   s0 = " << s0.to_string() << "\n"
            << "target  sf = " << sf.to_string() << "\n"
            << "miners' learning rule: " << scheduler_kind_name(kind)
            << " (the mechanism must work for ANY better-response rule)\n\n";

  auto scheduler = make_scheduler(kind, seed ^ 0xD1CE);
  DesignOptions options;
  options.audit = true;  // re-proves Lemma 1 / Theorem 2 invariants per step
  const DesignResult result =
      run_reward_design(game, s0, sf, *scheduler, options);

  Table stages({"stage", "intermediate_s^i", "iterations", "br_steps",
                "epoch_cost"});
  for (const StageRecord& rec : result.stages) {
    stages.row() << std::uint64_t(rec.stage)
                 << intermediate_configuration(sf, rec.stage).to_string()
                 << rec.iterations << rec.learning_steps
                 << rec.stage_cost.to_string();
  }
  stages.print(std::cout, "Algorithm 2 stages (paper Figure 2a)");

  std::cout << "\nresult: " << (result.success ? "SUCCESS" : "FAILED")
            << " — system now at " << result.final_configuration.to_string()
            << "\n"
            << "totals: " << result.total_iterations << " reward publications, "
            << result.total_learning_steps << " miner moves, cost "
            << result.total_cost.to_string() << " (vs per-epoch base reward "
            << game.rewards().total_reward().to_string() << ")\n"
            << "the manipulator now reverts to F and pays nothing further;\n"
            << "sf is an equilibrium of F, so the system stays put.\n";
  return result.success ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return goc::run_main(argc, argv, run); }
