/// \file quickstart.cpp
/// Five-minute tour of the library's public API:
///   1. build a system ⟨Π, C⟩ and a reward function F,
///   2. inspect payoffs and better responses in a configuration,
///   3. run better-response learning to a pure equilibrium (Theorem 1),
///   4. verify the equilibrium and the welfare identity (Observation 3).
///
/// Run:  ./quickstart

#include <iostream>

#include "core/game.hpp"
#include "core/moves.hpp"
#include "dynamics/learning.hpp"
#include "equilibrium/welfare.hpp"
#include "potential/list_potential.hpp"
#include "util/cli.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace goc;
  if (Cli(argc, argv).refuse_unknown({})) return 2;

  // 1. Four miners with powers 8, 4, 2, 1; three coins weighted 30, 20, 10.
  Game game(System::from_integer_powers({8, 4, 2, 1}, 3),
            RewardFunction::from_integers({30, 20, 10}));
  std::cout << "game: " << game.to_string() << "\n\n";

  // 2. Start with everyone mining coin c0 and look around.
  Configuration s = Configuration::all_at(game.system_ptr(), CoinId(0));
  std::cout << "start " << s.to_string() << "\n";
  for (std::uint32_t p = 0; p < game.num_miners(); ++p) {
    const MinerId miner(p);
    std::cout << "  " << miner.to_string() << ": payoff "
              << game.payoff(s, miner).to_string();
    if (const auto br = best_response(game, s, miner)) {
      std::cout << ", best response -> " << br->to_string() << " (payoff "
                << game.payoff_if_move(s, miner, *br).to_string() << ")";
    }
    std::cout << "\n";
  }

  // 3. Let the miners learn. Any better-response order converges (Thm 1);
  //    here each step is a uniformly random improving move, and the audit
  //    re-proves the ordinal-potential ascent at every step.
  auto scheduler = make_scheduler(SchedulerKind::kRandomMove, /*seed=*/7);
  LearningOptions options;
  options.record_moves = true;
  options.audit_potential = true;
  const LearningResult result = run_learning(game, s, *scheduler, options);

  std::cout << "\nbetter-response learning (" << result.steps << " steps):\n";
  result.trace.to_table().print(std::cout);

  // 4. The reached configuration is a pure equilibrium; since every coin
  //    found a miner, the miners jointly collect the full reward mass.
  const Configuration& eq = result.final_configuration;
  std::cout << "\nfinal " << eq.to_string() << "\n"
            << "is_equilibrium: " << (is_equilibrium(game, eq) ? "yes" : "no")
            << "\n"
            << "total payoff:   " << total_payoff(game, eq).to_string()
            << " (total reward " << game.rewards().total_reward().to_string()
            << ")\n"
            << "potential key:  " << potential_key(game, eq).to_string()
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return goc::run_main(argc, argv, run); }
