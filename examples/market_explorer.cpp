/// \file market_explorer.cpp
/// Analyst's workbench: draw a random multi-coin market, enumerate (or
/// sample) its pure equilibria, and report the landscape Section 4 talks
/// about — welfare, fairness, and which miner would gain by moving the
/// system to a different equilibrium.
///
/// Run:  ./market_explorer [--miners N] [--coins C] [--seed S]
///       [--exhaustive true|false]

#include <iostream>

#include "core/generators.hpp"
#include "equilibrium/assumptions.hpp"
#include "equilibrium/better_equilibrium.hpp"
#include "equilibrium/enumerate.hpp"
#include "equilibrium/welfare.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace goc;
  const Cli cli(argc, argv);
  if (cli.refuse_unknown({"miners", "coins", "seed", "exhaustive"})) return 2;
  const std::size_t miners = cli.get_u64("miners", 7);
  const std::size_t coins = cli.get_u64("coins", 2);
  const std::uint64_t seed = cli.get_u64("seed", 11);
  const bool exhaustive = cli.get_bool("exhaustive", true);

  Rng rng(seed);
  GameSpec spec;
  spec.num_miners = miners;
  spec.num_coins = coins;
  spec.power_lo = 1;
  spec.power_hi = 60;
  spec.reward_lo = 40;
  spec.reward_hi = 400;
  spec.distinct_powers = true;
  spec.sort_desc = true;
  const Game game = random_game(spec, rng);
  std::cout << "market: " << game.to_string() << "\n";

  // Section 4's hypotheses, checked exactly on small instances.
  if (miners <= 16 && exhaustive) {
    const bool a1 = !find_never_alone_violation(game).has_value();
    const bool a2 = is_generic(game);
    std::cout << "Assumption 1 (never alone): " << (a1 ? "holds" : "violated")
              << "\nAssumption 2 (generic):     " << (a2 ? "holds" : "violated")
              << "\n\n";
  }

  std::vector<Configuration> equilibria;
  if (exhaustive && miners <= 20) {
    equilibria = enumerate_equilibria(game);
    std::cout << "pure equilibria (exhaustive): " << equilibria.size() << "\n";
  } else {
    equilibria = sample_equilibria(game, rng, 128);
    std::cout << "pure equilibria (sampled, lower bound): " << equilibria.size()
              << "\n";
  }

  Table table({"equilibrium", "welfare", "fairness", "rpu_spread",
               "better_for", "gain%"});
  for (const auto& eq : equilibria) {
    const auto witness = find_better_equilibrium(game, eq, equilibria);
    std::string who = "-";
    std::string gain = "-";
    if (witness) {
      who = witness->miner.to_string();
      gain = fmt_double(
          100.0 *
              (witness->payoff_after - witness->payoff_before).to_double() /
              witness->payoff_before.to_double(),
          1);
    }
    table.row() << eq.to_string() << total_payoff(game, eq).to_string()
                << fmt_double(rpu_fairness_index(game, eq), 3)
                << fmt_double(rpu_spread(game, eq), 3) << who << gain;
  }
  table.print(std::cout, "\nEquilibrium landscape (Proposition 2: with >1 "
                         "equilibrium, every row has a gainer)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return goc::run_main(argc, argv, run); }
