/// \file asic_vs_gpu.cpp
/// The asymmetric market of the paper's Discussion (§6), in the shape the
/// intro motivates: whattomine.com asks which *hardware* you own before it
/// ranks coins, because SHA-256 ASICs cannot mine Ethash coins and vice
/// versa. This example builds a two-hardware-class market, shows that
/// better-response learning still converges (the Theorem 1 argument is
/// access-agnostic), and contrasts the equilibrium with its unrestricted
/// twin: restrictions strand revenue and trap miners on dominated coins.
///
/// Run:  ./asic_vs_gpu [--seed S]

#include <iostream>

#include "core/access.hpp"
#include "core/generators.hpp"
#include "core/moves.hpp"
#include "dynamics/learning.hpp"
#include "equilibrium/welfare.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace goc;
  const Cli cli(argc, argv);
  if (cli.refuse_unknown({"seed"})) return 2;
  const std::uint64_t seed = cli.get_u64("seed", 17);

  // Coins: c0 = BTC-like (SHA-256), c1 = BCH-like (SHA-256),
  //        c2 = ETH-like (Ethash), c3 = ETC-like (Ethash).
  // Miners 0-3 run ASICs, miners 4-7 run GPU rigs.
  const std::vector<std::vector<bool>> class_allows = {
      {true, true, false, false},  // ASIC
      {false, false, true, true},  // GPU
  };
  const AccessPolicy policy = AccessPolicy::hardware_classes(
      {0, 0, 0, 0, 1, 1, 1, 1}, class_allows);

  System system = System::from_integer_powers({34, 21, 13, 8, 30, 18, 11, 5}, 4);
  RewardFunction rewards = RewardFunction::from_integers({600, 140, 310, 60});
  const Game restricted(std::move(system), rewards, policy);
  const Game open_market(restricted.system_ptr(), rewards);

  std::cout << "hardware classes: miners p0-p3 = SHA-256 ASICs (c0,c1); "
               "p4-p7 = GPU rigs (c2,c3)\n"
            << "coin weights: " << rewards.to_string() << "\n\n";

  const auto settle = [&](const Game& game, const char* label) {
    Rng rng(seed);
    auto sched = make_scheduler(SchedulerKind::kRandomMiner, seed);
    LearningOptions opts;
    opts.audit_potential = true;  // Theorem 1 holds with or without access
    const auto result =
        run_learning(game, random_configuration(game, rng), *sched, opts);
    std::cout << label << ": converged after " << result.steps
              << " steps to " << result.final_configuration.to_string() << "\n";
    return result.final_configuration;
  };

  const Configuration eq_restricted = settle(restricted, "restricted market");
  const Configuration eq_open = settle(open_market, "unrestricted twin ");

  Table table({"metric", "restricted", "unrestricted"});
  table.row() << "distributed reward"
              << distributed_reward(restricted, eq_restricted).to_string()
              << distributed_reward(open_market, eq_open).to_string();
  table.row() << "revenue fairness (Jain)"
              << fmt_double(rpu_fairness_index(restricted, eq_restricted), 3)
              << fmt_double(rpu_fairness_index(open_market, eq_open), 3);
  table.row() << "RPU spread (max/min)"
              << fmt_double(rpu_spread(restricted, eq_restricted), 3)
              << fmt_double(rpu_spread(open_market, eq_open), 3);
  std::cout << "\n";
  table.print(std::cout, "Equilibrium comparison");

  // Show a concretely trapped miner, if any: a GPU miner whose RPU is
  // below what an ASIC coin pays per unit.
  for (std::uint32_t p = 4; p < 8; ++p) {
    const MinerId miner(p);
    const Rational own =
        restricted.payoff(eq_restricted, miner) / restricted.system().power(miner);
    for (std::uint32_t c = 0; c < 2; ++c) {
      const auto rpu = restricted.rpu(eq_restricted, CoinId(c));
      if (rpu.is_finite() && rpu.finite_value() > own) {
        std::cout << "\n" << miner.to_string()
                  << " earns RPU " << own.to_string() << " but SHA-256 coin "
                  << CoinId(c).to_string() << " pays "
                  << rpu.finite_value().to_string()
                  << " — profitable, unreachable, and (unlike the symmetric "
                     "case) perfectly stable.\n";
        return 0;
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return goc::run_main(argc, argv, run); }
