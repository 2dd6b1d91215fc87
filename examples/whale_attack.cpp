/// \file whale_attack.cpp
/// The manipulation lever, physically: whale transactions (Liao–Katz).
///
/// The paper observes that an interested party can raise a coin's weight
/// "by creating additional transactions with high fees". This example
/// stages exactly that in the market simulator: a whale floods a minor
/// coin's mempool with outsized fees for a few epochs, miners chase the
/// inflated weight, and when the whale stops the market reverts — showing
/// both the power and the limitation (no persistence) of naive pumping,
/// which is what motivates the staged mechanism of Section 5.
///
/// Run:  ./whale_attack [--whale-fee F] [--epochs N] [--seed S]

#include <iostream>

#include "market/market_sim.hpp"
#include "market/price_process.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace goc;
  using namespace goc::market;
  const Cli cli(argc, argv);
  if (cli.refuse_unknown({"whale-fee", "epochs", "seed"})) return 2;
  const double whale_fee = cli.get_double("whale-fee", 4000.0);
  const std::size_t epochs = cli.get_u64("epochs", 16);
  const std::uint64_t seed = cli.get_u64("seed", 37);
  const std::size_t attack_epochs = 4;

  // Two coins: a major (price 100) and a minor (price 10), same protocol.
  std::vector<CoinSpec> coins;
  coins.emplace_back("major", 10.0, 6.0,
                     std::make_unique<GbmProcess>(100.0, 0.0, 0.005),
                     FeeMarket(20.0, 0.01, 2.0));
  coins.emplace_back("minor", 10.0, 6.0,
                     std::make_unique<GbmProcess>(10.0, 0.0, 0.005),
                     FeeMarket(2.0, 0.01, 2.0));
  MarketOptions options;
  options.epochs = 1;  // we drive epochs one at a time
  options.br_steps_per_epoch = 0;
  options.seed = seed;
  MarketSimulator sim({8, 5, 3, 2, 1, 1}, std::move(coins), options);

  std::cout << "whale attack: inject " << whale_fee
            << " native units of fees into the minor coin for "
            << attack_epochs << " epochs, then stop.\n\n";

  Table table({"epoch", "whale_active", "minor_weight_$", "major_weight_$",
               "minor_hashrate_%"});
  double total_spent = 0.0;
  for (std::size_t e = 0; e < epochs; ++e) {
    const bool attacking = e < attack_epochs;
    if (attacking) {
      sim.inject_whale(1, whale_fee);
      total_spent += whale_fee;
    }
    const auto records = sim.run();  // one epoch
    const auto& r = records.front();
    table.row() << std::uint64_t(e) << (attacking ? "yes" : "no")
                << fmt_double(r.weights[1], 0) << fmt_double(r.weights[0], 0)
                << fmt_double(100.0 * r.hashrate_share[1], 1);
  }
  table.print(std::cout, "Epoch-by-epoch market state");

  std::cout << "\nwhale spent " << total_spent
            << " native units in fees. Hashrate followed the inflated weight"
            << " and reverted when the whale stopped — a one-shot pump buys "
               "attention, not a new equilibrium (cf. Section 5 and the "
               "reward_design_demo example).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return goc::run_main(argc, argv, run); }
