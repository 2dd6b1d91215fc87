/// \file btc_bch_migration.cpp
/// The paper's motivating episode (Figure 1), as a narrative simulation.
///
/// November 2017: the BCH exchange rate spikes while BTC dips, flipping
/// which chain pays more per unit of hashpower — and miners visibly
/// migrate, then drift back as prices revert. This example replays the
/// episode with the market simulator and prints the two series the paper
/// plots, plus the migration milestones.
///
/// Run:  ./btc_bch_migration [--days N] [--shock-day D] [--revert-day D]
///                           [--seed S] [--csv out]

#include <iostream>

#include "market/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace goc;
  using namespace goc::market;
  const Cli cli(argc, argv);
  if (cli.refuse_unknown({"days", "shock-day", "revert-day", "seed", "csv"})) {
    return 2;
  }

  ForkFlipParams params;
  params.days = cli.get_double("days", 30.0);
  params.shock_day = cli.get_double("shock-day", 12.0);
  params.revert_day = cli.get_double("revert-day", 15.0);
  params.seed = cli.get_u64("seed", 1711);

  std::cout << "Replaying the Nov-2017 fork flip: " << params.miners
            << " miners, shock at day " << params.shock_day
            << ", reversal at day " << params.revert_day << ".\n\n";

  MarketSimulator sim = fork_flip_scenario(params);
  const auto records = sim.run();

  Table table({"day", "BTC_$", "BCH_$", "BCH_hashrate_%"});
  double peak_share = 0.0;
  double peak_day = 0.0;
  for (std::size_t i = 23; i < records.size(); i += 24) {
    const auto& r = records[i];
    table.row() << fmt_double(r.t_hours / 24.0, 0) << fmt_double(r.prices[0], 0)
                << fmt_double(r.prices[1], 0)
                << fmt_double(100.0 * r.hashrate_share[1], 1);
  }
  for (const auto& r : records) {
    if (r.hashrate_share[1] > peak_share) {
      peak_share = r.hashrate_share[1];
      peak_day = r.t_hours / 24.0;
    }
  }
  table.print(std::cout, "Daily series (compare to the paper's Figure 1)");

  std::cout << "\nmigration peak: " << fmt_double(100.0 * peak_share, 1)
            << "% of global hashrate on BCH at day " << fmt_double(peak_day, 1)
            << "\nfinal split:    "
            << fmt_double(100.0 * records.back().hashrate_share[1], 1)
            << "% on BCH at day " << fmt_double(params.days, 0) << "\n";

  if (cli.has("csv")) {
    const std::string path = cli.get_string("csv", "fork_flip") + ".csv";
    table.save_csv(path);
    std::cout << "series saved to " << path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return goc::run_main(argc, argv, run); }
