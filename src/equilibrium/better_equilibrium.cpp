#include "equilibrium/better_equilibrium.hpp"

#include <algorithm>
#include <numeric>

#include "core/moves.hpp"
#include "equilibrium/construct.hpp"
#include "util/assert.hpp"

namespace goc {

bool claim7_implies_stable(const Game& game, const Configuration& s, MinerId p,
                           MinerId p_prime) {
  GOC_CHECK_ARG(s.of(p) == s.of(p_prime), "claim 7 requires a shared coin");
  GOC_CHECK_ARG(game.system().power(p) <= game.system().power(p_prime),
                "claim 7 requires m_p <= m_p'");
  if (!is_stable(game, s, p)) return true;  // implication vacuously true
  return is_stable(game, s, p_prime);
}

std::pair<Configuration, Configuration> lemma2_two_configurations(const Game& game) {
  const System& system = game.system();
  GOC_CHECK_ARG(game.access().is_unrestricted(),
                "lemma 2's construction requires the unrestricted policy");
  GOC_CHECK_ARG(system.num_miners() >= 2, "lemma 2 needs at least two miners");
  GOC_CHECK_ARG(system.num_coins() >= 2, "lemma 2 needs at least two coins");

  // Miners in non-increasing power order (stable on id).
  const std::vector<MinerId>& order = system.power_order();

  // The two heaviest coins (stable on id).
  std::vector<std::uint32_t> coin_order(system.num_coins());
  std::iota(coin_order.begin(), coin_order.end(), 0);
  std::stable_sort(coin_order.begin(), coin_order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return game.rewards()(CoinId(a)) > game.rewards()(CoinId(b));
                   });
  const CoinId c1(coin_order[0]);
  const CoinId c2(coin_order[1]);

  std::vector<CoinId> assign_a(system.num_miners());
  std::vector<CoinId> assign_b(system.num_miners());
  std::vector<Rational> mass_a(system.num_coins(), Rational(0));
  std::vector<Rational> mass_b(system.num_coins(), Rational(0));

  const auto place = [&](std::vector<CoinId>& assign, std::vector<Rational>& mass,
                         MinerId miner, CoinId coin) {
    assign[miner.value] = coin;
    mass[coin.value] += system.powers()[miner.value];
  };

  // s²₁ = ⟨c1, c2⟩ and s²₂ = ⟨c2, c1⟩ over the two largest miners.
  place(assign_a, mass_a, order[0], c1);
  place(assign_a, mass_a, order[1], c2);
  place(assign_b, mass_b, order[0], c2);
  place(assign_b, mass_b, order[1], c1);

  // Claim 5: greedy insertion keeps everyone already placed stable.
  for (std::size_t k = 2; k < order.size(); ++k) {
    const Rational& m = system.powers()[order[k].value];
    place(assign_a, mass_a, order[k], best_insertion_coin(game.rewards(), mass_a, m));
    place(assign_b, mass_b, order[k], best_insertion_coin(game.rewards(), mass_b, m));
  }

  return {Configuration(game.system_ptr(), std::move(assign_a)),
          Configuration(game.system_ptr(), std::move(assign_b))};
}

std::optional<BetterEquilibriumWitness> find_better_equilibrium(
    const Game& game, const Configuration& s,
    const std::vector<Configuration>& equilibria) {
  std::optional<BetterEquilibriumWitness> best;
  for (const Configuration& other : equilibria) {
    if (other == s) continue;
    for (std::uint32_t p = 0; p < game.num_miners(); ++p) {
      const MinerId miner(p);
      const Rational before = game.payoff(s, miner);
      const Rational after = game.payoff(other, miner);
      if (after > before &&
          (!best || (after - before) > (best->payoff_after - best->payoff_before))) {
        best = BetterEquilibriumWitness{miner, other, before, after};
      }
    }
  }
  return best;
}

}  // namespace goc
