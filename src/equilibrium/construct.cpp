#include "equilibrium/construct.hpp"

#include "util/assert.hpp"

namespace goc {

CoinId best_insertion_coin(const RewardFunction& rewards,
                           const std::vector<Rational>& masses,
                           const Rational& power) {
  GOC_CHECK_ARG(masses.size() == rewards.num_coins(),
                "mass vector arity must match the coin set");
  GOC_CHECK_ARG(power.is_positive(), "joining power must be positive");
  CoinId best(0);
  // Maximizing F(c)·m/(M_c+m) over c is maximizing F(c)/(M_c+m).
  Rational best_value = rewards(CoinId(0)) / (masses[0] + power);
  for (std::uint32_t c = 1; c < rewards.num_coins(); ++c) {
    const Rational value = rewards(CoinId(c)) / (masses[c] + power);
    if (value > best_value) {
      best_value = value;
      best = CoinId(c);
    }
  }
  return best;
}

Configuration greedy_equilibrium(const Game& game) {
  // Claim 6's stability-preservation argument compares miners across a
  // common action set; with player-specific access the construction can
  // leave earlier miners unstable. Restricted games obtain equilibria via
  // better-response learning instead (which always terminates, Theorem 1).
  GOC_CHECK_ARG(game.access().is_unrestricted(),
                "greedy_equilibrium requires the unrestricted access policy");
  const System& system = game.system();
  std::vector<Rational> masses(system.num_coins(), Rational(0));
  std::vector<CoinId> assignment(system.num_miners());
  for (const MinerId p : system.power_order()) {
    const Rational& m = system.powers()[p.value];
    const CoinId c = best_insertion_coin(game.rewards(), masses, m);
    assignment[p.value] = c;
    masses[c.value] += m;
  }
  return Configuration(game.system_ptr(), std::move(assignment));
}

}  // namespace goc
