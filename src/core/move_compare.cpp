#include "core/move_compare.hpp"

#include <algorithm>

#include "util/rational.hpp"

namespace goc {

MoveComparator::MoveComparator(const Game& game)
    : game_(&game),
      integer_powers_(std::all_of(game.system().powers().begin(),
                                  game.system().powers().end(),
                                  [](const Rational& m) { return m.is_integer(); })) {
  scaled_rewards_.reserve(game.num_coins());
  refresh();
}

void MoveComparator::refresh() {
  // Orderings are invariant under scaling every reward by one positive
  // constant, so rescale to the common denominator L = lcm(den(F(c))) and
  // compare through the integer numerators K_c = F(c)·L (for all-integer
  // rewards L = 1 and K_c is just the stored numerator). An overflow
  // while rescaling drops back to the exact payoff formula.
  i128 scale;
  rescaled_ = scale_to_integers(game_->rewards().values(), scaled_rewards_, scale);
  fast_mode_ = integer_powers_ && rescaled_;
}

std::strong_ordering MoveComparator::compare(const Configuration& s, MinerId p,
                                             CoinId c1, CoinId c2) const {
  if (c1 == c2) return std::strong_ordering::equal;
  const CoinId here = s.of(p);
  if (fast_mode_) {
    // Powers (hence masses) are integers stored in normalized Rationals,
    // so the numerators ARE the values; rewards enter as their rescaled
    // integer numerators K_c (the common denominator L cancels from the
    // ratio). Post-move "value" of coin c for p is K_c / D_c with
    // D_c = M_c + m_p for a move and D_c = M_c for the current coin
    // (whose mass already includes m_p); the common factor m_p > 0 cancels
    // from both sides.
    const i128 mp = game_->system().power(p).numerator();
    const i128 n1 = scaled_rewards_[c1.value];
    const i128 n2 = scaled_rewards_[c2.value];
    const i128 d1 = s.mass(c1).numerator() + (c1 == here ? 0 : mp);
    const i128 d2 = s.mass(c2).numerator() + (c2 == here ? 0 : mp);
    return compare_positive_fractions(n1, d1, n2, d2);
  }
  // The exact formula without the access check: the index's threshold
  // searches compare coins that a listed member may not mine.
  const Rational& mp = game_->system().power(p);
  const RewardFunction& rewards = game_->rewards();
  return payoff_formula(mp, rewards(c1), s.mass(c1), c1 == here) <=>
         payoff_formula(mp, rewards(c2), s.mass(c2), c2 == here);
}

bool MoveComparator::gains_exact(i128 mp, CoinId here, i128 m_here, CoinId c,
                                 i128 m_c) const {
  const Rational power = Rational::from_parts(mp, 1);
  const RewardFunction& rewards = game_->rewards();
  return payoff_formula(power, rewards(c), Rational::from_parts(m_c, 1), false) >
         payoff_formula(power, rewards(here), Rational::from_parts(m_here, 1), true);
}

}  // namespace goc
