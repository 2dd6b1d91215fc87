#include "core/move_compare.hpp"

#include "core/moves.hpp"
#include "util/rational.hpp"

namespace goc {

MoveComparator::MoveComparator(const Game& game)
    : game_(&game), unrestricted_(game.access().is_unrestricted()) {
  scaled_rewards_.resize(game.num_coins());
  refresh();
}

void MoveComparator::refresh() {
  bool integer_powers = true;
  for (const Rational& m : game_->system().powers()) {
    if (!m.is_integer()) {
      integer_powers = false;
      break;
    }
  }
  const std::vector<Rational>& rewards = game_->rewards().values();
  bool integer_rewards = true;
  for (const Rational& f : rewards) {
    if (!f.is_integer()) {
      integer_rewards = false;
      break;
    }
  }
  integer_mode_ = integer_powers && integer_rewards;
  fast_mode_ = false;
  if (!integer_powers) return;  // masses would not be integers
  // Orderings are invariant under scaling every reward by one positive
  // constant, so rescale to the common denominator L = lcm(den(F(c))) and
  // compare through the integer numerators K_c = F(c)·L (for all-integer
  // rewards L = 1 and K_c is just the stored numerator). Any overflow
  // while rescaling drops back to the exact Rational path.
  i128 lcm = 1;
  for (const Rational& f : rewards) {
    const i128 q = f.denominator();
    const i128 g = static_cast<i128>(gcd128(uabs128(lcm), uabs128(q)));
    if (mul_overflow(lcm / g, q, &lcm)) return;
  }
  for (std::size_t c = 0; c < rewards.size(); ++c) {
    const i128 scale = lcm / rewards[c].denominator();
    if (mul_overflow(rewards[c].numerator(), scale, &scaled_rewards_[c])) {
      return;
    }
  }
  fast_mode_ = true;
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

bool MoveComparator::stable(const Configuration& s, MinerId p) const {
  const CoinId here = s.of(p);
  const std::uint32_t coins = static_cast<std::uint32_t>(s.num_coins());
  if (fast_mode_) {
    // Hoist the loop-invariant "stay put" side: K_here/M_here, with
    // M_here already including m_p.
    const i128 mp = game_->system().power(p).numerator();
    const i128 n_here = scaled_rewards_[here.value];
    const i128 d_here = s.mass(here).numerator();
    for (std::uint32_t c = 0; c < coins; ++c) {
      const CoinId coin(c);
      if (coin == here) continue;
      if (!unrestricted_ && !game_->can_mine(p, coin)) continue;
      const i128 n_c = scaled_rewards_[c];
      const i128 d_c = s.mass(coin).numerator() + mp;
      if (compare_positive_fractions(n_c, d_c, n_here, d_here) > 0) return false;
    }
    return true;
  }
  return is_stable(*game_, s, p);
}

bool MoveComparator::equilibrium(const Configuration& s) const {
  const std::uint32_t n = static_cast<std::uint32_t>(s.num_miners());
  for (std::uint32_t p = 0; p < n; ++p) {
    if (!stable(s, MinerId(p))) return false;
  }
  return true;
}

}  // namespace goc
