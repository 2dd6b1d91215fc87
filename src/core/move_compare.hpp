#pragma once

#include <compare>
#include <vector>

#include "core/configuration.hpp"
#include "core/game.hpp"
#include "util/int128.hpp"
#include "util/rational.hpp"

/// \file move_compare.hpp
/// The index-backed fast path for better-response comparisons.
///
/// `core/moves.*` is the *scan-based reference*: it evaluates each full
/// payoff m_p·F(c)/(M_c + m_p) by the paper's formula
/// (`Game::payoff_fraction`, an unreduced exact `Fraction`; GCD only for a
/// gain it returns). The hot loop only ever needs *orderings* of post-move
/// payoffs of one miner, and for miner p those reduce to comparing
/// F(a)/(M_a + m_p) against F(b)/(M_b + m_p) — a cross-multiplication.
/// When powers and masses are integers, the whole comparison is two raw
/// 128-bit multiplies with no `Rational` construction and no GCD.
///
/// Rewards need not be integers for that to work: orderings are invariant
/// under scaling all rewards by one positive constant, so the reward set
/// is rescaled at construction to a common denominator
/// L = lcm_c(den(F(c))) and compared through the integer numerators
/// K_c = F(c)·L. This is what keeps the market epoch engine on the i128
/// path — its weights are `Rational::from_double` quantizations whose
/// denominators all divide the quantization denominator. Overflowing
/// products take the exact GCD-reduced fallback of `compare_fractions`;
/// reward sets whose rescaling would overflow fall back to comparing the
/// two exact payoffs (`payoff_formula`), so the ordering returned is
/// always exact — bit-for-bit the same decision the reference scan makes.
///
/// Two callers, one rule: `compare` reads a `Configuration` (the index;
/// integer powers take the K_c path, others the exact formula), and
/// `gains` reads integer powers and masses in any common unit (the
/// enumeration walk, which scales rational powers to integers).

namespace goc {

/// Exact comparison of a_num/a_den vs b_num/b_den for nonnegative
/// numerators and positive denominators: the comparator's primitive. It is
/// `compare_fractions` on the magnitudes (inline — this sits in every
/// engine inner loop): two raw 128-bit multiplies, and the GCD-reduced and
/// continued-fraction fallbacks only when a cross product overflows.
inline std::strong_ordering compare_positive_fractions(i128 a_num, i128 a_den,
                                                       i128 b_num,
                                                       i128 b_den) noexcept {
  return compare_fractions(static_cast<u128>(a_num), static_cast<u128>(a_den),
                           static_cast<u128>(b_num), static_cast<u128>(b_den));
}

/// Exact post-move payoff comparisons for a fixed game, with an integer
/// `i128` fast path. Holds a reference to the game; the configuration is
/// passed per call so one comparator serves an evolving trajectory.
class MoveComparator {
 public:
  explicit MoveComparator(const Game& game);

  /// Re-derives the rescaled reward numerators from the game's *current*
  /// rewards, reusing the existing storage (no allocation). Must be called
  /// after `Game::reweight` changed the reward function under this
  /// comparator; `BestResponseIndex::reweight` does.
  void refresh();

  /// True when `compare` runs on the i128 path: integer powers and
  /// rewards rescalable to integers by a common positive factor.
  bool fast_mode() const noexcept { return fast_mode_; }

  /// Compares miner p's payoff after unilaterally moving to `c1` vs `c2`
  /// (either may equal s.of(p), meaning "stay put" — the current payoff).
  /// Exact: equals comparing `game.payoff_fraction` results, without
  /// evaluating them in fast mode. The access policy is not consulted: the
  /// result is the payoff formula at p's power for any two coins.
  std::strong_ordering compare(const Configuration& s, MinerId p, CoinId c1,
                               CoinId c2) const;

  /// True iff a miner of power `mp` sitting on `here` (mass `m_here`,
  /// which includes mp) strictly gains by moving to `c` (mass `m_c`).
  /// Powers and masses are integers in any one unit — the enumeration
  /// walk passes them scaled by the powers' common denominator, which
  /// leaves the comparison unchanged. Through K_c when the rewards
  /// rescale, else the exact `payoff_formula`. Access is the caller's.
  bool gains(i128 mp, CoinId here, i128 m_here, CoinId c, i128 m_c) const {
    if (rescaled_) [[likely]] {
      return compare_positive_fractions(scaled_rewards_[c.value], m_c + mp,
                                        scaled_rewards_[here.value],
                                        m_here) > 0;
    }
    return gains_exact(mp, here, m_here, c, m_c);
  }

 private:
  bool gains_exact(i128 mp, CoinId here, i128 m_here, CoinId c,
                   i128 m_c) const;

  const Game* game_;
  bool integer_powers_;
  bool rescaled_ = false;  // scaled_rewards_ holds K_c
  bool fast_mode_ = false;
  std::vector<i128> scaled_rewards_;  // K_c = F(c)·L
};

}  // namespace goc
