#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/access.hpp"
#include "core/configuration.hpp"
#include "core/reward.hpp"
#include "core/system.hpp"
#include "util/xrational.hpp"

/// \file game.hpp
/// The game G_{Π,C,F} (Section 2): a system plus a reward function.
///
/// Payoff semantics: coin c divides F(c) among its miners proportionally to
/// power, so RPU_c(s) = F(c)/M_c(s) and u_p(s) = m_p · RPU_{s.p}(s). An
/// empty coin's RPU is modeled as +∞ (see DESIGN.md §2.1): joining it alone
/// yields the full reward, i.e. the *post-move* RPU is what better-response
/// reasoning uses, and Observations 1–2 stay valid with this convention.

namespace goc {

/// The paper's payoff formula on its inputs, unreduced: power·reward/mass
/// when `here` (the mass already holds the miner's power), else
/// power·reward/(mass + power). When all three are integers and the raw
/// products fit it returns them as they are (no GCD); otherwise the parts
/// of the reduced `Rational` value — exact either way, and it throws
/// goc::OverflowError exactly when the `Rational` evaluation does. It
/// checks no ids and no access policy: `Game::payoff_fraction` is its
/// checked form, and `MoveComparator`'s exact fallback calls it directly.
Fraction payoff_formula(const Rational& power, const Rational& reward,
                        const Rational& mass, bool here);

class Game {
 public:
  /// Shares the system with configurations and other games (e.g. designed
  /// reward variants over the same ⟨Π, C⟩). The optional access policy
  /// models the asymmetric case of §6 (player-specific coin sets); it
  /// defaults to unrestricted, the paper's base model.
  Game(std::shared_ptr<const System> system, RewardFunction rewards,
       AccessPolicy access = {});

  /// Convenience: takes ownership of a freshly built system.
  Game(System system, RewardFunction rewards, AccessPolicy access = {});

  const System& system() const noexcept { return *system_; }
  const std::shared_ptr<const System>& system_ptr() const noexcept {
    return system_;
  }
  const RewardFunction& rewards() const noexcept { return rewards_; }
  const AccessPolicy& access() const noexcept { return access_; }

  /// May miner p (re)point its hashpower at coin c?
  bool can_mine(MinerId p, CoinId c) const { return access_.allowed(p, c); }

  /// The coins p may mine, in id order.
  std::vector<CoinId> allowed_coins(MinerId p) const {
    return access_.allowed_coins(p, num_coins());
  }

  /// Every miner in s sits on a coin it may mine.
  bool respects_access(const Configuration& s) const;

  std::size_t num_miners() const noexcept { return system_->num_miners(); }
  std::size_t num_coins() const noexcept { return system_->num_coins(); }

  /// RPU_c(s) = F(c)/M_c(s); +∞ when c is empty.
  XRational rpu(const Configuration& s, CoinId c) const;

  /// The game's one payoff formula, unreduced: u_p((s_{-p}, c)) =
  /// m_p·F(c)/(M_c + m_p) for c ≠ s.p, and the current payoff
  /// u_p(s) = m_p·F(c)/M_c for c == s.p (whose mass already holds m_p).
  /// When m_p, F(c) and M_c are integers and the raw products fit it
  /// returns them as they are (no GCD); otherwise the parts of the reduced
  /// `Rational` value — exact either way, and it throws goc::OverflowError
  /// exactly when the `Rational` evaluation does. Throws when c ≠ s.p and
  /// the access policy forbids p mining c (a miner may sit on a coin it
  /// may not mine; its current payoff is still defined).
  Fraction payoff_fraction(const Configuration& s, MinerId p, CoinId c) const;

  /// u_p(s) = m_p · RPU_{s.p}(s). Always finite (p itself mines s.p).
  Rational payoff(const Configuration& s, MinerId p) const;

  /// u_p((s_{-p}, c)) — p's payoff after unilaterally moving to c (equals
  /// payoff(s, p) when c == s.p). Always finite. Throws when the access
  /// policy forbids p mining c.
  Rational payoff_if_move(const Configuration& s, MinerId p, CoinId c) const;

  /// Same game, different rewards (used by the reward-design mechanism);
  /// the access policy carries over.
  Game with_rewards(RewardFunction rewards) const;

  /// Replaces the reward function *in place* — system and access policy
  /// untouched, arity checked. The complement of `with_rewards` for
  /// simulation loops that change weights every epoch: observers holding a
  /// reference to this game (configurations, comparators, indices) keep
  /// it; anything caching reward-derived state must be refreshed (see
  /// `dynamics::BestResponseIndex::reweight`).
  void reweight(RewardFunction rewards);

  /// Zero-allocation reweight: copies `weights` into the reward function's
  /// preallocated storage (`RewardFunction::assign`). The market epoch
  /// engine's steady-state path.
  void reweight(const std::vector<Rational>& weights);

  std::string to_string() const;

 private:
  std::shared_ptr<const System> system_;
  RewardFunction rewards_;
  AccessPolicy access_;
};

}  // namespace goc
