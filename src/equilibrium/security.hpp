#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/configuration.hpp"
#include "core/game.hpp"

/// \file security.hpp
/// Coin-security metrics — the §6 "bad configuration" extension.
///
/// The paper's Discussion flags that a manipulator might drive the system
/// toward a configuration "in which a particular miner will have a
/// dominant position in a coin, killing (at least for a while) the basic
/// guarantee of non-manipulation (security) for that coin". This module
/// quantifies domination and searches equilibria for attacker-favorable
/// targets. Combined with the reward-design mechanism it lets an attacker
/// *provably park* the system in a state where it majority-controls a coin
/// (`Security.*` in tests/test_extensions.cpp, `RewardDesignProperty.*` in
/// tests/test_design.cpp).

namespace goc {

/// The largest single-miner share of coin c's mass in s (0 for an empty
/// coin). A share above 1/2 means one miner can censor/rewrite that coin.
Rational domination_share(const Game& game, const Configuration& s, CoinId c);

/// The miner holding a strict majority of c's mass, if any.
std::optional<MinerId> majority_controller(const Game& game,
                                           const Configuration& s, CoinId c);

/// Per-configuration security summary.
struct SecurityReport {
  /// max miner share per coin (0 for empty coins).
  std::vector<Rational> max_share;
  /// Majority controller per coin (nullopt when none).
  std::vector<std::optional<MinerId>> controller;
  /// Number of coins with a strict-majority controller.
  std::size_t majority_controlled = 0;
  /// Number of occupied coins.
  std::size_t occupied = 0;

  std::string to_string() const;
};

SecurityReport security_report(const Game& game, const Configuration& s);

/// An attacker-favorable target: an equilibrium where `attacker` holds its
/// maximal share of some coin.
struct DominationTarget {
  Configuration equilibrium;
  CoinId coin;
  Rational attacker_share;  ///< attacker's fraction of the coin's mass
};

/// Scans `equilibria` for the one maximizing the attacker's share of its
/// own coin. Returns nullopt when the list is empty. Combined with
/// Algorithm 2 (`run_reward_design`), this is the §6 attack: steer the
/// system to the returned equilibrium, then stop paying — the attacker
/// keeps its dominant position indefinitely because the target is stable.
std::optional<DominationTarget> best_domination_target(
    const Game& game, MinerId attacker,
    const std::vector<Configuration>& equilibria);

}  // namespace goc
