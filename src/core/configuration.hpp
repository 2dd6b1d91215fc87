#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "core/types.hpp"
#include "util/assert.hpp"
#include "util/rational.hpp"

/// \file configuration.hpp
/// A configuration s ∈ S = C^n assigns every miner a coin (Section 2).
///
/// The class maintains, incrementally, the per-coin aggregate mass
/// M_c(s) = Σ_{p ∈ P_c(s)} m_p and population |P_c(s)| so that applying a
/// move costs O(1) and a full better-response scan costs O(|C|) per miner.
/// Configurations share ownership of their `System` (shared_ptr) so that a
/// configuration, the base game, and any number of *designed* games over
/// the same system can coexist without lifetime pitfalls.
///
/// Derived structures (e.g. `dynamics::BestResponseIndex`) track a
/// configuration incrementally through the *move-epoch hook*: every
/// effective `move()` bumps `move_epoch()` and records the delta
/// (`last_delta()`), so an observer that saw epoch k and now sees k+1 can
/// update in O(Δ) from the two changed coins instead of rescanning.

namespace goc {

/// The change applied by the most recent effective `Configuration::move`.
struct MoveDelta {
  MinerId miner;
  CoinId from;
  CoinId to;
};

class Configuration {
 public:
  /// Assignment must have one entry per miner and reference valid coins.
  Configuration(std::shared_ptr<const System> system,
                std::vector<CoinId> assignment);

  /// Every miner on coin `c` — the start of reward-design stage 1.
  static Configuration all_at(std::shared_ptr<const System> system, CoinId c);

  const System& system() const noexcept { return *system_; }
  const std::shared_ptr<const System>& system_ptr() const noexcept {
    return system_;
  }

  std::size_t num_miners() const noexcept { return assignment_.size(); }
  std::size_t num_coins() const noexcept { return system_->num_coins(); }

  /// s.p — the coin mined by p.
  CoinId of(MinerId p) const {
    GOC_CHECK_ARG(system_->valid_miner(p), "unknown miner id");
    return assignment_[p.value];
  }
  const std::vector<CoinId>& assignment() const noexcept { return assignment_; }

  /// M_c(s): total power mining c (zero for an empty coin).
  const Rational& mass(CoinId c) const {
    GOC_CHECK_ARG(system_->valid_coin(c), "unknown coin id");
    return mass_[c.value];
  }
  /// |P_c(s)|.
  std::size_t population(CoinId c) const;
  bool empty_coin(CoinId c) const { return population(c) == 0; }
  /// Number of coins with at least one miner.
  std::size_t occupied_coins() const noexcept { return occupied_; }

  /// P_c(s), in miner-id order. O(n).
  std::vector<MinerId> members(CoinId c) const;

  /// Moves p to `to` (no-op when already there), updating masses in O(1).
  /// Effective moves bump `move_epoch()` and record `last_delta()`.
  void move(MinerId p, CoinId to);

  /// Number of effective moves applied since construction (copies inherit
  /// the source's epoch). No-op moves (to == current coin) do not count.
  std::uint64_t move_epoch() const noexcept { return move_epoch_; }

  /// The delta of the most recent effective move; only meaningful when
  /// `move_epoch() > 0`.
  const MoveDelta& last_delta() const noexcept { return last_delta_; }

  /// (s_{-p}, c) — a copy with p moved.
  Configuration with_move(MinerId p, CoinId to) const;

  /// Assignment equality (systems must coincide — checked).
  bool operator==(const Configuration& other) const;

  /// Hash of the assignment (for equilibrium enumeration sets).
  std::size_t hash() const noexcept;

  /// e.g. "⟨c1, c0, c1⟩".
  std::string to_string() const;

 private:
  std::shared_ptr<const System> system_;
  std::vector<CoinId> assignment_;
  std::vector<Rational> mass_;        // indexed by coin
  std::vector<std::size_t> count_;    // indexed by coin
  std::size_t occupied_ = 0;
  std::uint64_t move_epoch_ = 0;
  MoveDelta last_delta_{MinerId(0), CoinId(0), CoinId(0)};
};

}  // namespace goc

template <>
struct std::hash<goc::Configuration> {
  std::size_t operator()(const goc::Configuration& c) const noexcept {
    return c.hash();
  }
};
