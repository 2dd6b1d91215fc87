#pragma once

#include <optional>
#include <string>

#include "core/configuration.hpp"
#include "core/enumerate.hpp"
#include "core/game.hpp"

/// \file exact_potential.hpp
/// Proposition 1: the mining game does not, in general, admit an *exact*
/// potential (a function whose change equals the deviating miner's payoff
/// change). By Monderer & Shapley (1996, Thm 2.8), a game admits an exact
/// potential iff every 4-cycle of unilateral deviations — two players p, q
/// alternately switching between two strategies each, with everyone else
/// fixed — has zero total payoff change. We search for a violating 4-cycle,
/// which doubles as a machine-checkable witness of Proposition 1.

namespace goc {

/// A 4-cycle s1 →(p) s2 →(q) s3 →(p) s4 →(q) s1 with nonzero improvement
/// sum (u_p(s2)−u_p(s1)) + (u_q(s3)−u_q(s2)) + (u_p(s4)−u_p(s3)) +
/// (u_q(s1)−u_q(s4)).
struct FourCycleWitness {
  Configuration s1;
  Configuration s2;
  Configuration s3;
  Configuration s4;
  MinerId p;
  MinerId q;
  Rational cycle_sum;  ///< nonzero by construction

  std::string to_string() const;
};

/// The improvement sum around the 4-cycle generated by base configuration
/// `s`, miners p ≠ q, and coin pairs (a→a') for p and (b→b') for q, where
/// s.p == a and s.q == b.
Rational four_cycle_sum(const Game& game, const Configuration& s, MinerId p,
                        CoinId a_prime, MinerId q, CoinId b_prime);

/// Searches for a nonzero 4-cycle on the symmetry-reduced parallel engine:
/// bases are canonical representatives (4-cycle sums are orbit-invariant,
/// so a witness exists on a canonical base iff one exists at all), walked
/// in place — per cycle, four O(1) `WalkState` hops instead of three
/// full-configuration copies. `max_bases` bounds the number of canonical
/// bases, applied to the first `max_bases` in canonical odometer order, so
/// the result is deterministic at any `opts.threads`. Returns the first
/// witness in (base, p, q, a', b') order.
std::optional<FourCycleWitness> find_nonzero_four_cycle(
    const Game& game, std::uint64_t max_bases = 4096);
std::optional<FourCycleWitness> find_nonzero_four_cycle(
    const Game& game, std::uint64_t max_bases, const EnumerationOptions& opts);

/// The legacy single-threaded full-space walker (first `max_bases` bases
/// in full odometer order) — the validation reference for `--compare-scan`
/// runs and golden tests.
std::optional<FourCycleWitness> find_nonzero_four_cycle_scan(
    const Game& game, std::uint64_t max_bases = 4096);

/// True iff every 4-cycle sums to zero across all bases — i.e. the game
/// admits an exact potential (only feasible for small games; throws
/// std::invalid_argument if |C|^n exceeds `max_configs`). Engine path:
/// canonical bases, in-place cycle walk, cross-shard early exit on the
/// first nonzero sum.
bool has_exact_potential(const Game& game, std::uint64_t max_configs = 1u << 20);
bool has_exact_potential(const Game& game, const EnumerationOptions& opts);

/// Legacy full-space reference for `has_exact_potential`.
bool has_exact_potential_scan(const Game& game, std::uint64_t max_configs = 1u << 20);

/// The two-miner/two-coin counterexample from the proof of Proposition 1:
/// m = (2, 1), F ≡ 1. `find_nonzero_four_cycle` on it reproduces the
/// paper's 2/3 cycle sum.
Game proposition1_game();

}  // namespace goc
