#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/configuration.hpp"
#include "core/game.hpp"

/// \file moves.hpp
/// Better-response analysis (Section 2): a move of miner p from s.p to c is
/// a *better response* iff it strictly increases p's payoff. A miner with
/// no better response is *stable*; a configuration where every miner is
/// stable is a pure equilibrium.
///
/// Everything here is the *scan-based reference implementation*: from
/// scratch, O(|C|) per miner, all through one payoff loop in moves.cpp
/// over the paper's formula (`Game::payoff_fraction`). Payoffs stay
/// unreduced exact `Fraction`s, so every decision is an exact comparison
/// without a GCD; only a gain that is returned is reduced to a `Rational`,
/// once. The learning hot loop uses `dynamics::BestResponseIndex` (built
/// on the `MoveComparator` fast path in core/move_compare.hpp) instead,
/// and `scan_moves` is its audit oracle.

namespace goc {

/// One improvement step: `miner` moved `from → to`, gaining `gain > 0`.
struct Move {
  MinerId miner;
  CoinId from;
  CoinId to;
  Rational gain;

  std::string to_string() const;
};

/// What one scan of miner p's unilateral moves in s finds.
struct MoveScan {
  Fraction current;            ///< u_p(s), unreduced
  std::optional<CoinId> best;  ///< best response; nullopt iff p is stable
  Fraction best_payoff;        ///< payoff after `best` (`current` if stable)
  /// The best response's gain (0 if stable), reduced once.
  Rational best_gain() const { return (best_payoff - current).to_rational(); }
};

/// p's best response (ties toward the lowest coin id) and payoffs, from
/// one pass that reads each payoff once. A non-null `improving` is cleared
/// and filled with p's better responses in coin-id order (callers reuse
/// its capacity).
MoveScan scan_moves(const Game& game, const Configuration& s, MinerId p,
                    std::vector<CoinId>* improving = nullptr);

/// u_p((s_{-p}, c)) − u_p(s); positive iff moving to c is a better response.
Rational move_gain(const Game& game, const Configuration& s, MinerId p, CoinId c);

/// Strict-improvement test (no move when c == s.p).
bool is_better_response(const Game& game, const Configuration& s, MinerId p,
                        CoinId c);

/// All coins that are better responses for p in s, in coin-id order.
std::vector<CoinId> better_responses(const Game& game, const Configuration& s,
                                     MinerId p);

/// `scan_moves(game, s, p).best`: the lowest-id argmax of p's post-move
/// payoff, or nullopt when p is stable (keeps schedulers deterministic).
std::optional<CoinId> best_response(const Game& game, const Configuration& s,
                                    MinerId p);

/// True iff p has no better response in s.
bool is_stable(const Game& game, const Configuration& s, MinerId p);

/// True iff every miner is stable in s (pure equilibrium).
bool is_equilibrium(const Game& game, const Configuration& s);

/// Miners with at least one better response, in miner-id order.
std::vector<MinerId> unstable_miners(const Game& game, const Configuration& s);

/// Every better-response move available in s (the full improvement
/// neighborhood; used by enumeration and as the audit reference). Moves are
/// ordered by (miner id, coin id).
std::vector<Move> all_better_response_moves(const Game& game,
                                            const Configuration& s);

/// |better_responses(game, s, p)| without materializing the vector.
std::size_t count_better_responses(const Game& game, const Configuration& s,
                                   MinerId p);

/// |all_better_response_moves(game, s)| without materializing the vector
/// (no `Rational` gain is computed per move).
std::size_t count_all_better_response_moves(const Game& game,
                                            const Configuration& s);

/// The move at position `n` of `all_better_response_moves(game, s)` — the
/// same (miner id, coin id) ordering — materializing only that one move.
/// nullopt when fewer than n+1 improving moves exist. Lets samplers pick a
/// uniform improving move in O(n·|C|) comparisons and O(1) allocations.
std::optional<Move> nth_better_response_move(const Game& game,
                                             const Configuration& s,
                                             std::size_t n);

/// ε-stability (relative): p has no move improving its payoff by more than
/// epsilon·u_p(s). With epsilon = 0 this is exact stability. Miners with
/// real switching costs stop at ε-equilibria long before the exact one —
/// the practical reading of the §6 convergence-speed question.
bool is_epsilon_stable(const Game& game, const Configuration& s, MinerId p,
                       const Rational& epsilon);

/// Every miner is ε-stable.
bool is_epsilon_equilibrium(const Game& game, const Configuration& s,
                            const Rational& epsilon);

}  // namespace goc
