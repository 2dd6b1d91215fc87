#include "core/moves.hpp"

#include <sstream>

#include "util/assert.hpp"

namespace goc {

std::string Move::to_string() const {
  std::ostringstream os;
  os << miner.to_string() << ": " << from.to_string() << " -> "
     << to.to_string() << " (+" << gain.to_string() << ")";
  return os.str();
}

Rational move_gain(const Game& game, const Configuration& s, MinerId p,
                   CoinId c) {
  GOC_CHECK_ARG(game.can_mine(p, c),
                "access policy forbids this miner-coin pair");
  return (game.payoff_fraction(s, p, c) - game.payoff_fraction(s, p, s.of(p)))
      .to_rational();
}

bool is_better_response(const Game& game, const Configuration& s, MinerId p,
                        CoinId c) {
  if (s.of(p) == c) return false;
  if (!game.can_mine(p, c)) return false;
  return game.payoff_fraction(s, p, c) > game.payoff_fraction(s, p, s.of(p));
}

namespace {

/// One allowed unilateral move of p, as the payoff loop hands it out.
struct Candidate {
  CoinId coin;
  const Fraction& payoff;   // u_p((s_{-p}, coin))
  const Fraction& current;  // u_p(s)
  bool improves() const { return payoff > current; }
  Rational gain() const { return (payoff - current).to_rational(); }
};

/// The one payoff loop of the reference layer: computes u_p(s) once, then
/// u_p((s_{-p}, c)) once for each coin c ≠ s.p that p may mine, in coin-id
/// order, until `visit` returns false. Returns u_p(s). Payoffs are
/// unreduced `Fraction`s, so each query below is a visitor making only the
/// exact comparisons it needs, and reduces only the gains it returns.
template <typename Visit>
Fraction for_each_move(const Game& game, const Configuration& s, MinerId p,
                       Visit&& visit) {
  const CoinId here = s.of(p);
  const Fraction current = game.payoff_fraction(s, p, here);
  for (std::uint32_t c = 0; c < game.num_coins(); ++c) {
    const CoinId coin(c);
    if (coin == here || !game.can_mine(p, coin)) continue;
    const Fraction after = game.payoff_fraction(s, p, coin);
    if (!visit(Candidate{coin, after, current})) break;
  }
  return current;
}

}  // namespace

MoveScan scan_moves(const Game& game, const Configuration& s, MinerId p,
                    std::vector<CoinId>* improving) {
  if (improving) improving->clear();
  MoveScan scan;
  scan.current = for_each_move(game, s, p, [&](const Candidate& m) {
    if (improving) {
      if (!m.improves()) return true;
      improving->push_back(m.coin);
    }
    // Strict: ties keep the lowest coin id.
    if (m.payoff > (scan.best ? scan.best_payoff : m.current)) {
      scan.best = m.coin;
      scan.best_payoff = m.payoff;
    }
    return true;
  });
  if (!scan.best) scan.best_payoff = scan.current;
  return scan;
}

std::vector<CoinId> better_responses(const Game& game, const Configuration& s,
                                     MinerId p) {
  std::vector<CoinId> out;
  scan_moves(game, s, p, &out);
  return out;
}

std::optional<CoinId> best_response(const Game& game, const Configuration& s,
                                    MinerId p) {
  return scan_moves(game, s, p).best;
}

bool is_stable(const Game& game, const Configuration& s, MinerId p) {
  bool stable = true;
  for_each_move(game, s, p,
                [&](const Candidate& m) { return stable = !m.improves(); });
  return stable;
}

bool is_equilibrium(const Game& game, const Configuration& s) {
  for (std::uint32_t p = 0; p < game.num_miners(); ++p) {
    if (!is_stable(game, s, MinerId(p))) return false;
  }
  return true;
}

std::vector<MinerId> unstable_miners(const Game& game, const Configuration& s) {
  std::vector<MinerId> out;
  for (std::uint32_t p = 0; p < game.num_miners(); ++p) {
    if (!is_stable(game, s, MinerId(p))) out.emplace_back(p);
  }
  return out;
}

bool is_epsilon_stable(const Game& game, const Configuration& s, MinerId p,
                       const Rational& epsilon) {
  GOC_CHECK_ARG(!epsilon.is_negative(), "epsilon must be nonnegative");
  // The threshold is at least u_p(s), so the best response decides.
  const MoveScan scan = scan_moves(game, s, p);
  const Rational current = scan.current.to_rational();
  return !(scan.best_payoff.to_rational() > current + current * epsilon);
}

bool is_epsilon_equilibrium(const Game& game, const Configuration& s,
                            const Rational& epsilon) {
  for (std::uint32_t p = 0; p < game.num_miners(); ++p) {
    if (!is_epsilon_stable(game, s, MinerId(p), epsilon)) return false;
  }
  return true;
}

std::size_t count_better_responses(const Game& game, const Configuration& s,
                                   MinerId p) {
  std::size_t count = 0;
  for_each_move(game, s, p, [&](const Candidate& m) {
    count += m.improves() ? 1 : 0;
    return true;
  });
  return count;
}

std::size_t count_all_better_response_moves(const Game& game,
                                            const Configuration& s) {
  std::size_t count = 0;
  for (std::uint32_t p = 0; p < game.num_miners(); ++p) {
    count += count_better_responses(game, s, MinerId(p));
  }
  return count;
}

std::optional<Move> nth_better_response_move(const Game& game,
                                             const Configuration& s,
                                             std::size_t n) {
  std::optional<Move> move;
  for (std::uint32_t p = 0; p < game.num_miners() && !move; ++p) {
    const MinerId miner(p);
    for_each_move(game, s, miner, [&](const Candidate& m) {
      if (!m.improves() || n-- > 0) return true;  // not yet the n-th
      move = Move{miner, s.of(miner), m.coin, m.gain()};
      return false;
    });
  }
  return move;
}

std::vector<Move> all_better_response_moves(const Game& game,
                                            const Configuration& s) {
  std::vector<Move> out;
  for (std::uint32_t p = 0; p < game.num_miners(); ++p) {
    const MinerId miner(p);
    for_each_move(game, s, miner, [&](const Candidate& m) {
      if (m.improves()) {
        out.push_back(Move{miner, s.of(miner), m.coin, m.gain()});
      }
      return true;
    });
  }
  return out;
}

}  // namespace goc
