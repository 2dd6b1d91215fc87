#include "dynamics/learning.hpp"

#include <optional>

#include "core/moves.hpp"
#include "dynamics/best_response_index.hpp"
#include "obs/span.hpp"
#include "potential/list_potential.hpp"
#include "potential/observations.hpp"
#include "util/assert.hpp"
#include "util/fnv.hpp"

namespace goc {

namespace {

/// FNV-1a over the identifying fields of a move (gain is derived).
void hash_move(std::uint64_t& h, const Move& move) {
  fnv::mix_word(h, move.miner.value);
  fnv::mix_word(h, move.from.value);
  fnv::mix_word(h, move.to.value);
}

/// Wall time of one step's audit block (the Theorem 1 potential check and
/// `BestResponseIndex::audit`), recorded only when the audit is on.
obs::Histogram& audit_ns() {
  static obs::Histogram& histogram =
      obs::Registry::instance().histogram("learn.audit_ns");
  return histogram;
}

/// Checks `start` and opens the result both drivers fill in.
LearningResult open_run(const Game& game, Configuration start,
                        const LearningOptions& options) {
  GOC_CHECK_ARG(&start.system() == &game.system(),
                "configuration belongs to a different system");
  GOC_CHECK_ARG(game.respects_access(start),
                "start configuration violates the game's access policy");
  LearningResult result{std::move(start), 0, false, Trace{}};
  if (options.record_configurations) {
    result.trace.set_start(result.final_configuration);
  }
  return result;
}

/// Books one applied move: the step count (and `learn.steps`), the move
/// hash and, when asked for, the trace.
void record_step(LearningResult& result, const Move& move,
                 const LearningOptions& options) {
  static obs::Counter& steps = obs::Registry::instance().counter("learn.steps");
  steps.add();
  ++result.steps;
  hash_move(result.move_hash, move);
  if (options.record_moves || options.record_configurations) {
    result.trace.add_step(move, options.record_configurations
                                    ? &result.final_configuration
                                    : nullptr);
  }
}

/// best/current for two positive payoffs, unreduced: raw products, or the
/// reduced quotient when a product overflows.
Fraction payoff_ratio(const Fraction& best, const Fraction& current) {
  Fraction out;
  if (!mul_overflow(best.num, current.den, &out.num) &&
      !mul_overflow(best.den, current.num, &out.den)) {
    return out;
  }
  const Rational ratio = best.to_rational() / current.to_rational();
  return Fraction{ratio.numerator(), ratio.denominator()};
}

}  // namespace

LearningResult run_learning(const Game& game, Configuration start,
                            Scheduler& scheduler, const LearningOptions& options) {
  LearningResult result = open_run(game, std::move(start), options);
  Configuration& s = result.final_configuration;

  PotentialKey prev_key;
  if (options.audit_potential) prev_key = potential_key(game, s);

  std::optional<dynamics::BestResponseIndex> index;
  if (options.use_index) index.emplace(game, s);

  while (result.steps < options.max_steps) {
    const auto move = index ? scheduler.pick_indexed(game, s, *index)
                            : scheduler.pick(game, s);
    if (!move) {
      result.converged = true;
      break;
    }
    GOC_ASSERT(move->from == s.of(move->miner),
               "scheduler produced a move that does not apply");
    GOC_ASSERT(move->gain.is_positive(),
               "scheduler produced a non-improving move");
    if (options.audit_potential) {
      GOC_ASSERT(move->gain == move_gain(game, s, move->miner, move->to),
                 "move gain diverged from move_gain");
      GOC_ASSERT(observation1_holds(game, s, *move),
                 "Observation 1 violated: mover descended in list(s)");
      GOC_ASSERT(observation2_holds(game, s, *move),
                 "Observation 2 violated: RPU did not rise on both coins");
    }
    s.move(move->miner, move->to);
    if (index) index->sync(s);
    record_step(result, *move, options);
    if (options.audit_potential) {
      const obs::Span span(audit_ns());
      PotentialKey key = potential_key(game, s);
      GOC_ASSERT(prev_key < key,
                 "Theorem 1 violated: ordinal potential did not increase");
      prev_key = std::move(key);
      if (index) index->audit();
    }
  }
  if (!result.converged) {
    // Cap hit — distinguish "still improving" from "converged on the nose".
    result.converged = is_equilibrium(game, s);
  }
  return result;
}

LearningResult run_learning_to_epsilon(const Game& game, Configuration start,
                                       const Rational& epsilon,
                                       const LearningOptions& options) {
  GOC_CHECK_ARG(!epsilon.is_negative(), "epsilon must be nonnegative");
  LearningResult result = open_run(game, std::move(start), options);
  Configuration& s = result.final_configuration;

  std::optional<dynamics::BestResponseIndex> index;
  if (options.use_index) index.emplace(game, s);
  const Rational one_plus_epsilon = Rational(1) + epsilon;
  const Fraction threshold{one_plus_epsilon.numerator(),
                           one_plus_epsilon.denominator()};

  while (result.steps < options.max_steps) {
    // Globally maximal relative gain; ties toward lower miner/coin ids. A
    // miner's maximal-relative-gain move is its best response (its current
    // payoff is fixed), so only best responses compete, and the strict `>`
    // over miners in id order keeps the lowest-miner tie-break. Relative
    // gains are ranked as best/current (= 1 + gain/current), unreduced.
    std::optional<MinerId> chosen;
    CoinId chosen_to;
    Fraction chosen_ratio;
    const auto consider = [&](MinerId miner, CoinId to, const Fraction& best,
                              const Fraction& current) {
      const Fraction ratio = payoff_ratio(best, current);
      if (!chosen || ratio > chosen_ratio) {
        chosen = miner;
        chosen_to = to;
        chosen_ratio = ratio;
      }
    };
    if (index) {
      for (const MinerId miner : index->unstable()) {
        const CoinId to = *index->best_of(miner);
        consider(miner, to, game.payoff_fraction(s, miner, to),
                 game.payoff_fraction(s, miner, s.of(miner)));
      }
      if (options.audit_potential) {
        const obs::Span span(audit_ns());
        index->audit();
      }
    } else {
      for (std::uint32_t p = 0; p < game.num_miners(); ++p) {
        const MoveScan scan = scan_moves(game, s, MinerId(p));
        if (scan.best) {
          consider(MinerId(p), *scan.best, scan.best_payoff, scan.current);
        }
      }
    }
    if (!chosen || !(chosen_ratio > threshold)) {
      result.converged = true;  // ε-equilibrium reached (exact when ε == 0)
      break;
    }
    const Move best{*chosen, s.of(*chosen), chosen_to,
                    move_gain(game, s, *chosen, chosen_to)};
    s.move(best.miner, best.to);
    if (index) index->sync(s);
    record_step(result, best, options);
  }
  if (!result.converged) {
    result.converged = is_epsilon_equilibrium(game, s, epsilon);
  }
  GOC_DASSERT(!result.converged || is_epsilon_equilibrium(game, s, epsilon),
              "epsilon driver stopped away from an epsilon-equilibrium");
  return result;
}

}  // namespace goc
