#pragma once

#include <cstdint>
#include <string>

#include "core/configuration.hpp"
#include "core/game.hpp"
#include "dynamics/scheduler.hpp"

/// \file naive.hpp
/// Baseline manipulators, for the E8 comparison (`Naive.*` in
/// tests/test_design.cpp).
///
/// Section 5's algorithm looks heavyweight — n stages, one reward
/// re-publication per mover. The obvious cheaper ideas fail precisely
/// because better-response learning is *arbitrary*: after a one-shot pump,
/// the learning process may settle into an equilibrium of the pumped game
/// whose revert-time dynamics land somewhere other than sf. These baselines
/// make that failure measurable.

namespace goc {

struct ManipulationResult {
  bool success = false;  ///< system ended exactly at sf after reverting to F
  Configuration final_configuration;
  std::uint64_t iterations = 0;      ///< reward publications (incl. revert)
  std::uint64_t learning_steps = 0;
  Rational total_cost;               ///< Σ per-iteration overpayment
  std::string method;
};

/// One-shot proportional pump: publish H with H(c) = max(F(c), K·M_c(sf))
/// on coins occupied in sf (K = 2·maxF/min m, the same level the principled
/// design uses), let learning converge, revert to F, let learning converge
/// again. Succeeds only if both phases happen to land on sf.
ManipulationResult naive_proportional_pump(const Game& game,
                                           const Configuration& s0,
                                           const Configuration& sf,
                                           Scheduler& scheduler,
                                           std::uint64_t max_steps = 1u << 20);

/// Iterative deficit pump: up to `max_rounds` rounds, multiply by `factor`
/// the reward of the coin with the largest mass deficit vs sf, learn,
/// repeat; then revert and learn. A greedy heuristic with no guarantee.
ManipulationResult naive_deficit_pump(const Game& game, const Configuration& s0,
                                      const Configuration& sf,
                                      Scheduler& scheduler,
                                      std::int64_t factor = 2,
                                      std::size_t max_rounds = 32,
                                      std::uint64_t max_steps = 1u << 20);

}  // namespace goc
