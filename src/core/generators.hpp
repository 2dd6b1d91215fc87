#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/configuration.hpp"
#include "core/game.hpp"
#include "util/rng.hpp"

/// \file generators.hpp
/// Random workload generation for tests and benchmark sweeps.
///
/// Mining power in practice is heavy-tailed (a few large pools, many small
/// miners), so besides uniform powers we provide Zipf- and Pareto-shaped
/// integer powers. Reward functions model coin weights (block reward ×
/// exchange rate + fees), drawn uniformly or sized like a "majors + long
/// tail" market.

namespace goc {

enum class PowerShape {
  kEqual,    ///< all miners identical (symmetric stress case)
  kUniform,  ///< uniform integers in [power_lo, power_hi]
  kZipf,     ///< rank-r miner gets ⌈power_hi / r^zipf_s⌉
  kPareto,   ///< i.i.d. Pareto(power_lo, pareto_alpha), rounded up
};

enum class RewardShape {
  kEqual,    ///< symmetric case of Appendix B
  kUniform,  ///< uniform integers in [reward_lo, reward_hi]
  kMajors,   ///< a few heavy coins plus a geometric tail
};

/// Stable identifier for tables/CSV ("equal", "uniform", "zipf", "pareto").
/// Returns an interned static, so no per-call allocation.
const std::string& power_shape_name(PowerShape shape);

/// Stable identifier for tables/CSV ("equal", "uniform", "majors").
/// Interned like `power_shape_name`.
const std::string& reward_shape_name(RewardShape shape);

struct GameSpec {
  std::size_t num_miners = 10;
  std::size_t num_coins = 3;

  PowerShape power_shape = PowerShape::kUniform;
  std::int64_t power_lo = 1;
  std::int64_t power_hi = 1000;
  double zipf_s = 1.0;
  double pareto_alpha = 1.16;  // the "80/20" shape

  /// Force strictly distinct powers (the standing assumption of Section 5).
  bool distinct_powers = false;
  /// Emit miners sorted by decreasing power (p1 largest), as Sections 4–5
  /// index them.
  bool sort_desc = false;

  RewardShape reward_shape = RewardShape::kUniform;
  std::int64_t reward_lo = 100;
  std::int64_t reward_hi = 10000;

  std::string to_string() const;
};

/// Draws a game according to `spec`. Deterministic for a fixed `rng` state.
Game random_game(const GameSpec& spec, Rng& rng);

/// Uniformly random assignment of miners to coins.
Configuration random_configuration(const Game& game, Rng& rng);

/// Makes all miner powers pairwise distinct while preserving their order
/// and relative magnitudes: m_i ↦ m_i·scale + (n−i). Integer powers stay
/// integer (exact arithmetic stays cheap); payoff ratios are perturbed by
/// O(n/scale) only, since the game is invariant under uniform power
/// scaling. `scale` ≤ 0 selects n+1. Used to establish the strict-ordering
/// precondition of Section 5 on arbitrary inputs; throws when existing
/// nonzero power gaps are finer than n/scale (pass a larger scale).
System with_distinct_powers(const System& system, std::int64_t scale = 0);

}  // namespace goc
