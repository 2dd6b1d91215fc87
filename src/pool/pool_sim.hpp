#pragma once

#include <vector>

#include "pool/reward_scheme.hpp"
#include "util/rng.hpp"

/// \file pool_sim.hpp
/// Pool income simulation: Poisson share submissions per member, each
/// share a block with probability 1/shares_per_block, rewards distributed
/// by a `RewardScheme`. Measures per-member income across fixed windows
/// ("payday variance") and the classic hopping incentive profile.
///
/// The bridge to the paper: a pool's *aggregate* behaves exactly like a
/// miner of power Σh_i facing the expected-value payoff m·F/M — and the
/// smaller each member's income variance, the better the expected-value
/// model describes individual incentives too. `PoolSim.*` in
/// tests/test_pool.cpp checks both.

namespace goc::pool {

struct PoolSimOptions {
  double duration_hours = 24.0 * 30;
  double window_hours = 24.0;        ///< income-variance measurement window
  double shares_per_block = 500.0;   ///< expected shares per block
  double reward_per_block = 100.0;   ///< fiat
  std::uint64_t seed = 13;
};

struct MemberStats {
  double total_income = 0.0;
  double mean_window_income = 0.0;
  /// Coefficient of variation of per-window income (σ/μ) — the "payday
  /// risk" a member experiences. Solo miners have CV ≫ 1 on realistic
  /// horizons; pooled members are near-deterministic.
  double window_income_cv = 0.0;
};

struct PoolSimResult {
  std::vector<MemberStats> members;
  std::uint64_t total_shares = 0;
  std::uint64_t blocks_found = 0;
  double operator_balance = 0.0;
  /// Max |income share − hashrate share| over members: every sound scheme
  /// pays proportionally in expectation, so this shrinks with duration.
  double proportionality_error = 0.0;
};

/// Simulates one pool. `hashrates[i]` is member i's share rate per hour.
PoolSimResult simulate_pool(const std::vector<double>& hashrates,
                            RewardScheme& scheme, const PoolSimOptions& options);

/// The hopping incentive profile of a scheme: expected payout of a single
/// share as a function of its round age (shares already in the round when
/// it was submitted), bucketed by age in units of shares_per_block.
/// Proportional decays with age (early shares are worth more → hop in at
/// round start, leave when the round grows long); PPS/PPLNS are flat.
/// Returned buckets: [0, 0.25, 0.5, …)·shares_per_block, `num_buckets`
/// wide, each the mean payout of shares submitted at that age.
std::vector<double> hopping_profile(SchemeKind kind,
                                    const PoolSimOptions& options,
                                    std::size_t num_buckets, Rng& rng,
                                    std::uint64_t rounds = 4000);

}  // namespace goc::pool
