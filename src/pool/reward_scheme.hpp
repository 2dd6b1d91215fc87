#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "util/assert.hpp"

/// \file reward_scheme.hpp
/// Mining-pool reward schemes.
///
/// The paper's players are "miners with power m_p"; in practice these are
/// *pools* — aggregates that smooth the block lottery so members earn
/// near-deterministic income proportional to contributed hashrate. That
/// smoothing is exactly what justifies the paper's expected-value payoff
/// u_p = m_p·F(c)/M_c (cf. its ref [30], Schrijvers et al. on pool reward
/// functions). This module implements the three classic schemes:
///
///  * **Proportional** — each block's reward is split across the shares of
///    the current round; simple, but vulnerable to pool hopping (early
///    shares in a round are worth more in expectation).
///  * **PPS** (pay-per-share) — a fixed payout per share, immediately; the
///    operator absorbs all variance in exchange for a fee.
///  * **PPLNS** (pay-per-last-N-shares) — each block's reward is split
///    over the last N shares regardless of round boundaries; hop-resistant.
///
/// Shares are unit-difficulty: a share is a block with probability
/// 1/shares_per_block. `PoolSim.*` and `Hopping.*` in tests/test_pool.cpp
/// check the variance reduction and hopping incentives.

namespace goc::pool {

/// Distributes block rewards over submitted shares. Stateful; one instance
/// per pool run.
class RewardScheme {
 public:
  virtual ~RewardScheme() = default;

  /// Must be called once before use with the member count.
  virtual void begin(std::size_t num_members) = 0;

  /// Member `miner` submitted one unit-difficulty share.
  virtual void on_share(std::size_t miner) = 0;

  /// The pool found a block worth `reward`; the scheme credits members.
  virtual void on_block(double reward) = 0;

  /// Cumulative credited income per member.
  virtual const std::vector<double>& payouts() const = 0;

  /// Operator profit-and-loss (PPS absorbs variance; 0 for others).
  virtual double operator_balance() const { return 0.0; }

  virtual std::string name() const = 0;
};

/// Proportional: reward split over the current round's shares; the round
/// resets at each block.
class ProportionalScheme final : public RewardScheme {
 public:
  void begin(std::size_t num_members) override;
  void on_share(std::size_t miner) override;
  void on_block(double reward) override;
  const std::vector<double>& payouts() const override { return payouts_; }
  std::string name() const override { return "proportional"; }

 private:
  std::vector<double> payouts_;
  std::vector<std::uint64_t> round_shares_;
  std::uint64_t round_total_ = 0;
};

/// PPS: each share pays reward_per_block·(1−fee)/shares_per_block at once;
/// block rewards accrue to the operator.
class PpsScheme final : public RewardScheme {
 public:
  /// `shares_per_block` is the expected shares per block (the share
  /// difficulty ratio); `fee` in [0,1).
  PpsScheme(double reward_per_block, double shares_per_block, double fee);

  void begin(std::size_t num_members) override;
  void on_share(std::size_t miner) override;
  void on_block(double reward) override;
  const std::vector<double>& payouts() const override { return payouts_; }
  double operator_balance() const override { return operator_balance_; }
  std::string name() const override { return "pps"; }

 private:
  double per_share_;
  std::vector<double> payouts_;
  double operator_balance_ = 0.0;
};

/// PPLNS: reward split evenly over the last `window` shares (across round
/// boundaries).
class PplnsScheme final : public RewardScheme {
 public:
  explicit PplnsScheme(std::size_t window);

  void begin(std::size_t num_members) override;
  void on_share(std::size_t miner) override;
  void on_block(double reward) override;
  const std::vector<double>& payouts() const override { return payouts_; }
  std::string name() const override { return "pplns"; }

 private:
  std::size_t window_;
  std::deque<std::size_t> recent_;  // miner ids of the last ≤ window shares
  std::vector<double> payouts_;
};

enum class SchemeKind { kProportional, kPps, kPplns };

/// Factory. `reward_per_block`/`shares_per_block` parameterize PPS (5% fee)
/// and size the PPLNS window (= shares_per_block, a common choice).
std::unique_ptr<RewardScheme> make_scheme(SchemeKind kind,
                                          double reward_per_block,
                                          double shares_per_block);

}  // namespace goc::pool
