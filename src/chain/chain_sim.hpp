#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "chain/difficulty.hpp"
#include "engine/thread_pool.hpp"
#include "sim/event_core.hpp"
#include "util/rng.hpp"

/// \file chain_sim.hpp
/// Multi-chain proof-of-work simulator (experiment E9, and the mechanism
/// behind Figure 1b's hashrate series).
///
/// Each chain runs an exponential block race: with aggregate hashrate M_c
/// and difficulty D_c, the next block arrives after Exp(M_c/D_c) hours and
/// is won by a miner on c with probability proportional to its power —
/// the mechanism the paper abstracts as "reward divided in proportion to
/// power". The simulator validates that abstraction (realized reward share
/// → m_p/M_c) and exposes the difficulty-adjustment dynamics the
/// abstraction hides.
///
/// Miner policies at decision epochs:
///  * kStatic          — never move (pure validation of the reward split);
///  * kBetterResponse  — the paper's game semantics: coin weight is the
///    protocol reward rate F(c) = reward·/target_interval, miners take
///    better responses on F(c)·m/(M+m) vs F(c)·m/M;
///  * kMyopicDifficulty — chase instantaneous per-hash profitability
///    reward/D_c (what whattomine-style dashboards report); with an EDA
///    chain this produces the famous hashrate sawtooth.
///
/// Both moving policies share one decision rule: a miner moves to the first
/// best *other* chain when that chain's value beats staying strictly. Each
/// epoch freezes one value per chain (F(c), or reward over the prospective
/// difficulty), ranks the chains into a top two (join values F(c)·m/(M+m)
/// per power for kBetterResponse, the frozen values for kMyopicDifficulty),
/// and one chooser compares the best chain other than the miner's own with
/// its stay value. Both epoch modes (`ChainSimOptions::epoch_lanes`) run
/// that chooser; they differ only in the reevaluation draw and in when the
/// moves apply.
///
/// The simulator runs on `sim::EventCore` (POD events, enum-switch
/// dispatch, one pending event per stream: each chain's race and the
/// decision clock). A migration re-schedules both affected races in place,
/// a chain left without miners has its race cancelled, and a block re-arms
/// its chain's race in the leaf it was dispatched from. A sorted member
/// list per chain makes a block cost O(miners on that chain) instead of
/// O(all miners).
/// Trajectories are pinned byte for byte by the committed
/// `GOLDEN_chain.gocr` / `GOLDEN_fig1.gocr` recordings and by the hash pins
/// in `tests/test_sim.cpp`.

namespace goc::chain {

struct ChainSpec {
  std::string name;
  double initial_difficulty;      ///< hash-units per block
  double target_interval_hours;   ///< protocol cadence
  double block_reward_fiat;       ///< fiat value per block
  std::unique_ptr<DifficultyAdjuster> adjuster;
};

enum class MinerPolicy { kStatic, kBetterResponse, kMyopicDifficulty };

struct ChainSimOptions {
  double duration_hours = 24.0 * 30;
  double decision_interval_hours = 1.0;
  MinerPolicy policy = MinerPolicy::kBetterResponse;
  /// Fraction of miners re-evaluating per decision epoch (inertia).
  double reevaluation_fraction = 0.25;
  /// Myopic policy only: switch only when the best alternative beats the
  /// current chain by this relative margin (switching costs / friction).
  double myopic_hysteresis = 0.0;
  std::uint64_t seed = 42;
  /// Record a timeline sample at every decision epoch.
  bool record_timeline = true;
  /// Decision-epoch execution mode. 0 (default) keeps the sequential
  /// epoch: miners re-evaluate one at a time against the *live* state
  /// (earlier movers shift the masses later miners see) with reevaluation
  /// draws from the main RNG stream. Any value >= 1 selects the **sharded
  /// epoch**: a simultaneous-move dynamics where every miner evaluates
  /// against the frozen pre-epoch state with a counter-based per-epoch
  /// reevaluation substream (evaluate phase, parallel over contiguous miner
  /// shards) and moves replay serially in miner order (apply phase). The two
  /// modes are *different dynamics* — equally valid discretizations of the
  /// paper's epoch game — so their trajectories are not comparable; within
  /// sharded mode, results are bit-identical at ANY lane count
  /// (epoch_lanes = 1 is the serial reference). The simulator owns a pool of
  /// `epoch_lanes` lanes once the population reaches 8192 miners; a smaller
  /// population evaluates inline, where shard dispatch would cost more than
  /// the scan it saves. Lanes are pure scheduling and never change results.
  std::size_t epoch_lanes = 0;
};

/// Recomputes a chain's fiat block reward at a decision epoch — the
/// coupling point for exchange-rate processes (fiat reward = subsidy ×
/// price(t)). Called per chain with the simulation clock; the returned
/// value must be positive.
using RewardHook = std::function<double(std::size_t chain, double t_hours)>;

struct TimelinePoint {
  double t_hours = 0.0;
  std::vector<double> difficulty;      ///< per chain
  std::vector<double> hashrate;        ///< per chain (hash-units)
  std::vector<std::uint64_t> blocks;   ///< cumulative per chain
  std::vector<double> reward_fiat;     ///< per chain (as of this epoch)
};

struct ChainSimResult {
  std::vector<std::uint64_t> blocks_per_chain;
  std::vector<double> miner_rewards_fiat;       ///< per miner
  std::vector<std::uint64_t> miner_blocks;      ///< per miner
  std::vector<TimelinePoint> timeline;
  /// Mean absolute error between each miner's realized reward share and
  /// its within-chain power share prediction, over miners with nonzero
  /// predicted share (the E9 validation number). The prediction accrues
  /// through the per-chain reward-per-power integral (O(1) per block,
  /// settled per stint). `sim::chain_result_hash` leaves this field out,
  /// because the committed golden format was recorded that way.
  double share_prediction_mae = 0.0;
  std::uint64_t migrations = 0;  ///< total miner moves across the run
  /// Events dispatched (blocks + decision epochs). The throughput
  /// denominator of `bench_des`.
  std::uint64_t events_dispatched = 0;
};

class MultiChainSimulator {
 public:
  /// `miner_powers` in hash-units/hour; `initial_assignment[i]` is the
  /// starting chain of miner i (empty → all on chain 0).
  MultiChainSimulator(std::vector<double> miner_powers,
                      std::vector<ChainSpec> chains, ChainSimOptions options,
                      std::vector<std::size_t> initial_assignment = {});

  /// Installs a per-epoch fiat-reward recomputation (price coupling). Must
  /// be called before run().
  void set_reward_hook(RewardHook hook) { reward_hook_ = std::move(hook); }

  ChainSimResult run();

 private:
  void arm_block_race(std::size_t chain);
  void on_block(std::size_t chain);
  /// "Stay put" in epoch_target_ / an absent slot in TopTwo.
  static constexpr std::uint32_t kNoChain = 0xFFFFFFFFu;

  /// Top two chains by a per-chain value, first argmax winning ties —
  /// exactly the chain a first-wins strict-`>` scan picks. Chain values
  /// are positive, so an empty slot holds -inf.
  struct TopTwo {
    std::uint32_t c1 = kNoChain, c2 = kNoChain;
    double v1 = -std::numeric_limits<double>::infinity();
    double v2 = -std::numeric_limits<double>::infinity();
    void offer(std::uint32_t chain, double value) noexcept;
  };

  void decision_epoch();
  void decision_epoch_sequential();
  void decision_epoch_sharded();
  void freeze_chain_values();
  TopTwo join_top_two(double power) const noexcept;
  std::uint32_t choose(std::size_t miner, const TopTwo& top) const noexcept;
  void move_miner(std::size_t miner, std::size_t to_chain);

  std::vector<double> powers_;
  std::vector<ChainSpec> chains_;
  ChainSimOptions options_;
  Rng rng_;

  sim::EventCore core_;
  std::vector<std::size_t> assignment_;     // miner -> chain
  // Per-chain member lists, ascending miner index: the winner lottery
  // walks only the chain's members, in miner order.
  std::vector<std::vector<std::uint32_t>> members_;
  std::vector<double> mass_;                // per chain
  std::vector<double> difficulty_;          // per chain
  std::vector<double> reward_fiat_;         // per chain (hook-updated)
  RewardHook reward_hook_;                  // optional price coupling
  ChainSimResult result_;
  // Accumulated (power-share × chain reward) prediction per miner, settled
  // lazily from the stint integral below.
  std::vector<double> predicted_rewards_;
  // reward_per_power_[c] = Σ over c's blocks of reward/M_c — the cumulative
  // fiat a unit of hashpower parked on c would have been predicted to
  // earn. A block then costs O(1) accrual (bump the integral) instead of
  // O(chain members); a miner's prediction for one stint on c is
  // m_i · (integral at leave − integral at join), with the join value kept
  // in stint_base_[i]. Settled on every move and at the end of run().
  std::vector<double> reward_per_power_;
  std::vector<double> stint_base_;

  // Decision-epoch scratch, sized once in the constructor so steady-state
  // epochs allocate nothing. epoch_chain_value_[c] is frozen once per epoch
  // after the reward hook: F(c) = reward/target interval under
  // kBetterResponse, reward over the prospective difficulty under
  // kMyopicDifficulty. Both are constant within an epoch (prospective() is
  // const and no block fires inside one). Myopic values do not depend on
  // power, so one top two (value_top2_) serves every miner. Join values do:
  // the sequential epoch ranks them per miner on the live masses, and the
  // sharded epoch — powers_ being immutable and masses frozen — once per
  // distinct power value (epoch_top2_[power class]).
  std::vector<double> epoch_chain_value_;
  TopTwo value_top2_;
  // Sharded epochs only (options_.epoch_lanes >= 1).
  std::unique_ptr<engine::ThreadPool> epoch_pool_;
  std::uint64_t epoch_index_ = 0;           // decision epochs completed
  std::vector<std::uint32_t> epoch_target_; // kNoChain = stay put
  std::vector<double> unique_powers_;       // sorted distinct power values
  std::vector<std::uint32_t> power_class_;  // miner -> unique_powers_ index
  std::vector<TopTwo> epoch_top2_;          // per power class
};

}  // namespace goc::chain
