#include "engine/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <tuple>
#include <utility>

#include "engine/thread_pool.hpp"
#include "equilibrium/security.hpp"
#include "equilibrium/welfare.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace goc::engine {

namespace {

using clock_type = std::chrono::steady_clock;

double elapsed_ms(clock_type::time_point since) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - since)
      .count();
}

/// Grid-point identity of a task (everything but the trial axis).
bool same_point(const SweepTask& a, const SweepTask& b) {
  return a.game_spec.num_miners == b.game_spec.num_miners &&
         a.game_spec.num_coins == b.game_spec.num_coins &&
         a.game_spec.power_shape == b.game_spec.power_shape &&
         a.game_spec.reward_shape == b.game_spec.reward_shape &&
         a.scheduler == b.scheduler;
}

}  // namespace

std::uint64_t task_seed(std::uint64_t root_seed, std::size_t grid_index,
                        std::uint64_t stream) {
  // splitmix64 over a state that separates root, index and stream: distinct
  // (index, stream) pairs land in distinct, well-mixed states.
  std::uint64_t state = root_seed;
  state ^= splitmix64(state) + 0x9E3779B97F4A7C15ULL * (grid_index + 1);
  state += 0xBF58476D1CE4E5B9ULL * (stream + 1);
  return splitmix64(state);
}

std::size_t SweepSpec::grid_size() const {
  const auto axis = [](std::size_t n) { return n == 0 ? std::size_t{1} : n; };
  return axis(miner_counts.size()) * axis(coin_counts.size()) *
         axis(power_shapes.size()) * axis(reward_shapes.size()) *
         axis(scheduler_kinds.size()) * trials;
}

void SweepSpec::validate() const {
  GOC_CHECK_ARG(trials >= 1, "SweepSpec.trials must be at least 1");
}

std::vector<SweepTask> SweepSpec::expand() const {
  validate();
  const std::vector<std::size_t> miners =
      miner_counts.empty() ? std::vector<std::size_t>{base.num_miners}
                           : miner_counts;
  const std::vector<std::size_t> coins =
      coin_counts.empty() ? std::vector<std::size_t>{base.num_coins}
                          : coin_counts;
  const std::vector<PowerShape> powers =
      power_shapes.empty() ? std::vector<PowerShape>{base.power_shape}
                           : power_shapes;
  const std::vector<RewardShape> rewards =
      reward_shapes.empty() ? std::vector<RewardShape>{base.reward_shape}
                            : reward_shapes;
  const std::vector<SchedulerKind> kinds =
      scheduler_kinds.empty()
          ? std::vector<SchedulerKind>{SchedulerKind::kRandomMove}
          : scheduler_kinds;

  std::vector<SweepTask> tasks;
  tasks.reserve(grid_size());
  std::size_t grid_index = 0;
  for (const std::size_t n : miners) {
    for (const std::size_t c : coins) {
      for (const PowerShape power : powers) {
        for (const RewardShape reward : rewards) {
          for (const SchedulerKind kind : kinds) {
            for (std::size_t t = 0; t < trials; ++t, ++grid_index) {
              SweepTask task;
              task.grid_index = grid_index;
              task.game_spec = base;
              task.game_spec.num_miners = n;
              task.game_spec.num_coins = c;
              task.game_spec.power_shape = power;
              task.game_spec.reward_shape = reward;
              task.scheduler = kind;
              task.trial = t;
              task.game_seed = task_seed(root_seed, grid_index, 0);
              task.scheduler_seed = task_seed(root_seed, grid_index, 1);
              if (filter && !filter(task)) continue;
              tasks.push_back(std::move(task));
            }
          }
        }
      }
    }
  }
  return tasks;
}

bool SweepSpec::audits(const SweepTask& task) const {
  return audit_max_miners > 0 && task.game_spec.num_miners <= audit_max_miners;
}

std::vector<std::size_t> SweepSpec::dispatch_order(
    const std::vector<SweepTask>& tasks) const {
  const auto cost = [&](const SweepTask& task) {
    return std::tuple(audits(task), task.game_spec.num_miners,
                      task.scheduler == SchedulerKind::kMinGain);
  };
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cost(tasks[a]) > cost(tasks[b]);
                   });
  return order;
}

bool SweepRecord::deterministic_equals(const SweepRecord& other) const {
  return task.grid_index == other.task.grid_index &&
         task.game_seed == other.task.game_seed &&
         task.scheduler_seed == other.task.scheduler_seed &&
         steps == other.steps && converged == other.converged &&
         move_hash == other.move_hash &&
         welfare_efficiency == other.welfare_efficiency &&
         rpu_fairness == other.rpu_fairness &&
         max_domination_share == other.max_domination_share &&
         majority_controlled == other.majority_controlled &&
         occupied_coins == other.occupied_coins;
}

SweepResult::SweepResult(std::uint64_t root_seed, std::size_t threads,
                         std::vector<SweepRecord> records)
    : root_seed_(root_seed), threads_(threads), records_(std::move(records)) {
  // Records arrive in grid order with trial innermost, so each grid point's
  // surviving trials are consecutive.
  const SweepRecord* group_head = nullptr;
  for (const SweepRecord& record : records_) {
    if (group_head == nullptr || !same_point(record.task, group_head->task)) {
      group_head = &record;
      SweepPointStats point;
      point.miners = record.task.game_spec.num_miners;
      point.coins = record.task.game_spec.num_coins;
      point.power_shape = record.task.game_spec.power_shape;
      point.reward_shape = record.task.game_spec.reward_shape;
      point.scheduler = record.task.scheduler;
      points_.push_back(point);
    }
    SweepPointStats& point = points_.back();
    ++point.trials;
    if (record.converged) ++point.converged;
    point.steps.add(static_cast<double>(record.steps));
    point.welfare_efficiency.add(record.welfare_efficiency);
    point.rpu_fairness.add(record.rpu_fairness);
    point.max_domination_share.add(record.max_domination_share);
    point.wall_ms.add(record.wall_ms);
  }
}

bool SweepResult::all_converged() const noexcept {
  for (const SweepRecord& record : records_) {
    if (!record.converged) return false;
  }
  return true;
}

Table SweepResult::to_table() const {
  Table table({"miners", "coins", "powers", "rewards", "scheduler", "trials",
               "converged%", "steps_mean", "steps_p95", "steps_max", "steps/n",
               "welfare_mean", "fairness_mean", "dom_share_mean", "ms_mean"});
  for (const SweepPointStats& point : points_) {
    table.row() << std::uint64_t(point.miners) << std::uint64_t(point.coins)
                << power_shape_name(point.power_shape)
                << reward_shape_name(point.reward_shape)
                << scheduler_kind_name(point.scheduler)
                << std::uint64_t(point.trials)
                << fmt_double(100.0 * static_cast<double>(point.converged) /
                                  static_cast<double>(point.trials),
                              1)
                << fmt_double(point.steps.mean(), 1)
                << fmt_double(point.steps.percentile(95), 1)
                << fmt_double(point.steps.max(), 0)
                << fmt_double(point.steps.mean() /
                                  static_cast<double>(point.miners),
                              2)
                << fmt_double(point.welfare_efficiency.mean(), 4)
                << fmt_double(point.rpu_fairness.mean(), 4)
                << fmt_double(point.max_domination_share.mean(), 4)
                << fmt_double(point.wall_ms.mean(), 3);
  }
  return table;
}

bool SweepResult::deterministic_equals(const SweepResult& other) const {
  if (root_seed_ != other.root_seed_ ||
      records_.size() != other.records_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (!records_[i].deterministic_equals(other.records_[i])) return false;
  }
  return true;
}

SweepRunner::SweepRunner(Options options) : options_(options) {}

SweepRecord SweepRunner::run_task(const SweepTask& task,
                                  const LearningOptions& options) {
  const auto started = clock_type::now();

  Rng rng(task.game_seed);
  const Game game = random_game(task.game_spec, rng);
  const Configuration start = random_configuration(game, rng);
  auto scheduler = make_scheduler(task.scheduler, task.scheduler_seed);
  const LearningResult learned = run_learning(game, start, *scheduler, options);

  SweepRecord record;
  record.task = task;
  record.steps = learned.steps;
  record.converged = learned.converged;
  record.move_hash = learned.move_hash;

  const Configuration& final_s = learned.final_configuration;
  record.welfare_efficiency =
      (distributed_reward(game, final_s) / game.rewards().total_reward())
          .to_double();
  record.rpu_fairness = rpu_fairness_index(game, final_s);
  const SecurityReport security = security_report(game, final_s);
  double max_share = 0.0;
  for (const Rational& share : security.max_share) {
    max_share = std::max(max_share, share.to_double());
  }
  record.max_domination_share = max_share;
  record.majority_controlled = security.majority_controlled;
  record.occupied_coins = security.occupied;

  record.wall_ms = elapsed_ms(started);
  return record;
}

SweepResult SweepRunner::run(const SweepSpec& spec) const {
  static obs::Counter& kSweeps =
      obs::Registry::instance().counter("engine.sweep.sweeps");
  static obs::Counter& kTasks =
      obs::Registry::instance().counter("engine.sweep.tasks");
  static obs::Histogram& kWallNs =
      obs::Registry::instance().histogram("engine.sweep.wall_ns");
  const std::vector<SweepTask> tasks = spec.expand();
  kSweeps.add();
  kTasks.add(tasks.size());
  obs::Span wall(kWallNs);
  std::optional<ThreadPool> owned;
  ThreadPool* pool = options_.pool;
  std::size_t lanes;
  if (pool != nullptr) {
    lanes = pool->num_threads() + 1;
  } else {
    lanes = ThreadPool::resolve_lanes(options_.threads);
    owned.emplace(ThreadPool::workers_for(lanes));
    pool = &*owned;
  }

  const std::vector<std::size_t> order = spec.dispatch_order(tasks);
  std::vector<SweepRecord> records(tasks.size());
  const auto started = clock_type::now();
  pool->parallel_for(tasks.size(), [&](std::size_t k) {
    options_.cancel.throw_if_stale("sweep cancelled");
    const std::size_t i = order[k];
    LearningOptions options = spec.learning;
    if (spec.audits(tasks[i])) options.audit_potential = true;
    records[i] = run_task(tasks[i], options);
  });

  SweepResult result(spec.root_seed, lanes, std::move(records));
  result.set_total_wall_ms(elapsed_ms(started));
  return result;
}

}  // namespace goc::engine
