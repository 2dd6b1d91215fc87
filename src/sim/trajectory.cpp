#include "sim/trajectory.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "engine/sweep.hpp"
#include "engine/thread_pool.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "util/assert.hpp"
#include "util/fnv.hpp"
#include "util/stats.hpp"

namespace goc::sim {

namespace {

struct BatchMetrics {
  obs::Counter& batches;
  obs::Counter& replicas_run;
  obs::Counter& replicas_saved;
  obs::Histogram& wave_ns;
  obs::Histogram& checkpoint_write_ns;
  obs::Histogram& wall_ns;

  static BatchMetrics& get() {
    static BatchMetrics m{
        obs::Registry::instance().counter("sim.batch.batches"),
        obs::Registry::instance().counter("sim.batch.replicas_run"),
        obs::Registry::instance().counter("sim.batch.replicas_saved"),
        obs::Registry::instance().histogram("sim.batch.wave_ns"),
        obs::Registry::instance().histogram("sim.batch.checkpoint_write_ns"),
        obs::Registry::instance().histogram("sim.batch.wall_ns"),
    };
    return m;
  }
};

}  // namespace

const char* stop_reason_name(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::kFixedReplicas:
      return "fixed";
    case StopReason::kToleranceMet:
      return "tolerance";
    case StopReason::kMaxReplicas:
      return "max-replicas";
  }
  return "unknown";
}

TrajectoryBatchResult::TrajectoryBatchResult(
    std::vector<std::string> metric_names, std::size_t replicas,
    std::vector<double> values, std::uint64_t root_seed,
    std::size_t replicas_requested, StopReason stop_reason)
    : names_(std::move(metric_names)),
      replicas_(replicas),
      root_seed_(root_seed),
      replicas_requested_(replicas_requested == 0 ? replicas
                                                  : replicas_requested),
      stop_reason_(stop_reason),
      values_(std::move(values)) {
  GOC_CHECK_ARG(replicas_ >= 1, "a batch needs at least one replica");
  GOC_CHECK_ARG(!names_.empty(), "a batch needs at least one metric");
  GOC_CHECK_ARG(values_.size() == replicas_ * names_.size(),
                "value matrix arity mismatch");
  // Welford in replica order: the summaries are a pure function of the
  // value matrix, so they inherit its thread-count invariance.
  summaries_.reserve(names_.size());
  for (std::size_t m = 0; m < names_.size(); ++m) {
    RunningStats fold;
    for (std::size_t r = 0; r < replicas_; ++r) fold.add(value(r, m));
    summaries_.push_back({names_[m], replicas_, fold.mean(), fold.variance(),
                          fold.stddev(), fold.ci95_halfwidth(), fold.min(),
                          fold.max()});
  }
}

const MetricSummary& TrajectoryBatchResult::summary(
    const std::string& name) const {
  for (const MetricSummary& s : summaries_) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("unknown metric name: " + name);
}

std::uint64_t TrajectoryBatchResult::values_hash() const noexcept {
  std::uint64_t h = fnv::kOffset;
  for (const double v : values_) fnv::mix_bytes(h, v);
  return h;
}

Table TrajectoryBatchResult::to_table(int precision) const {
  Table table({"metric", "mean", "ci95", "sd", "min", "max", "replicas"});
  for (const MetricSummary& s : summaries_) {
    table.row() << s.name << fmt_double(s.mean, precision)
                << fmt_double(s.ci95_halfwidth, precision)
                << fmt_double(s.stddev, precision)
                << fmt_double(s.min, precision) << fmt_double(s.max, precision)
                << std::uint64_t(s.replicas);
  }
  return table;
}

bool TrajectoryBatchResult::deterministic_equals(
    const TrajectoryBatchResult& other) const {
  if (names_ != other.names_ || replicas_ != other.replicas_ ||
      values_.size() != other.values_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(values_[i]) !=
        std::bit_cast<std::uint64_t>(other.values_[i])) {
      return false;
    }
  }
  return true;
}

void validate(const TrajectoryBatchOptions& options) {
  if (options.stopping.has_value()) {
    const StoppingRule& rule = *options.stopping;
    GOC_CHECK_ARG(std::isfinite(rule.tolerance) && rule.tolerance >= 0.0,
                  "stopping tolerance must be finite and non-negative");
    GOC_CHECK_ARG(rule.min_replicas >= 2,
                  "stopping needs min_replicas >= 2 (a CI needs a variance)");
    GOC_CHECK_ARG(rule.max_replicas >= rule.min_replicas,
                  "stopping needs max_replicas >= min_replicas");
    GOC_CHECK_ARG(rule.wave >= 1, "stopping needs a wave of >= 1 replicas");
  } else {
    GOC_CHECK_ARG(options.replicas >= 1, "a batch needs at least one replica");
  }
  if (options.checkpoint.has_value()) {
    GOC_CHECK_ARG(!options.checkpoint->path.empty(),
                  "checkpointing needs a path");
    GOC_CHECK_ARG(options.checkpoint->interval >= 1,
                  "checkpoint interval must be >= 1");
  }
  if (options.on_progress) {
    GOC_CHECK_ARG(options.progress_interval >= 1,
                  "progress reporting needs an interval of >= 1 replicas");
  }
}

TrajectoryBatchResult run_trajectory_batch(
    std::vector<std::string> metric_names,
    const TrajectoryBatchOptions& options,
    const std::function<std::vector<double>(std::size_t replica,
                                            std::uint64_t seed)>& replica) {
  GOC_CHECK_ARG(replica != nullptr, "a batch needs a replica function");
  const std::size_t metrics = metric_names.size();
  GOC_CHECK_ARG(metrics >= 1, "a batch needs at least one metric");
  validate(options);

  const StoppingRule* rule =
      options.stopping.has_value() ? &*options.stopping : nullptr;
  std::size_t metric_index = 0;
  if (rule != nullptr) {
    const auto it =
        std::find(metric_names.begin(), metric_names.end(), rule->metric);
    GOC_CHECK_ARG(it != metric_names.end(),
                  "stopping metric is not one of the batch's metrics");
    metric_index = static_cast<std::size_t>(it - metric_names.begin());
  }
  const std::size_t requested =
      rule != nullptr ? rule->max_replicas : options.replicas;
  const replay::CheckpointOptions* ckpt =
      options.checkpoint.has_value() ? &*options.checkpoint : nullptr;

  BatchMetrics& metrics_obs = BatchMetrics::get();
  metrics_obs.batches.add();
  obs::Span wall(metrics_obs.wall_ns);

  const auto report = [&](std::size_t done, double ci) {
    if (options.on_progress) {
      BatchProgress progress;
      progress.completed = done;
      progress.requested = requested;
      progress.ci_halfwidth = ci;
      options.on_progress(progress);
    }
  };

  // Rows [0, completed), replica-major. Replica r's row depends only on
  // (root_seed, r), never on scheduling; the matrix grows one round at a
  // time, so a far-off ceiling costs nothing until it is approached.
  std::vector<double> values;

  // Resume: a checkpoint's row prefix is ground truth (rows are pure
  // functions of (root_seed, r)), so adopting it and re-entering the loop
  // reproduces the uninterrupted run bit-for-bit. Salvage mode keeps a
  // damaged artifact's longest valid prefix — losing at most one round —
  // while magic/version/header damage still surfaces as a typed error.
  std::size_t completed = 0;
  if (ckpt != nullptr && ckpt->resume && replay::file_exists(ckpt->path)) {
    const replay::BatchCheckpoint loaded =
        replay::BatchCheckpoint::load(ckpt->path, /*salvage=*/true);
    const auto mismatch = [&](const char* what) {
      throw replay::ReplayException(
          replay::ReplayError::kHeaderMismatch,
          std::string("checkpoint does not match this batch: ") + what);
    };
    if (loaded.root_seed != options.root_seed) mismatch("root seed differs");
    if (loaded.metric_names != metric_names) mismatch("metric names differ");
    if (loaded.adaptive != (rule != nullptr)) {
      mismatch("fixed/adaptive mode differs");
    }
    if (loaded.replicas_requested != requested) {
      mismatch("replica ceiling differs");
    }
    if (options.config_hash != 0 && loaded.config_hash != options.config_hash) {
      mismatch("scenario config hash differs");
    }
    completed = std::min(loaded.completed, requested);
    values.assign(loaded.values.begin(),
                  loaded.values.begin() +
                      static_cast<std::ptrdiff_t>(completed * metrics));
  }
  const std::size_t resumed = completed;

  const auto write_checkpoint = [&](std::size_t done) {
    replay::BatchCheckpoint cp;
    cp.root_seed = options.root_seed;
    cp.config_hash = options.config_hash;
    cp.metric_names = metric_names;
    cp.replicas_requested = requested;
    cp.adaptive = rule != nullptr;
    cp.completed = done;
    cp.values.assign(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(done * metrics));
    obs::Span span(metrics_obs.checkpoint_write_ns);
    cp.save(ckpt->path);
    if (ckpt->on_write) ckpt->on_write(done);
  };

  std::optional<engine::ThreadPool> owned;
  engine::ThreadPool* pool = options.pool;
  if (pool == nullptr) {
    owned.emplace(engine::ThreadPool::workers_for(
        engine::ThreadPool::resolve_lanes(options.threads)));
    pool = &*owned;
  }
  const std::size_t lanes = pool->num_threads() + 1;  // the caller is a lane

  // One execution round: rows [completed, end). Cancellation granularity
  // is one replica: `parallel_for` stops handing out indices after the
  // first throw, so a cancel lands within one unit of replica work plus
  // whatever is already in flight.
  const auto run_round = [&](std::size_t end) {
    obs::Span span(metrics_obs.wave_ns);
    const std::size_t begin = completed;
    metrics_obs.replicas_run.add(end - begin);
    values.resize(end * metrics);
    pool->parallel_for(end - begin, [&](std::size_t k) {
      options.cancel.throw_if_stale("trajectory batch cancelled");
      const std::size_t r = begin + k;
      const std::uint64_t seed = engine::task_seed(options.root_seed, r, 0);
      const std::vector<double> row = replica(r, seed);
      GOC_CHECK_ARG(row.size() == metrics,
                    "replica returned the wrong number of metrics");
      std::copy(row.begin(), row.end(), values.begin() + r * metrics);
    });
    completed = end;
  };

  // Decision boundaries — where checkpoints are written, progress is
  // reported and the stop rule is checked — are a pure function of the
  // options, never of the lane count. Adaptive: min_replicas, then every
  // `wave` more. Fixed R: multiples of the checkpoint (else progress)
  // interval, aligned regardless of where a salvaged prefix landed; with
  // no observer, R alone. Fixed R is the rule that never stops.
  const std::size_t step = rule != nullptr       ? rule->wave
                           : ckpt != nullptr     ? ckpt->interval
                           : options.on_progress ? options.progress_interval
                                                 : requested;
  const auto next_boundary = [&](std::size_t b) {
    if (rule == nullptr) return std::min(requested, (b / step + 1) * step);
    if (b < rule->min_replicas) return rule->min_replicas;
    return b + std::min(step, requested - b);
  };

  options.cancel.throw_if_stale("trajectory batch cancelled before start");

  // Execution rounds run ahead of the next boundary to give every lane a
  // replica, then the boundaries they covered are taken in order, each
  // seeing exactly the prefix before it. A resumed adaptive batch retakes
  // its stop checks from replica 0 (the rule may already be met inside
  // the prefix); a fixed batch has nothing to decide there and starts at
  // the prefix. Rows past the chosen R (at most lanes - 1) are dropped.
  RunningStats fold;  // the stopping metric over rows [0, fold.count())
  StopReason reason =
      rule != nullptr ? StopReason::kMaxReplicas : StopReason::kFixedReplicas;
  std::size_t decided = rule != nullptr ? 0 : completed;
  while (decided < requested) {
    const std::size_t boundary = next_boundary(decided);
    if (boundary > completed) {
      options.cancel.throw_if_stale("trajectory batch cancelled");
      run_round(std::min(requested, std::max(boundary, completed + lanes)));
    }
    decided = boundary;
    if (ckpt != nullptr && boundary > resumed) write_checkpoint(boundary);
    if (rule == nullptr) {
      report(boundary, 0.0);
      continue;
    }
    while (fold.count() < boundary) {
      fold.add(values[fold.count() * metrics + metric_index]);
    }
    const double ci = fold.ci95_halfwidth();
    report(boundary, ci);
    const double bound = rule->relative
                             ? rule->tolerance * std::abs(fold.mean())
                             : rule->tolerance;
    if (ci <= bound) {
      reason = StopReason::kToleranceMet;
      break;
    }
  }
  values.resize(decided * metrics);
  metrics_obs.replicas_saved.add(requested - decided);
  return TrajectoryBatchResult(std::move(metric_names), decided,
                               std::move(values), options.root_seed, requested,
                               reason);
}

// ------------------------------------------------------- simulator adapters

const std::vector<std::string>& chain_batch_metrics() {
  static const std::vector<std::string> kNames = {
      "blocks_total", "blocks_share_chain0", "migrations", "share_mae",
      "reward_total_fiat"};
  return kNames;
}

std::vector<double> chain_replica_metrics(const chain::ChainSimResult& result) {
  std::uint64_t blocks = 0;
  for (const std::uint64_t b : result.blocks_per_chain) blocks += b;
  double reward = 0.0;
  for (const double r : result.miner_rewards_fiat) reward += r;
  const double share0 =
      blocks > 0 ? static_cast<double>(result.blocks_per_chain[0]) /
                       static_cast<double>(blocks)
                 : 0.0;
  return {static_cast<double>(blocks), share0,
          static_cast<double>(result.migrations), result.share_prediction_mae,
          reward};
}

TrajectoryBatchResult run_chain_batch(
    const std::function<chain::MultiChainSimulator(std::uint64_t seed)>&
        make_replica,
    const TrajectoryBatchOptions& options) {
  GOC_CHECK_ARG(make_replica != nullptr, "chain batch needs a factory");
  return run_trajectory_batch(
      chain_batch_metrics(), options,
      [&make_replica](std::size_t, std::uint64_t seed) {
        chain::MultiChainSimulator sim = make_replica(seed);
        return chain_replica_metrics(sim.run());
      });
}

const std::vector<std::string>& market_batch_metrics() {
  static const std::vector<std::string> kNames = {
      "mean_share_coin0", "final_share_coin0", "equilibrium_fraction",
      "br_steps_total", "final_price_coin0"};
  return kNames;
}

std::vector<double> market_replica_metrics(
    const std::vector<market::EpochRecord>& records) {
  double share_sum = 0.0;
  double at_eq = 0.0;
  double steps = 0.0;
  for (const market::EpochRecord& r : records) {
    share_sum += r.hashrate_share[0];
    if (r.at_equilibrium) at_eq += 1.0;
    steps += static_cast<double>(r.br_steps);
  }
  const double n = records.empty() ? 1.0 : static_cast<double>(records.size());
  const double final_share =
      records.empty() ? 0.0 : records.back().hashrate_share[0];
  const double final_price = records.empty() ? 0.0 : records.back().prices[0];
  return {share_sum / n, final_share, at_eq / n, steps, final_price};
}

TrajectoryBatchResult run_market_batch(
    const std::function<market::MarketSimulator(std::uint64_t seed)>&
        make_replica,
    const TrajectoryBatchOptions& options) {
  GOC_CHECK_ARG(make_replica != nullptr, "market batch needs a factory");
  return run_trajectory_batch(
      market_batch_metrics(), options,
      [&make_replica](std::size_t, std::uint64_t seed) {
        market::MarketSimulator sim = make_replica(seed);
        return market_replica_metrics(sim.run());
      });
}

TrajectoryBatchResult run_market_batch(const market::Scenario& scenario,
                                       const TrajectoryBatchOptions& options) {
  return run_market_batch(
      [&scenario](std::uint64_t seed) { return scenario.make_simulator(seed); },
      options);
}

// ------------------------------------------------------- trajectory hashes

std::uint64_t chain_result_hash(const chain::ChainSimResult& result) noexcept {
  std::uint64_t h = fnv::kOffset;
  for (const std::uint64_t b : result.blocks_per_chain) fnv::mix_bytes(h, b);
  for (const double r : result.miner_rewards_fiat) fnv::mix_bytes(h, r);
  for (const std::uint64_t b : result.miner_blocks) fnv::mix_bytes(h, b);
  // share_prediction_mae is deliberately NOT hashed: the committed goldens
  // were recorded with this hash, and their format is frozen.
  fnv::mix_bytes(h, result.migrations);
  for (const chain::TimelinePoint& p : result.timeline) {
    fnv::mix_bytes(h, p.t_hours);
    for (const double d : p.difficulty) fnv::mix_bytes(h, d);
    for (const double m : p.hashrate) fnv::mix_bytes(h, m);
    for (const std::uint64_t b : p.blocks) fnv::mix_bytes(h, b);
    for (const double w : p.reward_fiat) fnv::mix_bytes(h, w);
  }
  return h;
}

std::uint64_t market_records_hash(
    const std::vector<market::EpochRecord>& records) noexcept {
  std::uint64_t h = fnv::kOffset;
  for (const market::EpochRecord& r : records) {
    fnv::mix_bytes(h, r.t_hours);
    for (const double p : r.prices) fnv::mix_bytes(h, p);
    for (const double w : r.weights) fnv::mix_bytes(h, w);
    for (const double s : r.hashrate_share) fnv::mix_bytes(h, s);
    fnv::mix_bytes(h, r.br_steps);
    fnv::mix_bytes(h, r.at_equilibrium ? std::uint64_t{1} : std::uint64_t{0});
  }
  return h;
}

}  // namespace goc::sim
