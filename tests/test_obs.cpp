#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/generators.hpp"
#include "dynamics/learning.hpp"
#include "dynamics/scheduler.hpp"
#include "market/scenario.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/stats_log.hpp"
#include "sim/scenarios.hpp"
#include "sim/trajectory.hpp"

namespace goc::obs {
namespace {

/// Restores the runtime obs switch even when an assertion fails mid-test.
class EnabledGuard {
 public:
  explicit EnabledGuard(bool on) { set_enabled(on); }
  ~EnabledGuard() { set_enabled(true); }
};

// Metrics are process-wide and never zeroed, so each test asserts on the
// change it causes: a reading before, a reading after.

/// A copy of histogram `name`'s row in a fresh registry snapshot.
HistogramSnapshot histogram_snapshot(const std::string& name) {
  const Snapshot snap = Registry::instance().snapshot();
  const HistogramSnapshot* view = snap.find_histogram(name);
  if (view == nullptr) {
    ADD_FAILURE() << name << " is not registered";
    return {};
  }
  return *view;
}

// ------------------------------------------------------------- registry

TEST(Registry, InternsOneObjectPerName) {
  Counter& a = Registry::instance().counter("test.intern.counter");
  Counter& b = Registry::instance().counter("test.intern.counter");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = Registry::instance().gauge("test.intern.gauge");
  Gauge& g2 = Registry::instance().gauge("test.intern.gauge");
  EXPECT_EQ(&g1, &g2);
  Histogram& h1 = Registry::instance().histogram("test.intern.hist");
  Histogram& h2 = Registry::instance().histogram("test.intern.hist");
  EXPECT_EQ(&h1, &h2);
}

TEST(Registry, RejectsKindCollisions) {
  Registry::instance().counter("test.collision.name");
  EXPECT_THROW(Registry::instance().gauge("test.collision.name"),
               std::invalid_argument);
  EXPECT_THROW(Registry::instance().histogram("test.collision.name"),
               std::invalid_argument);
  // The original registration survives the failed lookups.
  EXPECT_NO_THROW(Registry::instance().counter("test.collision.name"));
}

TEST(Registry, CounterSumsExactlyAcrossThreads) {
  Counter& counter = Registry::instance().counter("test.mt.counter");
  const std::uint64_t before = counter.total();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) counter.add();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.total() - before, kThreads * kAddsPerThread);
}

TEST(Registry, GaugeBalancesAddAndSubAcrossThreads) {
  Gauge& gauge = Registry::instance().gauge("test.mt.gauge");
  const std::int64_t before = gauge.value();
  constexpr int kThreads = 6;
  constexpr int kRounds = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kRounds; ++i) {
        gauge.add(3);
        gauge.sub(2);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(gauge.value() - before, std::int64_t{kThreads} * kRounds);
  gauge.sub(std::int64_t{kThreads} * kRounds);
  EXPECT_EQ(gauge.value(), before);
}

TEST(Registry, RecordingIsANoOpWhenDisabled) {
  Counter& counter = Registry::instance().counter("test.disabled.counter");
  Histogram& hist = Registry::instance().histogram("test.disabled.hist");
  const std::uint64_t counter_before = counter.total();
  const std::uint64_t hist_before = hist.count();
  {
    EnabledGuard off(false);
    counter.add(41);
    hist.record(7);
    Span span(hist);
    span.finish();
  }
  EXPECT_EQ(counter.total(), counter_before);
  EXPECT_EQ(hist.count(), hist_before);
  counter.add(1);  // back on after the guard
  EXPECT_EQ(counter.total(), counter_before + 1);
}

// ------------------------------------------------------------ histogram

TEST(Histogram, BucketOfFollowsBitWidth) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 4u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64u);
  static_assert(Histogram::kBuckets == 65);
}

TEST(Histogram, BucketBoundIsInclusiveUpperEdge) {
  EXPECT_EQ(Histogram::bucket_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_bound(1), 1u);
  EXPECT_EQ(Histogram::bucket_bound(2), 3u);
  EXPECT_EQ(Histogram::bucket_bound(3), 7u);
  EXPECT_EQ(Histogram::bucket_bound(11), 2047u);
  EXPECT_EQ(Histogram::bucket_bound(64), ~std::uint64_t{0});
  // Every value lands in the bucket whose bound covers it.
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 100ull, 65535ull}) {
    const std::size_t b = Histogram::bucket_of(v);
    EXPECT_LE(v, Histogram::bucket_bound(b));
    if (b > 0) {
      EXPECT_GT(v, Histogram::bucket_bound(b - 1));
    }
  }
}

TEST(Histogram, CountSumAndSnapshotBucketsAgree) {
  Histogram& hist = Registry::instance().histogram("test.hist.fill");
  const std::uint64_t count_before = hist.count();
  const std::uint64_t sum_before = hist.sum();
  const HistogramSnapshot before = histogram_snapshot("test.hist.fill");
  const std::vector<std::uint64_t> values = {0, 1, 2, 3, 4, 7, 8, 1000};
  std::uint64_t expected_sum = 0;
  for (const std::uint64_t v : values) {
    hist.record(v);
    expected_sum += v;
  }
  EXPECT_EQ(hist.count() - count_before, values.size());
  EXPECT_EQ(hist.sum() - sum_before, expected_sum);
  const HistogramSnapshot after = histogram_snapshot("test.hist.fill");
  ASSERT_EQ(before.buckets.size(), Histogram::kBuckets);
  ASSERT_EQ(after.buckets.size(), Histogram::kBuckets);
  HistogramSnapshot added{"test.hist.fill", after.count - before.count,
                          after.sum - before.sum,
                          std::vector<std::uint64_t>(Histogram::kBuckets)};
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    added.buckets[b] = after.buckets[b] - before.buckets[b];
  }
  EXPECT_EQ(added.count, values.size());
  EXPECT_EQ(added.sum, expected_sum);
  EXPECT_EQ(added.buckets[0], 1u);   // {0}
  EXPECT_EQ(added.buckets[1], 1u);   // {1}
  EXPECT_EQ(added.buckets[2], 2u);   // {2, 3}
  EXPECT_EQ(added.buckets[3], 2u);   // {4, 7}
  EXPECT_EQ(added.buckets[4], 1u);   // {8}
  EXPECT_EQ(added.buckets[10], 1u);  // {1000}
  EXPECT_DOUBLE_EQ(added.mean(), static_cast<double>(expected_sum) /
                                     static_cast<double>(values.size()));
}

// ----------------------------------------------------------------- span

TEST(Span, NestedSpansRecordIndependently) {
  Histogram& outer = Registry::instance().histogram("test.span.outer");
  Histogram& inner = Registry::instance().histogram("test.span.inner");
  const std::uint64_t outer_count = outer.count();
  const std::uint64_t outer_sum = outer.sum();
  const std::uint64_t inner_count = inner.count();
  const std::uint64_t inner_sum = inner.sum();
  {
    Span outer_span(outer);
    {
      Span inner_span(inner);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    {
      Span inner_span(inner);
    }
  }
  EXPECT_EQ(outer.count() - outer_count, 1u);
  EXPECT_EQ(inner.count() - inner_count, 2u);
  // The outer span covers both inner ones, so its time dominates.
  EXPECT_GE(outer.sum() - outer_sum, inner.sum() - inner_sum);
  EXPECT_GE(inner.sum() - inner_sum, 1000000u);  // the 1 ms sleep
}

TEST(Span, FinishIsIdempotent) {
  Histogram& hist = Registry::instance().histogram("test.span.finish");
  const std::uint64_t before = hist.count();
  Span span(hist);
  span.finish();
  span.finish();  // second finish (and the destructor later) record nothing
  EXPECT_EQ(hist.count() - before, 1u);
  // The clock keeps reading (only the histogram is detached).
  EXPECT_GT(span.elapsed_ns(), 0u);
}

// ------------------------------------------------------------- snapshot

TEST(Snapshot, JsonCarriesAllThreeSections) {
  Counter& json_counter = Registry::instance().counter("test.json.counter");
  Gauge& json_gauge = Registry::instance().gauge("test.json.gauge");
  const std::uint64_t counter_before = json_counter.total();
  const std::int64_t gauge_before = json_gauge.value();
  json_counter.add(12);
  json_gauge.add(-3);
  Registry::instance().histogram("test.json.hist").record(5);
  const Snapshot snap = Registry::instance().snapshot();

  const CounterSnapshot* counter = snap.find_counter("test.json.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value - counter_before, 12u);
  const GaugeSnapshot* gauge = snap.find_gauge("test.json.gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value - gauge_before, -3);
  EXPECT_EQ(snap.find_counter("no.such.metric"), nullptr);
  EXPECT_EQ(snap.find_gauge("no.such.metric"), nullptr);
  EXPECT_EQ(snap.find_histogram("no.such.metric"), nullptr);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.counter\": " +
                      std::to_string(counter->value)),
            std::string::npos);
  EXPECT_NE(
      json.find("\"test.json.gauge\": " + std::to_string(gauge->value)),
      std::string::npos);
  EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos);

  // Compact mode is a single line (the --stats-log JSONL record body).
  const std::string compact = snap.to_json(true);
  EXPECT_EQ(compact.find('\n'), std::string::npos);
  EXPECT_EQ(compact.front(), '{');
  EXPECT_EQ(compact.back(), '}');
}

TEST(Snapshot, PrometheusRendersCumulativeBuckets) {
  Histogram& hist = Registry::instance().histogram("test.prom.hist");
  const HistogramSnapshot before = histogram_snapshot("test.prom.hist");
  ASSERT_EQ(before.buckets.size(), Histogram::kBuckets);
  hist.record(0);
  hist.record(2);
  hist.record(1000);
  const Snapshot snap = Registry::instance().snapshot();
  const std::string text = snap.to_prometheus();
  const auto line = [](const std::string& series, std::uint64_t value) {
    return "goc_test_prom_hist_" + series + " " + std::to_string(value);
  };
  // Dots map to underscores under the goc_ prefix.
  EXPECT_NE(text.find(line("count", before.count + 3)), std::string::npos);
  EXPECT_NE(text.find(line("sum", before.sum + 1002)), std::string::npos);
  // Buckets are cumulative: le="0" sees only the zero, le="3" adds the 2,
  // le="+Inf" equals the count.
  const std::uint64_t le0 = before.buckets[0];
  const std::uint64_t le3 = le0 + before.buckets[1] + before.buckets[2];
  EXPECT_NE(text.find(line("bucket{le=\"0\"}", le0 + 1)), std::string::npos);
  EXPECT_NE(text.find(line("bucket{le=\"3\"}", le3 + 2)), std::string::npos);
  EXPECT_NE(text.find(line("bucket{le=\"+Inf\"}", before.count + 3)),
            std::string::npos);
}

// ------------------------------------------------------------ stats log

TEST(StatsLogger, AppendsParseableLinesAndAFinalOneOnStop) {
  const std::string path = ::testing::TempDir() + "goc_test_stats.jsonl";
  std::remove(path.c_str());
  {
    StatsLogger::Options options;
    options.path = path;
    options.interval_ms = 20;
    StatsLogger logger(options);
    std::this_thread::sleep_for(std::chrono::milliseconds(70));
    logger.stop();
    EXPECT_GE(logger.lines_written(), 2u);  // >=1 periodic + the final line
    logger.stop();                          // idempotent
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::uint64_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.rfind("{\"seq\": ", 0), 0u) << line;
    EXPECT_NE(line.find("\"t_ms\": "), std::string::npos);
    EXPECT_NE(line.find("\"stats\": {"), std::string::npos);
    EXPECT_EQ(line.back(), '}');
    ++lines;
  }
  EXPECT_GE(lines, 2u);
  std::remove(path.c_str());
}

TEST(StatsLogger, ThrowsWhenThePathCannotBeOpened) {
  StatsLogger::Options options;
  options.path = "/nonexistent-dir/goc_stats.jsonl";
  EXPECT_THROW(StatsLogger logger(options), std::runtime_error);
}

// --------------------------------------------------- determinism parity
// The acceptance contract: instrumentation is strictly out of band, so a
// batch produces a bit-identical values_hash with obs on and off.

sim::TrajectoryBatchResult run_parity_chain_batch() {
  sim::ReferenceChainParams params;
  params.miners = 24;
  params.chains = 4;
  params.days = 2.0;
  sim::TrajectoryBatchOptions options;
  options.replicas = 8;
  options.root_seed = 2021;
  options.threads = 4;
  const auto factory = [&](std::uint64_t seed) {
    return sim::make_reference_chain(params, sim::EngineKind::kFlat, seed);
  };
  return sim::run_chain_batch(factory, options);
}

sim::TrajectoryBatchResult run_parity_market_batch() {
  sim::TrajectoryBatchOptions options;
  options.replicas = 6;
  options.root_seed = 7;
  options.threads = 4;
  const market::Scenario proto = market::random_market_prototype(12, 2, 5.0, 7);
  return sim::run_market_batch(proto, options);
}

TEST(Parity, ChainBatchHashUnchangedWithObsOff) {
  Counter& migrations = Registry::instance().counter("chain.migrations");
  Histogram& epoch_ns = Registry::instance().histogram("chain.epoch_ns");
  const std::uint64_t migrations_before = migrations.total();
  const std::uint64_t epochs_before = epoch_ns.count();
  const sim::TrajectoryBatchResult with_obs = run_parity_chain_batch();
  // The counter adds each epoch's moves once: its total is the batch's
  // summed migrations column. 2 days at a 4 h decision interval is 12
  // epochs, one span each, per replica.
  const auto& names = with_obs.metric_names();
  const auto column = static_cast<std::size_t>(
      std::find(names.begin(), names.end(), "migrations") - names.begin());
  ASSERT_LT(column, names.size());
  double moved = 0.0;
  for (std::size_t r = 0; r < with_obs.replicas(); ++r) {
    moved += with_obs.value(r, column);
  }
  EXPECT_GT(moved, 0.0);
  EXPECT_EQ(static_cast<double>(migrations.total() - migrations_before), moved);
  EXPECT_EQ(epoch_ns.count() - epochs_before, with_obs.replicas() * 12);

  std::uint64_t without_obs = 0;
  {
    EnabledGuard off(false);
    without_obs = run_parity_chain_batch().values_hash();
  }
  EXPECT_EQ(with_obs.values_hash(), without_obs);
  EXPECT_EQ(static_cast<double>(migrations.total() - migrations_before), moved);
}

TEST(Parity, MarketBatchHashUnchangedWithObsOff) {
  const std::uint64_t with_obs = run_parity_market_batch().values_hash();
  std::uint64_t without_obs = 0;
  {
    EnabledGuard off(false);
    without_obs = run_parity_market_batch().values_hash();
  }
  EXPECT_EQ(with_obs, without_obs);
}

/// One audited E3-style run: Pareto powers, integer rewards, 3 coins, the
/// Theorem 1 potential check and the index audit on every step.
LearningResult run_audited_learning() {
  Rng rng(2021);
  GameSpec spec;
  spec.num_miners = 40;
  spec.num_coins = 3;
  spec.power_shape = PowerShape::kPareto;
  spec.power_lo = 10;
  spec.reward_lo = 100;
  spec.reward_hi = 100000;
  const Game game = random_game(spec, rng);
  const Configuration start = random_configuration(game, rng);
  auto scheduler = make_scheduler(SchedulerKind::kRandomMove, 7);
  LearningOptions options;
  options.audit_potential = true;
  return run_learning(game, start, *scheduler, options);
}

TEST(Parity, AuditedLearningMoveHashUnchangedWithObsOff) {
  Histogram& audit_ns = Registry::instance().histogram("learn.audit_ns");
  Counter& cf = Registry::instance().counter("arith.compare.cf");
  const std::uint64_t audits_before = audit_ns.count();
  const std::uint64_t cf_before = cf.total();
  const LearningResult with_obs = run_audited_learning();
  ASSERT_TRUE(with_obs.converged);
  ASSERT_GT(with_obs.steps, 0u);
  // One audit span per step; a small integer game never needs the
  // continued-fraction fallback of the exact comparison.
  EXPECT_EQ(audit_ns.count() - audits_before, with_obs.steps);
  EXPECT_EQ(cf.total(), cf_before);

  const LearningResult without_obs = [] {
    EnabledGuard off(false);
    return run_audited_learning();
  }();
  EXPECT_EQ(with_obs.steps, without_obs.steps);
  EXPECT_EQ(with_obs.move_hash, without_obs.move_hash);
  EXPECT_EQ(with_obs.final_configuration, without_obs.final_configuration);
}

TEST(Parity, LearningCountsStepsAndRescans) {
  Counter& steps = Registry::instance().counter("learn.steps");
  Counter& rescans = Registry::instance().counter("index.rescans");
  std::uint64_t steps_before = steps.total();
  std::uint64_t rescans_before = rescans.total();
  const LearningResult with_obs = run_audited_learning();
  ASSERT_GT(with_obs.steps, 0u);
  EXPECT_EQ(steps.total() - steps_before, with_obs.steps);
  // Every indexed step rescans at least the mover and at most all 40
  // miners.
  EXPECT_GE(rescans.total() - rescans_before, with_obs.steps);
  EXPECT_LE(rescans.total() - rescans_before, with_obs.steps * 40);

  // The ε driver on the scan path counts its steps and no rescans.
  steps_before = steps.total();
  rescans_before = rescans.total();
  Rng rng(7);
  GameSpec spec;
  spec.num_miners = 20;
  spec.num_coins = 3;
  const Game game = random_game(spec, rng);
  LearningOptions scan_path;
  scan_path.use_index = false;
  const LearningResult eps = run_learning_to_epsilon(
      game, random_configuration(game, rng), Rational(0), scan_path);
  EXPECT_EQ(steps.total() - steps_before, eps.steps);
  EXPECT_EQ(rescans.total(), rescans_before);

  steps_before = steps.total();
  const LearningResult without_obs = [] {
    EnabledGuard off(false);
    return run_audited_learning();
  }();
  EXPECT_EQ(steps.total(), steps_before);
  EXPECT_EQ(with_obs.move_hash, without_obs.move_hash);
}

// ------------------------------------------------------- batch progress

TEST(BatchProgress, FixedBatchReportsMonotoneWaves) {
  sim::ReferenceChainParams params;
  params.miners = 16;
  params.chains = 2;
  params.days = 1.0;
  sim::TrajectoryBatchOptions options;
  options.replicas = 24;
  options.root_seed = 11;
  options.threads = 4;
  options.progress_interval = 8;
  std::vector<sim::BatchProgress> reports;
  options.on_progress = [&reports](const sim::BatchProgress& progress) {
    reports.push_back(progress);
  };
  const auto factory = [&](std::uint64_t seed) {
    return sim::make_reference_chain(params, sim::EngineKind::kFlat, seed);
  };
  const sim::TrajectoryBatchResult result =
      sim::run_chain_batch(factory, options);
  ASSERT_EQ(reports.size(), 3u);  // 24 replicas / interval 8
  std::size_t previous = 0;
  for (const sim::BatchProgress& progress : reports) {
    EXPECT_GT(progress.completed, previous);
    EXPECT_EQ(progress.requested, 24u);
    EXPECT_EQ(progress.ci_halfwidth, 0.0);  // fixed R: no stopping metric
    previous = progress.completed;
  }
  EXPECT_EQ(reports.back().completed, result.replicas());

  // The reporting chunks are observational only: the same batch without a
  // callback produces the identical value matrix.
  sim::TrajectoryBatchOptions plain = options;
  plain.on_progress = nullptr;
  EXPECT_TRUE(
      sim::run_chain_batch(factory, plain).deterministic_equals(result));
}

TEST(BatchProgress, AdaptiveBatchReportsCiAtWaveBoundaries) {
  sim::ReferenceChainParams params;
  params.miners = 16;
  params.chains = 2;
  params.days = 1.0;
  sim::TrajectoryBatchOptions options;
  options.root_seed = 5;
  options.threads = 4;
  sim::StoppingRule rule;
  rule.metric = "blocks_total";
  rule.tolerance = 0.0;  // never met: the batch escalates to max_replicas
  rule.min_replicas = 8;
  rule.max_replicas = 24;
  rule.wave = 8;
  options.stopping = rule;
  std::vector<sim::BatchProgress> reports;
  options.on_progress = [&reports](const sim::BatchProgress& progress) {
    reports.push_back(progress);
  };
  const auto factory = [&](std::uint64_t seed) {
    return sim::make_reference_chain(params, sim::EngineKind::kFlat, seed);
  };
  const sim::TrajectoryBatchResult result =
      sim::run_chain_batch(factory, options);
  ASSERT_GE(reports.size(), 2u);  // min 8, then waves of 8 up to 24
  std::size_t previous = 0;
  for (const sim::BatchProgress& progress : reports) {
    EXPECT_GT(progress.completed, previous);
    EXPECT_EQ(progress.requested, 24u);
    EXPECT_GT(progress.ci_halfwidth, 0.0);  // a live CI over >= 2 replicas
    previous = progress.completed;
  }
  EXPECT_EQ(reports.back().completed, result.replicas());
  EXPECT_EQ(result.stop_reason(), sim::StopReason::kMaxReplicas);
}

}  // namespace
}  // namespace goc::obs
