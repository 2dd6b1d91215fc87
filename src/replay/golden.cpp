#include "replay/golden.hpp"

#include <algorithm>
#include <csignal>
#include <sstream>

#include "chain/chain_sim.hpp"
#include "chain/difficulty.hpp"
#include "engine/sweep.hpp"
#include "market/fig1_replay.hpp"
#include "market/scenario.hpp"
#include "io/serialize.hpp"
#include "replay/checkpoint.hpp"
#include "util/assert.hpp"
#include "util/fnv.hpp"

namespace goc::replay {
namespace {

constexpr const char* kGoldenKind = "golden-recording";

// ----------------------------------------------------- scenario workloads
// Fixed by name; changing a workload invalidates every committed golden of
// that scenario, so treat these like on-disk format: append new scenarios,
// never edit existing ones.

/// 12 heterogeneous miners racing a heavy/light chain pair under
/// better-response migration. The "chain" golden runs it for 240 simulated
/// hours with the full timeline on; the crash-demo batch for 120 hours
/// with the timeline off.
chain::MultiChainSimulator make_heavy_light_chain(std::uint64_t seed,
                                                 double hours,
                                                 bool record_timeline) {
  std::vector<chain::ChainSpec> chains;
  chains.push_back(chain::ChainSpec{
      "heavy", 600.0, 1.0 / 6.0, 30.0,
      std::make_unique<chain::FixedWindowRetarget>(72, 1.0 / 6.0)});
  chains.push_back(chain::ChainSpec{
      "light", 600.0, 1.0 / 6.0, 10.0,
      std::make_unique<chain::FixedWindowRetarget>(72, 1.0 / 6.0)});
  std::vector<double> powers;
  for (std::size_t i = 0; i < 12; ++i) {
    powers.push_back(5.0 + static_cast<double>(i % 4) * 7.0);
  }
  chain::ChainSimOptions options;
  options.duration_hours = hours;
  options.decision_interval_hours = 1.0;
  options.record_timeline = record_timeline;
  options.seed = seed;
  return chain::MultiChainSimulator(std::move(powers), std::move(chains),
                                    options);
}

/// "market": the fork-flip episode at epoch-market fidelity.
market::Scenario make_market_scenario() {
  market::ForkFlipParams params;
  params.miners = 32;
  return market::fork_flip_prototype(params);
}

/// "fig1": the coupled chain-level replay, shrunk to an 8-day horizon.
market::Fig1ReplayParams make_fig1_scenario(std::uint64_t seed) {
  market::Fig1ReplayParams params;
  params.miners = 16;
  params.days = 8.0;
  params.shock_day = 3.0;
  params.revert_day = 5.0;
  params.seed = seed;
  return params;
}

// ------------------------------------------------------- frame recording

void append_row(Writer& writer, std::size_t r, const std::vector<double>& row,
                std::uint64_t& rows_hash) {
  ByteWriter payload;
  payload.u64(r);
  for (const double v : row) {
    payload.f64(v);
    fnv::mix_bytes(rows_hash, v);
  }
  writer.append(RecordType::kReplicaRow, payload);
}

void append_trajectory_hash(Writer& writer, std::size_t r, std::uint64_t hash) {
  ByteWriter payload;
  payload.u64(r);
  payload.u64(hash);
  writer.append(RecordType::kTrajectoryHash, payload);
}

void record_chain_replica(Writer& writer, std::size_t r, std::uint64_t seed,
                          std::size_t stride, std::uint64_t& rows_hash) {
  chain::MultiChainSimulator sim = make_heavy_light_chain(seed, 240.0, true);
  const chain::ChainSimResult result = sim.run();
  append_row(writer, r, sim::chain_replica_metrics(result), rows_hash);
  append_trajectory_hash(writer, r, sim::chain_result_hash(result));
  for (std::size_t i = 0; i < result.timeline.size(); i += stride) {
    const chain::TimelinePoint& point = result.timeline[i];
    ByteWriter payload;
    payload.u64(r);
    payload.u64(i);
    payload.f64(point.t_hours);
    payload.u32(static_cast<std::uint32_t>(point.difficulty.size()));
    for (std::size_t c = 0; c < point.difficulty.size(); ++c) {
      payload.f64(point.difficulty[c]);
      payload.f64(point.hashrate[c]);
      payload.u64(point.blocks[c]);
      payload.f64(point.reward_fiat[c]);
    }
    writer.append(RecordType::kChainSnapshot, payload);
  }
}

void record_market_replica(Writer& writer, std::size_t r, std::uint64_t seed,
                           std::size_t stride, std::uint64_t& rows_hash) {
  static const market::Scenario scenario = make_market_scenario();
  market::MarketSimulator sim = scenario.make_simulator(seed);
  const std::vector<market::EpochRecord> records = sim.run();
  append_row(writer, r, sim::market_replica_metrics(records), rows_hash);
  append_trajectory_hash(writer, r, sim::market_records_hash(records));
  for (std::size_t i = 0; i < records.size(); i += stride) {
    const market::EpochRecord& record = records[i];
    ByteWriter payload;
    payload.u64(r);
    payload.u64(i);
    payload.f64(record.t_hours);
    payload.u32(static_cast<std::uint32_t>(record.prices.size()));
    for (std::size_t c = 0; c < record.prices.size(); ++c) {
      payload.f64(record.prices[c]);
      payload.f64(record.weights[c]);
      payload.f64(record.hashrate_share[c]);
    }
    payload.u64(record.br_steps);
    payload.u8(record.at_equilibrium ? 1 : 0);
    writer.append(RecordType::kMarketSnapshot, payload);
  }
}

void record_fig1_replica(Writer& writer, std::size_t r, std::uint64_t seed,
                         std::size_t stride, std::uint64_t& rows_hash) {
  const market::Fig1ReplayResult result =
      market::run_fig1_replay(make_fig1_scenario(seed));
  append_row(writer, r, market::fig1_replica_metrics(result), rows_hash);
  append_trajectory_hash(writer, r, market::fig1_result_hash(result));
  for (std::size_t i = 0; i < result.series.size(); i += stride) {
    const market::Fig1ReplayPoint& point = result.series[i];
    ByteWriter payload;
    payload.u64(r);
    payload.u64(i);
    payload.f64(point.t_hours);
    payload.f64(point.major_price);
    payload.f64(point.minor_price);
    payload.f64(point.major_hash);
    payload.f64(point.minor_hash);
    payload.f64(point.minor_difficulty);
    writer.append(RecordType::kFig1Snapshot, payload);
  }
}

const std::vector<std::string>& scenario_metrics(const std::string& scenario) {
  if (scenario == "chain") return sim::chain_batch_metrics();
  if (scenario == "market") return sim::market_batch_metrics();
  if (scenario == "fig1") return market::fig1_replay_metrics();
  throw std::invalid_argument("unknown golden scenario: " + scenario);
}

}  // namespace

const std::vector<std::string>& golden_scenarios() {
  static const std::vector<std::string> kNames = {"chain", "market", "fig1"};
  return kNames;
}

std::uint64_t golden_config_hash(const GoldenOptions& options) {
  std::uint64_t h = fnv::kOffset;
  for (const char ch : options.scenario) {
    fnv::mix_bytes(h, static_cast<std::uint64_t>(
                          static_cast<std::uint8_t>(ch)));
  }
  fnv::mix_bytes(h, options.seed);
  fnv::mix_bytes(h, static_cast<std::uint64_t>(options.replicas));
  fnv::mix_bytes(h, static_cast<std::uint64_t>(options.snapshot_stride));
  fnv::mix_bytes(h, static_cast<std::uint64_t>(kFormatVersion));
  return h;
}

std::string record_golden(const GoldenOptions& options) {
  const std::vector<std::string>& metrics = scenario_metrics(options.scenario);
  GOC_CHECK_ARG(options.replicas >= 1, "a golden needs at least one replica");
  GOC_CHECK_ARG(options.snapshot_stride >= 1,
                "snapshot stride must be >= 1");

  Writer writer;
  ByteWriter header;
  header.str(kGoldenKind);
  header.str(options.scenario);
  header.u64(options.seed);
  header.u64(golden_config_hash(options));
  header.u64(options.replicas);
  header.u64(options.snapshot_stride);
  header.u32(static_cast<std::uint32_t>(metrics.size()));
  for (const std::string& name : metrics) header.str(name);
  writer.append(RecordType::kBatchHeader, header);

  // Replicas run serially in index order with the batch engine's seed
  // derivation, so row r here is bit-identical to row r of a Monte Carlo
  // batch over the same scenario at any thread count.
  std::uint64_t rows_hash = fnv::kOffset;
  for (std::size_t r = 0; r < options.replicas; ++r) {
    const std::uint64_t seed = engine::task_seed(options.seed, r, 0);
    if (options.scenario == "chain") {
      record_chain_replica(writer, r, seed, options.snapshot_stride, rows_hash);
    } else if (options.scenario == "market") {
      record_market_replica(writer, r, seed, options.snapshot_stride,
                            rows_hash);
    } else {
      record_fig1_replica(writer, r, seed, options.snapshot_stride, rows_hash);
    }
  }

  ByteWriter footer;
  footer.u64(options.replicas);
  footer.u64(rows_hash);
  writer.append(RecordType::kFooter, footer);
  return writer.bytes();
}

void record_golden_file(const GoldenOptions& options, const std::string& path) {
  try {
    io::atomic_write_file(record_golden(options), path);
  } catch (const std::runtime_error& e) {
    throw ReplayException(ReplayError::kIo, e.what());
  }
}

VerifyReport verify_golden_file(const std::string& path) {
  VerifyReport report;
  try {
    const std::string bytes = read_file_bytes(path);
    const Reader reader = Reader::from_bytes(bytes, /*salvage=*/false);
    const std::vector<Frame>& frames = reader.frames();
    report.frames = frames.size();
    if (frames.empty() || frames.front().type != RecordType::kBatchHeader) {
      report.detail = "artifact has no leading header frame";
      return report;
    }

    GoldenOptions options;
    std::uint64_t stored_config = 0;
    {
      ByteReader header(frames.front().payload);
      const std::string kind = header.str();
      if (kind != kGoldenKind) {
        report.detail = "artifact is a '" + kind + "', not a golden recording";
        return report;
      }
      options.scenario = header.str();
      options.seed = header.u64();
      stored_config = header.u64();
      options.replicas = header.u64();
      options.snapshot_stride = header.u64();
    }
    report.scenario = options.scenario;
    const auto& known = golden_scenarios();
    if (std::find(known.begin(), known.end(), options.scenario) ==
        known.end()) {
      report.detail = "unknown scenario '" + options.scenario + "'";
      return report;
    }
    if (stored_config != golden_config_hash(options)) {
      report.detail = "header config hash does not match its own options";
      return report;
    }

    const std::string regenerated = record_golden(options);
    if (regenerated == bytes) {
      report.ok = true;
      return report;
    }
    const Reader fresh = Reader::from_bytes(regenerated, /*salvage=*/false);
    const std::vector<Frame>& expected = fresh.frames();
    const std::size_t common = std::min(frames.size(), expected.size());
    for (std::size_t i = 0; i < common; ++i) {
      if (frames[i].type != expected[i].type ||
          frames[i].payload != expected[i].payload) {
        report.detail = "first divergence at frame " + std::to_string(i) +
                        " (" + record_type_name(frames[i].type) + ")";
        return report;
      }
    }
    report.detail = "frame count differs: artifact has " +
                    std::to_string(frames.size()) + ", replay produced " +
                    std::to_string(expected.size());
    return report;
  } catch (const ReplayException& e) {
    report.detail = e.what();
    return report;
  }
}

ArtifactInfo inspect_file(const std::string& path, bool salvage) {
  const std::string bytes = read_file_bytes(path);
  const Reader reader = Reader::from_bytes(bytes, salvage);
  ArtifactInfo info;
  info.bytes = bytes.size();
  info.frames = reader.frames().size();
  info.salvaged = reader.salvaged();
  info.salvaged_bytes = reader.salvaged_bytes();
  if (reader.salvaged()) {
    info.salvage_reason = replay_error_name(reader.salvage_reason());
  }

  std::vector<std::pair<RecordType, std::size_t>> counts;
  for (const Frame& frame : reader.frames()) {
    bool found = false;
    for (auto& [type, count] : counts) {
      if (type == frame.type) {
        ++count;
        found = true;
        break;
      }
    }
    if (!found) counts.emplace_back(frame.type, 1);
  }
  for (const auto& [type, count] : counts) {
    info.frame_counts.push_back(std::to_string(count) + " x " +
                                record_type_name(type));
  }

  if (!reader.frames().empty() &&
      reader.frames().front().type == RecordType::kBatchHeader) {
    try {
      ByteReader header(reader.frames().front().payload);
      info.kind = header.str();
      if (info.kind == kGoldenKind) {
        info.scenario = header.str();
        info.seed = header.u64();
        info.config_hash = header.u64();
      } else {
        // trajectory-checkpoint layout (checkpoint.cpp).
        info.seed = header.u64();
        info.config_hash = header.u64();
      }
    } catch (const ReplayException&) {
      // A damaged header frame: report what parsed, keep the frame stats.
    }
  }
  return info;
}

std::string render_info(const ArtifactInfo& info) {
  std::ostringstream os;
  os << "kind:        " << (info.kind.empty() ? "(unknown)" : info.kind)
     << "\n";
  if (!info.scenario.empty()) os << "scenario:    " << info.scenario << "\n";
  os << "seed:        " << info.seed << "\n";
  os << "config hash: " << info.config_hash << "\n";
  os << "size:        " << info.bytes << " bytes, " << info.frames
     << " frames\n";
  for (const std::string& line : info.frame_counts) {
    os << "  " << line << "\n";
  }
  if (info.salvaged) {
    os << "salvaged:    dropped " << info.salvaged_bytes << " trailing bytes ("
       << info.salvage_reason << ")\n";
  }
  return os.str();
}

// ------------------------------------------------------ crash-demo batch

std::uint64_t crash_demo_config_hash(const CrashBatchOptions& options) {
  std::uint64_t h = fnv::kOffset;
  for (const char ch : std::string_view("crash-demo-v1")) {
    fnv::mix_bytes(h, static_cast<std::uint64_t>(
                          static_cast<std::uint8_t>(ch)));
  }
  fnv::mix_bytes(h, options.adaptive ? std::uint64_t{1} : std::uint64_t{0});
  return h;
}

sim::TrajectoryBatchResult run_crash_demo_batch(
    const CrashBatchOptions& options) {
  GOC_CHECK_ARG(!options.checkpoint_path.empty(),
                "crash-demo batch needs a checkpoint path");
  sim::TrajectoryBatchOptions batch;
  batch.replicas = options.replicas;
  batch.root_seed = options.seed;
  batch.threads = options.threads;
  batch.config_hash = crash_demo_config_hash(options);
  if (options.adaptive) {
    sim::StoppingRule rule;
    rule.metric = "share_mae";
    rule.tolerance = 0.02;
    rule.relative = true;
    rule.min_replicas = std::min<std::size_t>(8, options.replicas);
    rule.max_replicas = options.replicas;
    rule.wave = options.interval;
    batch.stopping = rule;
  }
  CheckpointOptions ckpt;
  ckpt.path = options.checkpoint_path;
  ckpt.interval = options.interval;
  if (options.kill_after > 0) {
    ckpt.on_write = [writes = std::size_t{0},
                     kill_after = options.kill_after](std::size_t) mutable {
      if (++writes >= kill_after) std::raise(SIGKILL);
    };
  }
  batch.checkpoint = std::move(ckpt);

  return sim::run_chain_batch(
      [](std::uint64_t seed) {
        return make_heavy_light_chain(seed, 120.0, false);
      },
      batch);
}

}  // namespace goc::replay
