/// serve-mix: a closed loop of two in-process clients against one
/// `serve::Server` with a shared pool. Each client sends `submit` and then
/// `result <id> --wait` through `Server::handle_line`, walking a fixed
/// rotation of small chain-reference batch jobs, unaudited sweep jobs and
/// enumerate jobs whose seeds derive from --seed. Every job's values_hash
/// is checked against the same job run directly through the library.

#include <charconv>
#include <memory>
#include <sstream>
#include <thread>

#include "core/enumerate.hpp"
#include "core/generators.hpp"
#include "engine/sweep.hpp"
#include "equilibrium/enumerate.hpp"
#include "harness.hpp"
#include "serve/server.hpp"
#include "sim/scenarios.hpp"
#include "sim/trajectory.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kClients = 2;
constexpr std::size_t kVariants = 4;       // seeds per job kind
constexpr std::size_t kTracedJobs = 36;    // per client per pass of a trace run

// Job shapes (kept small so a run completes hundreds of jobs).
constexpr std::size_t kBatchMiners = 256, kBatchChains = 8, kBatchReplicas = 4;
constexpr double kBatchDays = 3.0;
const std::vector<std::size_t> kSweepMiners = {20, 60};
constexpr std::size_t kSweepCoins = 3, kSweepTrials = 2;
constexpr std::size_t kEnumMiners = 10, kEnumCoins = 3;

enum class Kind { kBatch, kSweep, kEnumerate };

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kBatch:
      return "batch";
    case Kind::kSweep:
      return "sweep";
    case Kind::kEnumerate:
      return "enumerate";
  }
  return "?";
}

struct JobSpec {
  Kind kind;
  std::uint64_t seed;

  std::string submit_line() const {
    std::string line = std::string("submit ") + kind_name(kind);
    switch (kind) {
      case Kind::kBatch:
        line += " --scenario=chain-reference --miners=" +
                std::to_string(kBatchMiners) +
                " --chains=" + std::to_string(kBatchChains) + " --days=" +
                std::to_string(static_cast<int>(kBatchDays)) +
                " --replicas=" + std::to_string(kBatchReplicas);
        break;
      case Kind::kSweep:
        line += " --miners=" + std::to_string(kSweepMiners[0]) + "," +
                std::to_string(kSweepMiners[1]) +
                " --coins=" + std::to_string(kSweepCoins) +
                " --schedulers=random-move,max-gain --trials=" +
                std::to_string(kSweepTrials);
        break;
      case Kind::kEnumerate:
        line += " --miners=" + std::to_string(kEnumMiners) +
                " --coins=" + std::to_string(kEnumCoins);
        break;
    }
    return line + " --seed=" + std::to_string(seed);
  }

  goc::Game enumerate_game() const {
    goc::GameSpec spec;
    spec.num_miners = kEnumMiners;
    spec.num_coins = kEnumCoins;
    goc::Rng rng(seed);
    return goc::random_game(spec, rng);
  }

  /// The same job run directly through the library on one lane, hashed as
  /// the daemon hashes its outcome.
  std::uint64_t direct_hash() const {
    std::uint64_t h = goc::fnv::kOffset;
    switch (kind) {
      case Kind::kBatch: {
        goc::sim::ReferenceChainParams params;
        params.miners = kBatchMiners;
        params.chains = kBatchChains;
        params.days = kBatchDays;
        goc::sim::TrajectoryBatchOptions options;
        options.replicas = kBatchReplicas;
        options.root_seed = seed;
        options.threads = 1;
        return goc::sim::run_chain_batch(
                   [&](std::uint64_t s) {
                     return goc::sim::make_reference_chain(
                         params, goc::sim::EngineKind::kFlat, s);
                   },
                   options)
            .values_hash();
      }
      case Kind::kSweep: {
        goc::engine::SweepSpec spec;
        spec.miner_counts = kSweepMiners;
        spec.coin_counts = {kSweepCoins};
        spec.scheduler_kinds = {goc::SchedulerKind::kRandomMove,
                                goc::SchedulerKind::kMaxGain};
        spec.trials = kSweepTrials;
        spec.root_seed = seed;
        goc::engine::SweepRunner::Options serial;
        serial.threads = 1;
        return sweep_records_hash(
            goc::engine::SweepRunner(serial).run(spec).records());
      }
      case Kind::kEnumerate: {
        goc::EnumerationOptions options;
        options.threads = 1;
        const goc::CanonicalEquilibria found =
            goc::enumerate_canonical_equilibria(enumerate_game(), options);
        for (std::size_t i = 0; i < found.representatives.size(); ++i) {
          goc::fnv::mix_bytes(
              h, static_cast<std::uint64_t>(found.representatives[i].hash()));
          goc::fnv::mix_bytes(h, found.orbit_sizes[i]);
        }
        return h;
      }
    }
    return h;
  }

  /// Canonical configurations an enumerate job walks (0 for other kinds).
  std::uint64_t configs() const {
    if (kind != Kind::kEnumerate) return 0;
    const goc::Game game = enumerate_game();
    return goc::canonical_count(game.system(),
                                goc::classes_for(game, goc::EnumerationOptions{}))
        .value_or(0);
  }
};

/// batch, sweep, enumerate, batch, ... -- kVariants seeds of each kind.
std::vector<JobSpec> rotation(std::uint64_t seed) {
  std::vector<JobSpec> specs;
  for (std::size_t v = 0; v < kVariants; ++v) {
    for (const Kind kind : {Kind::kBatch, Kind::kSweep, Kind::kEnumerate}) {
      specs.push_back(
          {kind, derive_seed(seed, 3 * v + static_cast<std::size_t>(kind)) %
                     1000000007u});
    }
  }
  return specs;
}

struct JobSample {
  std::size_t spec = 0;
  double ms = 0.0;
  bool ok = false;
  std::uint64_t hash = 0;
};

/// Parses `key=<u64>` out of a protocol line.
bool field(const std::string& line, const std::string& key,
           std::uint64_t& value) {
  const std::size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) return false;
  const char* begin = line.data() + at + key.size() + 2;
  return std::from_chars(begin, line.data() + line.size(), value).ec ==
         std::errc{};
}

/// Last line of a protocol response.
std::string terminator(const std::string& response) {
  std::string body = response;
  while (!body.empty() && body.back() == '\n') body.pop_back();
  const std::size_t nl = body.rfind('\n');
  return nl == std::string::npos ? body : body.substr(nl + 1);
}

/// One client request: submit, then block on the result.
JobSample run_job(goc::serve::Server& server, const std::vector<JobSpec>& specs,
                  std::size_t spec, Tracer* tracer, std::uint64_t tag) {
  JobSample sample;
  sample.spec = spec;
  const auto start = Clock::now();
  ScopedSpan job(tracer, "job", 0, tag);
  std::ostringstream submitted;
  {
    ScopedSpan span(tracer, "serve.submit", job.id(), tag);
    server.handle_line(specs[spec].submit_line(), submitted);
  }
  std::uint64_t id = 0;
  const std::string ack = terminator(submitted.str());
  if (ack.rfind("ok ", 0) == 0 && field(ack, "id", id)) {
    std::ostringstream result;
    {
      ScopedSpan span(tracer, "serve.result", job.id(), tag);
      server.handle_line("result " + std::to_string(id) + " --wait", result);
    }
    const std::string done = terminator(result.str());
    sample.ok = done.rfind("ok ", 0) == 0 && field(done, "values_hash", sample.hash);
  }
  sample.ms = seconds_since(start) * 1e3;
  return sample;
}

/// Runs the closed loop: every client walks the rotation from its own
/// offset until `keep_going(jobs_done_by_this_client)` is false. Returns
/// the wall time of the whole loop.
template <typename KeepGoing>
double closed_loop(goc::serve::Server& server, const std::vector<JobSpec>& specs,
                   Tracer* tracer, KeepGoing keep_going,
                   std::vector<JobSample>& samples) {
  std::vector<std::vector<JobSample>> per_client(kClients);
  const auto start = Clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::size_t offset = c * specs.size() / kClients;
      for (std::size_t i = 0; keep_going(i); ++i) {
        const std::size_t spec = (offset + i) % specs.size();
        try {
          per_client[c].push_back(
              run_job(server, specs, spec, tracer, (std::uint64_t{c} << 32) | i));
        } catch (const std::exception&) {
          per_client[c].push_back(JobSample{spec});  // counted as failed
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  const double wall = seconds_since(start);
  for (const auto& client : per_client) {
    samples.insert(samples.end(), client.begin(), client.end());
  }
  return wall;
}

std::unique_ptr<goc::serve::Server> make_server(std::size_t lanes) {
  goc::serve::ServerOptions options;
  options.threads = lanes;
  return std::make_unique<goc::serve::Server>(options);
}

}  // namespace

void run_serve_mix(const RunConfig& config, Outcome& out) {
  out.work_unit = "jobs";
  out.latency_unit = "job, submit to result";
  const std::vector<JobSpec> warmup = rotation(kWarmupSeed);
  const auto make = [&] {
    auto s = make_server(config.lanes);
    for (std::size_t i = 0; i < 3; ++i) run_job(*s, warmup, i, nullptr, i);
    return s;
  };
  const auto server = timed_setup(out.setup_s, make);

  const std::vector<JobSpec> specs = rotation(config.seed);
  std::vector<JobSample> samples;
  if (!config.trace) {
    timed_run(config.seconds, out.setup_s, make, [&](double seconds) {
      const auto deadline =
          Clock::now() + std::chrono::duration<double>(seconds);
      out.work_seconds += closed_loop(
          *server, specs, nullptr,
          [&](std::size_t) { return Clock::now() < deadline; }, samples);
    });
    out.work = static_cast<double>(samples.size());
  } else {
    RegistryDelta plain;
    const double plain_wall = closed_loop(
        *server, specs, nullptr, [](std::size_t i) { return i < kTracedJobs; },
        samples);
    plain.finish();
    std::vector<JobSample> traced;
    const double traced_wall = closed_loop(
        *server, specs, &out.tracer,
        [](std::size_t i) { return i < kTracedJobs; }, traced);

    registry_layers(plain, out);
    auto& layer = out.layer;
    std::uint64_t configs = 0;
    for (const JobSample& s : samples) configs += specs[s.spec].configs();
    layer["enum.configs"] = static_cast<double>(configs);
    std::vector<double> submit_us;
    for (const double ms : out.tracer.durations_ms("serve.submit")) {
      submit_us.push_back(ms * 1e3);
    }
    layer["serve.submit_us"] = median(submit_us);
    for (const Kind kind : {Kind::kBatch, Kind::kSweep, Kind::kEnumerate}) {
      std::vector<double> ms;
      for (const JobSample& s : traced) {
        if (specs[s.spec].kind == kind) ms.push_back(s.ms);
      }
      layer[std::string("serve.latency_ms.") + kind_name(kind)] = median(ms);
    }
    layer["trace.overhead_ratio"] = traced_wall / plain_wall;
    samples.insert(samples.end(), traced.begin(), traced.end());
  }

  // Every answer against the same job run directly through the library,
  // outside the timed loop.
  std::vector<std::uint64_t> expected;
  std::uint64_t jobs_hash = goc::fnv::kOffset;
  for (const JobSpec& spec : specs) {
    expected.push_back(spec.direct_hash());
    goc::fnv::mix_bytes(jobs_hash, expected.back());
  }
  std::uint64_t errors = 0;
  for (const JobSample& s : samples) {
    ++out.attempted;
    out.latency_ms.push_back(s.ms);
    if (!s.ok) {
      ++errors;
      out.fail(1, "job '" + specs[s.spec].submit_line() + "' was answered with err");
    } else if (s.hash != expected[s.spec]) {
      out.fail(1, "job '" + specs[s.spec].submit_line() +
                      "' hashes differently from the direct library run");
    }
  }
  if (config.trace) out.layer["serve.err"] = static_cast<double>(errors);
  out.hashes["jobs"] = jobs_hash;
}

}  // namespace perfbench
