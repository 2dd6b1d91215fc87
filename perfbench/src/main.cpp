/// goc_perfbench: runs one benchmark workload against the library and
/// reports its metrics. Normally started through perfbench/run.py, which
/// builds this binary and turns its RESULT line into the benchmark's
/// result object.
///
///   goc_perfbench --workload=chain-mc|market-mc|e3-sweep|serve-mix
///                 --seed=N --seconds=S --trace=0|1 --lanes=L
///                 --work-dir=DIR [--trace-out=FILE]
///                 [--source-digest=HEX] [--git-sha=SHA]
///
/// --trace=0 measures the end-to-end metrics for S seconds; --trace=1 runs
/// a fixed amount of work twice (plain, then with harness spans) and
/// reports the per-layer metrics. Exit status 0 means every output was
/// checked and correct.

#include <sys/resource.h>

#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "harness.hpp"
#include "util/cli.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr std::uint64_t kDefaultSeed = 2021;
/// Pinned result hashes of the default seed, relative to the checkout root.
constexpr const char* kPinsPath = "perfbench/pins.txt";

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double spin_seconds(std::uint64_t iterations) {
  const auto start = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  keep(x);
  return seconds_since(start);
}

/// Effective parallel lanes: `lanes` copies of a fixed spin on `lanes`
/// threads vs one copy on one thread (lanes on a host with that many free
/// cores; about 1 where the host grants one core of throughput).
double lane_speedup(std::size_t lanes) {
  constexpr std::uint64_t kIterations = 20'000'000;
  double one = 1e9, many = 1e9;
  for (int round = 0; round < 2; ++round) {
    one = std::min(one, spin_seconds(kIterations));
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < lanes; ++t) {
      threads.emplace_back([] { spin_seconds(kIterations); });
    }
    for (std::thread& t : threads) t.join();
    many = std::min(many, seconds_since(start));
  }
  return static_cast<double>(lanes) * one / many;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// pins.txt lines: `<workload> <key> <hash>`; `#` starts a comment.
void check_pins(const std::string& path, const std::string& workload,
                Outcome& out) {
  std::ifstream in(path);
  if (!in) {
    out.fail(1, "cannot read pinned hashes from " + path);
    return;
  }
  std::size_t pinned = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name, key;
    std::uint64_t want = 0;
    if (!(fields >> name) || name[0] == '#' || name != workload) continue;
    if (!(fields >> key >> want)) {
      out.fail(1, "malformed pin line '" + line + "'");
      continue;
    }
    ++pinned;
    const auto got = out.hashes.find(key);
    if (got == out.hashes.end() || got->second != want) {
      out.fail(1, "pinned hash " + workload + " " + key + " = " +
                      std::to_string(want) + ", this run produced " +
                      (got == out.hashes.end() ? std::string("nothing")
                                               : std::to_string(got->second)));
    }
  }
  if (pinned == 0) out.fail(1, "no pinned hashes for " + workload);
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  std::ostringstream os;
  os << std::setprecision(17) << value;
  return os.str();
}

int run(int argc, char** argv) {
  const goc::Cli cli(argc, argv);
  RunConfig config;
  config.workload = cli.get_string("workload", "");
  config.seed = cli.get_u64("seed", kDefaultSeed);
  config.seconds = cli.get_double("seconds", 10.0);
  config.trace = cli.get_u64("trace", 0) != 0;
  config.lanes = cli.get_u64("lanes", 2);
  config.work_dir = cli.get_string("work-dir", ".");
  const std::string trace_out = cli.get_string("trace-out", "");

  const std::map<std::string, void (*)(const RunConfig&, Outcome&)> workloads = {
      {"chain-mc", run_chain_mc},
      {"market-mc", run_market_mc},
      {"e3-sweep", run_e3_sweep},
      {"serve-mix", run_serve_mix}};
  const auto workload = workloads.find(config.workload);
  const std::vector<std::string> unknown =
      cli.unknown({"workload", "seed", "seconds", "trace", "lanes", "work-dir",
                   "trace-out", "source-digest", "git-sha"});
  if (workload == workloads.end() || !unknown.empty() || config.lanes < 1 ||
      config.seconds <= 0) {
    std::cerr << "usage: goc_perfbench --workload=chain-mc|market-mc|e3-sweep|"
                 "serve-mix --seed=N --seconds=S --trace=0|1 --lanes=L\n";
    return 2;
  }

  const double speedup = lane_speedup(config.lanes);
  std::cout << "# host: cpu=\"" << cpu_model()
            << "\" nproc=" << std::thread::hardware_concurrency()
            << " lanes=" << config.lanes << " lane_speedup=" << json_number(speedup)
            << " compiler=\"" << __VERSION__ << "\" build=" << PERFBENCH_BUILD_TYPE
            << " source=" << cli.get_string("source-digest", "unknown")
            << " git=" << cli.get_string("git-sha", "none") << "\n";
  std::cout << "# workload=" << config.workload << " seed=" << config.seed
            << " trace=" << config.trace << "\n";

  Outcome out;
  try {
    workload->second(config, out);
  } catch (const std::exception& error) {
    out.fail(out.attempted + 1, std::string("workload threw: ") + error.what());
  }
  if (config.seed == kDefaultSeed) check_pins(kPinsPath, config.workload, out);
  for (const auto& [key, hash] : out.hashes) {
    std::cout << "# pin " << config.workload << " " << key << " " << hash << "\n";
  }

  std::map<std::string, double> metrics;
  if (!config.trace) {
    double latency_sum = 0.0;
    for (const double ms : out.latency_ms) latency_sum += ms;
    metrics["setup_s"] = median(out.setup_s);
    metrics["throughput_per_s"] = out.work / out.work_seconds;
    metrics["latency_mean_ms"] =
        latency_sum / static_cast<double>(std::max<std::size_t>(out.latency_ms.size(), 1));
    metrics["peak_rss_mb"] = peak_rss_mb();
    std::cout << "# throughput: " << out.work << " " << out.work_unit << " in "
              << out.work_seconds << " s\n"
              << "# latency of one " << out.latency_unit << ": "
              << out.latency_ms.size() << " samples, p50 "
              << quantile(out.latency_ms, 0.5) << " ms, p90 "
              << quantile(out.latency_ms, 0.9) << " ms, p99 "
              << quantile(out.latency_ms, 0.99) << " ms\n"
              << "# setup: median of " << out.setup_s.size() << " set-ups\n";
  } else {
    metrics = out.layer;
    metrics["host.lane_speedup"] = speedup;
    try {
      if (!trace_out.empty()) out.tracer.write_json(trace_out);
    } catch (const std::exception& error) {
      out.fail(1, error.what());
    }
  }

  const std::uint64_t attempted = std::max<std::uint64_t>(out.attempted, 1);
  const std::uint64_t failed = std::min(out.failed, attempted);
  const bool correct = failed == 0;
  std::cout << "# failed_ratio=" << static_cast<double>(failed) / attempted
            << " (" << failed << " of " << attempted << ")\n";
  for (std::size_t i = 0; i < out.errors.size() && i < 10; ++i) {
    std::cout << "# FAILED: " << out.errors[i] << "\n";
  }
  std::cout << "RESULT {\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::cout << (first ? "" : ", ") << "\"" << name
              << "\": " << json_number(value);
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
