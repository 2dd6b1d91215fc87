#include <iostream>
#include <string>
#include <vector>

#include "replay/golden.hpp"
#include "replay/replay.hpp"
#include "util/cli.hpp"

/// \file goc_replay.cpp
/// `goc-replay` — record, verify and inspect binary replay artifacts.
///
/// ```
/// goc-replay record --scenario=chain --out=GOLDEN_chain.gocr
///                   [--seed=N] [--replicas=N] [--stride=N]
/// goc-replay verify <artifact>...          # exit 0 iff every file matches
/// goc-replay info   <artifact>             # header + frame census
/// goc-replay batch  --checkpoint=<path>    # crash-demo checkpointed batch
///                   [--replicas=N] [--interval=N] [--threads=N] [--seed=N]
///                   [--adaptive] [--kill-after=N]
/// ```
///
/// `verify` re-runs the scenario named inside each artifact and compares
/// the regenerated frames bit for bit — the committed goldens under
/// bench/baselines/ go through this in CI on every compiler. `batch` is
/// the fault-injection workload: with `--kill-after=N` the process
/// SIGKILLs itself inside the Nth checkpoint write, leaving an artifact
/// for the harness to corrupt and resume. Each subcommand exits 2 on an
/// option it does not read (`Cli::refuse_unknown`) or on an option value
/// that is malformed or breaks a library precondition (`run_main`).

namespace {

int usage(const char* program) {
  std::cerr << "usage: " << program
            << " record|verify|info|batch [options]\n"
               "  record --scenario=chain|market|fig1 --out=PATH"
               " [--seed= --replicas= --stride=]\n"
               "  verify PATH...\n"
               "  info PATH [--strict]\n"
               "  batch --checkpoint=PATH [--replicas= --interval= --threads="
               " --seed= --adaptive --kill-after=]\n";
  return 2;
}

int run_record(const goc::Cli& cli) {
  if (cli.refuse_unknown({"scenario", "out", "seed", "replicas", "stride"})) {
    return 2;
  }
  goc::replay::GoldenOptions options;
  options.scenario = cli.get_string("scenario", options.scenario);
  options.seed = cli.get_u64("seed", options.seed);
  options.replicas =
      static_cast<std::size_t>(cli.get_u64("replicas", options.replicas));
  options.snapshot_stride = static_cast<std::size_t>(
      cli.get_u64("stride", options.snapshot_stride));
  const std::string out = cli.get_string("out", "");
  if (out.empty()) {
    std::cerr << "record: --out=PATH is required\n";
    return 2;
  }
  goc::replay::record_golden_file(options, out);
  std::cout << "recorded scenario '" << options.scenario << "' (seed "
            << options.seed << ", " << options.replicas << " replicas) to "
            << out << "\n";
  return 0;
}

int run_verify(const goc::Cli& cli) {
  if (cli.refuse_unknown({}, /*positional_ok=*/true)) return 2;
  const std::vector<std::string>& paths = cli.positional();
  if (paths.empty()) {
    std::cerr << "verify: at least one artifact path is required\n";
    return 2;
  }
  int failures = 0;
  for (const std::string& path : paths) {
    const goc::replay::VerifyReport report =
        goc::replay::verify_golden_file(path);
    if (report.ok) {
      std::cout << "OK   " << path << " (" << report.scenario << ", "
                << report.frames << " frames)\n";
    } else {
      std::cout << "FAIL " << path << ": " << report.detail << "\n";
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int run_info(const goc::Cli& cli) {
  if (cli.refuse_unknown({"strict"}, /*positional_ok=*/true)) return 2;
  const std::vector<std::string>& paths = cli.positional();
  if (paths.size() != 1) {
    std::cerr << "info: exactly one artifact path is required\n";
    return 2;
  }
  const bool salvage = !cli.get_bool("strict", false);
  const goc::replay::ArtifactInfo info =
      goc::replay::inspect_file(paths.front(), salvage);
  std::cout << paths.front() << "\n" << goc::replay::render_info(info);
  return 0;
}

int run_batch(const goc::Cli& cli) {
  if (cli.refuse_unknown({"checkpoint", "seed", "replicas", "interval",
                          "threads", "kill-after", "adaptive"})) {
    return 2;
  }
  goc::replay::CrashBatchOptions options;
  options.checkpoint_path = cli.get_string("checkpoint", "");
  options.seed = cli.get_u64("seed", options.seed);
  options.replicas =
      static_cast<std::size_t>(cli.get_u64("replicas", options.replicas));
  options.interval =
      static_cast<std::size_t>(cli.get_u64("interval", options.interval));
  options.threads =
      static_cast<std::size_t>(cli.get_u64("threads", options.threads));
  options.kill_after =
      static_cast<std::size_t>(cli.get_u64("kill-after", options.kill_after));
  options.adaptive = cli.get_bool("adaptive", options.adaptive);
  if (options.checkpoint_path.empty()) {
    std::cerr << "batch: --checkpoint=PATH is required\n";
    return 2;
  }
  const goc::sim::TrajectoryBatchResult result =
      goc::replay::run_crash_demo_batch(options);
  std::cout << "completed " << result.replicas() << "/"
            << result.replicas_requested() << " replicas ("
            << goc::sim::stop_reason_name(result.stop_reason())
            << "), values hash " << result.values_hash() << "\n";
  return 0;
}

int run(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string command = argv[1];
  const goc::Cli cli(argc - 1, argv + 1);
  try {
    if (command == "record") return run_record(cli);
    if (command == "verify") return run_verify(cli);
    if (command == "info") return run_info(cli);
    if (command == "batch") return run_batch(cli);
  } catch (const std::invalid_argument&) {
    throw;  // a bad flag value: run_main refuses it with exit 2
  } catch (const std::exception& e) {
    std::cerr << command << ": " << e.what() << "\n";
    return 1;
  }
  return usage(argv[0]);
}

}  // namespace

int main(int argc, char** argv) { return goc::run_main(argc, argv, run); }
