#pragma once

#include <sys/resource.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "io/serialize.hpp"
#include "obs/registry.hpp"
#include "sim/trajectory.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

/// \file bench_common.hpp
/// Conventions shared by the experiment harnesses: a wall-clock stopwatch,
/// a uniform header/CSV/JSON-export treatment so every binary prints the
/// paper-style rows and can optionally persist them. The JSON mode
/// (`--json=<base>`) emits machine-readable result files for trajectory
/// tracking (`BENCH_*.json`) alongside the human-readable tables —
/// atomically, so an interrupted bench never leaves a torn baseline behind.
/// Every JSON file additionally carries `peak_rss_bytes` and
/// `total_wall_ms` so a perf regression in memory or startup shows up in
/// the same artifact as the timing rows.

namespace goc::bench {

/// Parses the command line and refuses any option outside `flags`, the
/// optional `shared` list (e.g. `sim::batch_cli_names()` for a harness that
/// calls `apply_batch_cli`) and `--csv`/`--json` (read by `emit`), and any
/// positional argument (no harness takes one; `-quick` lands there): prints
/// `unknown option(s): --x` (`Cli::refuse_unknown`) and exits 2 before the
/// harness does any work, so a mistyped flag never runs a whole experiment
/// on defaults.
inline Cli parse_cli(int argc, char** argv, std::vector<std::string> flags,
                     const std::vector<std::string>& shared = {}) {
  Cli cli(argc, argv);
  flags.insert(flags.end(), shared.begin(), shared.end());
  flags.insert(flags.end(), {"csv", "json"});
  if (cli.refuse_unknown(flags)) std::exit(2);
  return cli;
}

/// Wall-clock stopwatch on the obs time base (`obs::now_ns` — the same
/// steady clock every span and latency histogram uses, so bench timings
/// and registry histograms are directly comparable).
class Stopwatch {
 public:
  Stopwatch() : start_ns_(obs::now_ns()) {}
  double elapsed_ms() const {
    return static_cast<double>(obs::now_ns() - start_ns_) / 1e6;
  }
  void restart() { start_ns_ = obs::now_ns(); }

 private:
  std::uint64_t start_ns_;
};

/// Peak resident set size of this process so far, in bytes (getrusage
/// reports kilobytes on Linux). 0 when the kernel call fails.
inline std::uint64_t peak_rss_bytes() {
  ::rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

namespace detail {
/// Process-lifetime stopwatch backing `total_wall_ms`; started by the
/// first `banner()` call (every bench banners before it works).
inline Stopwatch& process_stopwatch() {
  static Stopwatch watch;
  return watch;
}
}  // namespace detail

/// Prints the experiment banner (and starts the process-wide stopwatch
/// that `emit` stamps into JSON as `total_wall_ms`).
inline void banner(const std::string& experiment, const std::string& claim) {
  detail::process_stopwatch();
  std::cout << "=== " << experiment << " ===\n" << claim << "\n\n";
}

namespace detail {

/// One export format of `emit`: if `--<format>=<base>` was passed, saves
/// the table via `save` to `<base>[.suffix].<format>` and announces the
/// path. A bare `--<format>` flag parses as an empty value; fall back to
/// "bench" rather than emitting a hidden dotfile.
template <typename SaveFn>
void emit_as(const Cli& cli, const std::string& format,
             const std::string& suffix, SaveFn&& save) {
  if (!cli.has(format)) return;
  std::string base = cli.get_string(format, "bench");
  if (base.empty()) base = "bench";
  const std::string path = suffix.empty()
                               ? base + "." + format
                               : base + "." + suffix + "." + format;
  save(path);
  std::cout << "[" << format << " saved to " << path << "]\n\n";
}

}  // namespace detail

/// Prints a table and, when --csv=<base> / --json=<base> were passed,
/// saves it in those formats too (suffix keeps multi-table binaries from
/// overwriting themselves).
inline void emit(const Cli& cli, const Table& table, const std::string& title,
                 const std::string& csv_suffix = "") {
  table.print(std::cout, title);
  std::cout << "\n";
  detail::emit_as(cli, "csv", csv_suffix,
                  [&](const std::string& path) { table.save_csv(path); });
  detail::emit_as(cli, "json", csv_suffix, [&](const std::string& path) {
    const std::vector<std::pair<std::string, std::string>> extras = {
        {"peak_rss_bytes", std::to_string(peak_rss_bytes())},
        {"total_wall_ms",
         std::to_string(detail::process_stopwatch().elapsed_ms())},
    };
    io::atomic_write_file(io::table_to_json(table, title, extras), path);
  });
}

}  // namespace goc::bench
