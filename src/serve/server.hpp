#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "engine/thread_pool.hpp"
#include "serve/job_table.hpp"
#include "util/cli.hpp"

/// \file server.hpp
/// The engine-as-a-service daemon: a line-oriented text protocol over a
/// long-lived engine process (`goc-serve`), in the spirit of chess/crossword
/// engine protocols — newline-delimited commands in, newline-delimited
/// responses out, every command terminated by exactly one `ok ...` or
/// `err ...` line so clients can script against it without timeouts.
///
/// ```
/// submit batch|sweep|enumerate [--flags...]   -> ok id=N kind=...
/// batch|sweep|enumerate [--flags...]          (submit shorthand)
/// status <id>                                 -> ok id=N kind=... state=...
///                                                progress=done/total ...
/// jobs                                        -> job ... lines, ok jobs=N
/// result <id> [--wait]                        -> JSON payload, then ok ...
/// cancel <id>                                 -> ok id=N state=cancelled
/// watch <id> [--interval-ms=N]                -> progress ... rows, ok ...
/// stats [--json]                              -> metrics payload, ok stats
/// ping | help | quit
/// ```
///
/// Jobs run asynchronously on driver threads that fan their inner work
/// onto ONE warm shared `engine::ThreadPool` — the daemon's reason to
/// exist: scripted studies submit many requests against an engine that
/// never re-spawns threads, and results come back as the same
/// `io::table_to_json` documents the bench binaries emit, with the same
/// deterministic `values_hash` a one-shot CLI run of the identical
/// workload produces (the scenario factories and batch flag grammar are
/// single-sourced with the benches — sim/scenarios.hpp, sim/batch_cli.hpp).
/// `cancel` bumps the job's `engine::CancelToken` (engine/cancel.hpp),
/// which the engines poll at work boundaries, and returns promptly.

namespace goc::serve {

/// Longest error text an `err` line carries. Texts built outside the
/// server (flag parsing) may echo input too, so the whole message is cut
/// at this length, with the same marker as `echo` (serve/request.hpp).
inline constexpr std::size_t kErrTextBytes = 400;

struct ServerOptions {
  /// Lane count of the shared pool (`--threads` convention: 0 = one lane
  /// per hardware thread, 1 = serial). Per-job `--threads` flags are
  /// accepted but inert — pooled jobs always share this warm pool.
  std::size_t threads = 0;
};

class Server {
 public:
  explicit Server(ServerOptions options);

  /// Handles one protocol line, writing the full response (payload lines
  /// plus the terminating ok/err line) to `out`. Returns false iff the
  /// line was `quit` — the caller should stop its read loop. Blank lines
  /// and `#` comments produce no output. Never throws: every parse or
  /// engine error becomes an `err` line.
  bool handle_line(const std::string& line, std::ostream& out);

  /// Read-eval-print loop over a stream pair until `quit` or EOF.
  void serve(std::istream& in, std::ostream& out);

  /// Total lanes of the shared pool (workers + the driving thread).
  std::size_t lanes() const noexcept { return lanes_; }

  JobTable& jobs() noexcept { return jobs_; }

 private:
  void cmd_submit(const std::string& kind, const std::vector<std::string>& args,
                  std::ostream& out);
  void cmd_status(const std::vector<std::string>& args, std::ostream& out);
  void cmd_result(const std::vector<std::string>& args, std::ostream& out);
  void cmd_cancel(const std::vector<std::string>& args, std::ostream& out);
  void cmd_jobs(std::ostream& out);
  void cmd_watch(const std::vector<std::string>& args, std::ostream& out);
  void cmd_stats(const std::vector<std::string>& args, std::ostream& out);
  void cmd_help(std::ostream& out);

  JobTable::Work make_batch_work(const Cli& cli);
  JobTable::Work make_sweep_work(const Cli& cli);
  JobTable::Work make_enumerate_work(const Cli& cli);

  std::size_t lanes_;
  engine::ThreadPool pool_;
  // Declared after the pool: jobs join their drivers (which reference the
  // pool) before the pool's destructor runs.
  JobTable jobs_;
};

}  // namespace goc::serve
