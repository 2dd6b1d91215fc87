#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

/// \file cli.hpp
/// Minimal command-line option parsing for example and benchmark binaries.
///
/// Accepted syntax: `--name=value`, `--name value`, and boolean `--flag`.
/// `unknown(known_names)` returns the parsed option names outside a known
/// set, and `refuse_unknown` is the one refusal every binary prints for
/// them, so a typo fails fast instead of silently falling back to a
/// default. A malformed value (`--trials=abc`) and a well-formed value
/// that breaks a library precondition (`--trials=0`) both throw
/// `std::invalid_argument`, which `run_main` turns into the same kind of
/// refusal.

namespace goc {

/// Strict unsigned decimal: all of `text` must be digits (no sign, no
/// whitespace, no trailing characters) and the value must fit in 64 bits.
/// Every unsigned number read from a command line or a daemon request goes
/// through here, so "-1" never wraps to 2^64 - 1 and "7x" is never 7.
std::optional<std::uint64_t> parse_u64(std::string_view text) noexcept;

/// The entry point every binary's `main` goes through: returns
/// `run(argc, argv)`, except that a `std::invalid_argument` (a malformed
/// value from `Cli::get_*`, "option --trials expects an unsigned integer,
/// got 'abc'", or a library precondition such as `SweepSpec.trials` or the
/// `ThreadPool` ceiling, reached from a command-line value) prints
/// `<program>: <message>` to stderr and returns 2, the exit status of
/// `Cli::refuse_unknown`. Any other exception propagates unchanged.
int run_main(int argc, char** argv, int (*run)(int, char**));

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  const std::string& program() const noexcept { return program_; }

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::uint64_t get_u64(const std::string& name, std::uint64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  /// Boolean flags: present without value (or "true"/"1") → true;
  /// "false"/"0" → false.
  bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-option) arguments in order.
  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Parsed option names NOT in `known` (sorted, as parsed order is lost
  /// to the map). Empty means every option was recognised; non-empty is
  /// the fail-fast signal — a typo like `--stop-maxx` never silently
  /// falls back to a default again.
  std::vector<std::string> unknown(const std::vector<std::string>& known) const;

  /// The refusal every binary shares: when an option is outside `known`,
  /// or a positional argument is given and `positional_ok` is false,
  /// prints `<program>: unknown option(s): --x y` to stderr and returns
  /// true. The caller then exits with status 2 before doing any work.
  bool refuse_unknown(const std::vector<std::string>& known,
                      bool positional_ok = false) const;

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace goc
