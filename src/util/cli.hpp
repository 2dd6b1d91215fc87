#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

/// \file cli.hpp
/// Minimal command-line option parsing for example and benchmark binaries.
///
/// Accepted syntax: `--name=value`, `--name value`, and boolean `--flag`.
/// `unknown(known_names)` returns the parsed option names outside a known
/// set so binaries (and the serve daemon's request parser) can fail fast
/// with a usage string instead of silently ignoring a typo.

namespace goc {

/// Strict unsigned decimal: all of `text` must be digits (no sign, no
/// whitespace, no trailing characters) and the value must fit in 64 bits.
/// Every unsigned number read from a command line or a daemon request goes
/// through here, so "-1" never wraps to 2^64 - 1 and "7x" is never 7.
std::optional<std::uint64_t> parse_u64(std::string_view text) noexcept;

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  const std::string& program() const noexcept { return program_; }

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_i64(const std::string& name, std::int64_t fallback) const;
  std::uint64_t get_u64(const std::string& name, std::uint64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  /// Boolean flags: present without value (or "true"/"1") → true;
  /// "false"/"0" → false.
  bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-option) arguments in order.
  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Option names that were parsed (for validation against a known set).
  std::vector<std::string> option_names() const;

  /// Parsed option names NOT in `known` (sorted, as parsed order is lost
  /// to the map). Empty means every option was recognised; non-empty is
  /// the fail-fast signal — a typo like `--stop-maxx` never silently
  /// falls back to a default again.
  std::vector<std::string> unknown(const std::vector<std::string>& known) const;

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace goc
