#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "core/generators.hpp"
#include "dynamics/scheduler.hpp"
#include "util/cli.hpp"

/// \file request.hpp
/// Parsing for the serve daemon's line protocol.
///
/// A request line is whitespace-separated tokens: a verb, then the same
/// `--name=value` / `--name value` / `--flag` option syntax every binary
/// in this repo speaks — the tokens are handed to `goc::Cli` verbatim, so
/// the daemon's flags parse (and fail) exactly like the CLI's, and
/// `Cli::unknown` gives the same fail-fast typo rejection. No quoting:
/// values cannot contain whitespace (none of the option surface needs it).

namespace goc::serve {

/// Longest run of client text (a verb, a job kind, a job id, a flag
/// value) that an `err` line echoes; `echo` cuts longer text and marks the
/// cut.
inline constexpr std::size_t kEchoBytes = 80;

/// `text` as an `err` line echoes it: unchanged up to `limit` bytes, else
/// its first `limit` bytes followed by "...(+N bytes)".
std::string echo(std::string_view text, std::size_t limit = kEchoBytes);

/// Splits a protocol line on runs of spaces/tabs; a trailing '\r' (CRLF
/// clients over TCP) is stripped first.
std::vector<std::string> tokenize(const std::string& line);

/// Builds a `Cli` over `args` with `program` as argv[0] (so option-error
/// messages name the command that failed).
Cli cli_from_tokens(const std::string& program,
                    const std::vector<std::string>& args);

/// Throws std::invalid_argument naming every option of `cli` outside
/// `known` and every positional token (no request takes one after its
/// verb, kind or job id), each cut by `echo` — the protocol's fail-fast
/// guard, the same rule as the binaries' `Cli::refuse_unknown`.
void reject_unknown(const Cli& cli, const std::vector<std::string>& known);

/// The non-empty items of a comma-separated list ("a,,b" → {a, b});
/// empty string → empty vector.
std::vector<std::string> split_list(const std::string& text);

/// Comma-separated u64 list ("16,64,256"); empty string → empty vector.
std::vector<std::size_t> parse_size_list(const std::string& text,
                                         const std::string& what);

/// Shape / scheduler names, inverse to `power_shape_name` /
/// `reward_shape_name` / `scheduler_kind_name`. Throw
/// std::invalid_argument on an unknown name (listing the valid ones).
PowerShape power_shape_from_name(const std::string& name);
RewardShape reward_shape_from_name(const std::string& name);
SchedulerKind scheduler_kind_from_name(const std::string& name);

}  // namespace goc::serve
