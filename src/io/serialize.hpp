#pragma once

#include <string>
#include <utility>
#include <vector>

#include "util/table.hpp"

/// \file serialize.hpp
/// Table emission for the benchmark harnesses, the examples and the
/// daemon, plus the crash-safe file write behind every artifact. We only
/// ever *write* JSON (plots and trajectory tracking consume it); there is
/// deliberately no parser here.

namespace goc::io {

/// Escapes a string for inclusion inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string json_escape(const std::string& text);

/// Renders a table as `{"title": ..., "headers": [...], "rows": [[...]]}`.
/// Cells are emitted as JSON strings (tables are already formatted text).
std::string table_to_json(const Table& table, const std::string& title);

/// Same document plus trailing top-level members: each (key, value) pair
/// appends `"key": value`, where `value` is spliced in verbatim as raw
/// JSON (the caller quotes strings; numbers go in bare). The benches use
/// this to stamp peak RSS and total wall time into every `--json` file.
std::string table_to_json(
    const Table& table, const std::string& title,
    const std::vector<std::pair<std::string, std::string>>& extras);

/// Crash-safe write: `content` (text or binary) goes to `path + ".tmp"`,
/// is flushed to stable storage (fsync), then renamed over `path` — on a
/// POSIX filesystem readers observe either the old file or the complete
/// new one, never a torn mix. Used for every artifact whose partial state
/// is worse than its absence: replay checkpoints, golden recordings, and
/// the benches' `BENCH_*.json` perf baselines. Throws std::runtime_error
/// on I/O failure (the tmp file is removed on the failure paths that
/// leave one behind).
void atomic_write_file(const std::string& content, const std::string& path);

}  // namespace goc::io
