#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/trajectory.hpp"
#include "util/cli.hpp"

/// \file batch_cli.hpp
/// The shared Monte Carlo batch flags, single-sourced.
///
/// Every surface that fans replicas — the bench harnesses, the examples,
/// and the serve daemon's request parser — accepts the same flag
/// vocabulary and maps it onto `sim::TrajectoryBatchOptions` through this
/// one function:
///
/// ```
/// --replicas=N --threads=N
/// --stop-metric=NAME            engage CI-driven sequential stopping
///   [--stop-tol=X]              95% CI half-width target (default 0)
///   [--stop-rel]                interpret tolerance relative to |mean|
///   [--stop-min=N --stop-max=N --stop-wave=N]
/// --checkpoint=PATH             crash-safe wave-boundary checkpoints
///   [--checkpoint-interval=N]   fixed-R replicas per write (default 16)
/// ```
///
/// Contract: values already present in `options` act as defaults, so
/// callers can pre-seed workload-specific rules — including a pre-seeded
/// `stopping->max_replicas`, which survives unless `--stop-max` is passed
/// explicitly. Only when the caller did *not* pre-seed a stopping rule
/// does `--stop-max` default to `--replicas` ("the same study, adaptive"
/// stays one extra flag).

namespace goc::sim {

/// Applies the shared batch flags onto `options` (see file comment for
/// the grammar and the pre-seeding contract).
void apply_batch_cli(const Cli& cli, TrajectoryBatchOptions& options);

/// The option names `apply_batch_cli` consumes — callers splice these
/// into the known-name list they hand `bench::parse_cli` or
/// `serve::reject_unknown` to fail fast.
const std::vector<std::string>& batch_cli_names();

/// The `--epoch-lanes` flag (`chain::ChainSimOptions::epoch_lanes` /
/// `market::Fig1ReplayParams::epoch_lanes`): 0 = the sequential policy
/// scan, >= 1 = the sharded simultaneous-move decision epoch.
std::size_t epoch_lanes_from_cli(const Cli& cli, std::size_t fallback = 0);

}  // namespace goc::sim
