#!/usr/bin/env python3
"""Compares a bench run's JSON table with its committed baseline.

    python3 bench/gate.py RUN.json BASELINE.json

The baseline's file name selects its deterministic columns below; their
cells must equal the baseline's, row by row. Other columns are timings and
are printed, not compared. Exits 1 on any difference, a missing file or
column, or a baseline with no entry here.
"""

import json
import os
import sys

COLUMNS = {
    "BENCH_chain_validation.churn.json": [
        "policy", "migrations", "late_share_changes", "bch_share_sd%"],
    "BENCH_chain_validation.share.json": [
        "horizon_days", "replicas", "stop", "blocks_mean", "share_MAE_mean",
        "share_MAE_ci95", "largest_realized_mean", "largest_power_share"],
    "BENCH_chain_validation.split.json": [
        "weights", "equilibrium_heavy_share", "simulated_heavy_share"],
    "BENCH_convergence.json": [
        "miners", "coins", "powers", "rewards", "scheduler", "trials",
        "converged%", "steps_mean", "steps_p95", "steps_max", "steps/n",
        "welfare_mean", "fairness_mean", "dom_share_mean"],
    "BENCH_des.json": ["workload", "events", "trajectory hash"],
    "BENCH_des.batch.json": [
        "metric", "mean", "ci95", "sd", "min", "max", "replicas"],
    "BENCH_des.adaptive.json": ["case", "mode", "n", "gain", "detail", "ok"],
    "BENCH_enumeration.json": ["workload", "games", "configs", "identical"],
    "BENCH_fig1_market.replay.json": [
        "phase", "avg_bch_hash_share%", "ci95", "min", "max"],
    "BENCH_fig1_market.series.json": [
        "day", "btc_price", "bch_price", "bch/btc", "btc_hash%", "bch_hash%",
        "at_eq"],
    "BENCH_fig1_market.summary.json": ["phase", "bch_hash_share%"],
    "BENCH_micro.hotloop.json": ["path", "miners", "coins", "steps"],
    "BENCH_micro.ops.json": ["op", "iters"],
}

# A column deterministic on some rows only: (file, column) -> those rows.
ROWS = {
    # The epoch rows' `gain` is a wall-clock speedup.
    ("BENCH_des.adaptive.json", "gain"):
        lambda row: row["case"].startswith("stopping"),
}


def main(run_path, base_path):
    name = os.path.basename(base_path)
    if name not in COLUMNS or not os.path.exists(run_path):
        print(f"FAIL {name}: no column list in gate.py or no {run_path}")
        return 1
    docs = [json.load(open(path)) for path in (run_path, base_path)]
    failed = False
    for path, doc in zip((run_path, base_path), docs):
        missing = [c for c in COLUMNS[name] if c not in doc["headers"]]
        if missing:
            failed = True
            print(f"FAIL {path}: no column(s) {missing}")
    run, base = ([dict(zip(d["headers"], row)) for row in d["rows"]]
                 for d in docs)
    if len(run) != len(base):
        failed = True
        print(f"FAIL {name}: {len(run)} rows vs {len(base)} in the baseline")
    for i, (r, b) in enumerate(zip(run, base)):
        label = f"{name} row {i} ({next(iter(b.values()), '')})"
        timings = []
        for col in (c for c in b if c in r):
            if col not in COLUMNS[name] or not ROWS.get(
                    (name, col), lambda row: True)(b):
                timings.append(f"{col}={r[col]} (baseline {b[col]})")
            elif r[col] != b[col]:
                failed = True
                print(f"FAIL {label} {col}: run={r[col]} baseline={b[col]}")
        if timings:
            print(f"     {label}: " + ", ".join(timings))
    print(f"{'FAIL' if failed else 'ok  '} {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip())
    sys.exit(main(*sys.argv[1:]))
