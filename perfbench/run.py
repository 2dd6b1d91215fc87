#!/usr/bin/env python3
"""Builds the benchmark harness from the checkout and runs one workload.

    python3 perfbench/run.py --workload chain-mc --seed 7 --seconds 10 --trace 0

Run it from the root of a repository checkout. It configures and builds
perfbench/ (which builds the repository's library from src/) under
.bench_build/perfbench, runs goc_perfbench, echoes its report and prints,
as the last line, one JSON object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones (0 for a layer the workload does not load).
The exit status is non-zero when any output was wrong or nothing could be
measured.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "goc_perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_build_step(command):
    try:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as error:
        die(f"build step {command[:2]} failed: {error}")
    if done.returncode != 0:
        die(f"build step {' '.join(command)} exited with {done.returncode}")


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        run_build_step(["cmake", "-S", "perfbench", "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", str(BUILD), "--target",
                    "goc_perfbench", "-j", jobs])


def source_digest():
    """Content hash of everything the binary is built from."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for tree in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / tree).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() or "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--lanes", type=int, default=2,
                        help="lanes of every pool the workload uses")
    args = parser.parse_args()

    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        die("run from the root of a repository checkout "
            "(src/ and CMakeLists.txt are missing here)")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        die(f"cannot read BENCHMARK.json: {error}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload!r}")

    build()
    work_dir = BUILD / "run"
    work_dir.mkdir(parents=True, exist_ok=True)
    trace_out = BUILD / "traces" / f"{args.workload}-seed{args.seed}.json"
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--trace={args.trace}", f"--lanes={args.lanes}",
               f"--work-dir={work_dir}",
               f"--trace-out={trace_out}",
               f"--source-digest={source_digest()}", f"--git-sha={git_sha()}"]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        die(f"the workload did not finish within {RUN_TIMEOUT_S} s")

    result = None
    for line in done.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        die(f"goc_perfbench exited with {done.returncode} and no result")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = result["metrics"]
    undeclared = sorted(set(measured) - {m["name"] for m in declared})
    if undeclared:
        die(f"metrics missing from BENCHMARK.json: {undeclared}")
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name in measured:
            value = measured[name]
        elif args.trace:
            value = 0  # a layer this workload does not load
        else:
            die(f"end-to-end metric {name} was not measured")
        metrics[name] = {"value": value, "unit": metric["unit"]}
        print(f"# {name} = {value} {metric['unit']}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}),
          flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
