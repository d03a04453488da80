#!/usr/bin/env python3
"""perfbench: end-to-end and per-module timing of the SPHINX reproduction.

    python3 perfbench/run.py --workload fig5|fig3|chaos --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds the
library and the unit program (perfbench/src) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only re-check the build.

A run has two inputs: the workload's canonical one (the DAG stream of the
figure benches, or the seed of the chaos gate in tools/check.sh) and one
derived from N.  It executes each input the same number of times, in
turn, every execution in a fresh process.  That number follows from S
and the workload's nominal execution time alone, so two commits run with
the same S take their minima over the same number of executions.

Every execution of an input does identical work in the same granules,
and each granule is followed by one pass of a fixed probe loop
(probe_pass_ms in src/main.cpp) that slows down when the host does.  An
input's time sums, over its granules, the fastest time any execution
took for the granule times PROBE_REFERENCE_MS over the fastest probe
pass after it: the granule's time on a host where a pass takes
PROBE_REFERENCE_MS.  wall_s is the mean over the two inputs.  Every
execution of an input must produce the same output digest and pass the
workload's correctness checks.

The last line of stdout is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones (wall_s, peak_rss_mb,
setup_s); with --trace 1 they are per-module times from the sampling
profiler, each module's share of the samples times wall_s, plus
journal_records.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig5", "fig3", "chaos")
# Canonical input of each workload: seed 0 is the figure benches' own DAG
# stream (workload_stream in src/main.cpp); 7 seeds the chaos gate's
# campaign in tools/check.sh.
CANONICAL_SEED = {"fig5": 0, "fig3": 0, "chaos": 7}
# Seconds one execution takes on the reference host (a 4-vCPU Xeon VM),
# process start and probe passes included.  It only sets how many
# executions a run makes; changing it changes what a run measures.
NOMINAL_EXECUTION_S = {"fig5": 10.0, "fig3": 1.4, "chaos": 0.2}
# A probe pass on the reference host at its fastest.
PROBE_REFERENCE_MS = 2.5
# Modules reported per layer: src/profiler.hpp's kLayers without
# "harness" (experiment set-up, chaos harness, workload generation).
LAYERS = ("engine", "db", "warehouse", "planner", "server", "client", "data",
          "rpc", "obs", "grid")
EXECUTION_TIMEOUT_S = 60


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the unit program; returns its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    out = target / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    steps = []
    if not (out / "build.ninja").exists() and not (out / "Makefile").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_unit",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(step)} (log: {log_path})")
    return out / "perfbench_unit"


def input_seed(seed):
    """Well-mixed seed in 16 .. 2**31-1, so nearby run seeds give unrelated
    inputs and none overlaps a canonical one (a chaos input uses s .. s+7)."""
    z = (seed * 0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return (z ^ (z >> 31)) % (2**31 - 16) + 16


def execute(binary, workload, seed, trace):
    """Runs one execution; returns its JSON record, or None on failure."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--profile")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=EXECUTION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} seed {seed} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: {workload} seed {seed} exited {proc.returncode}: "
              f"{proc.stderr.strip()}", file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print(f"perfbench: {workload} seed {seed}: unreadable output",
              file=sys.stderr)
        return None


def check(records):
    """Problems across the executions of one input (empty when sound)."""
    problems = [p for record in records for p in record["problems"]]
    first = records[0]
    for record in records[1:]:
        if record["digest"] != first["digest"]:
            problems.append("two executions of the same input produced "
                            "different outputs")
        if len(record["granule_ms"]) != len(first["granule_ms"]):
            problems.append("two executions timed different granule counts")
    return problems


def input_wall_s(records):
    """Sum over granules of the fastest time any execution took for the
    granule, scaled by PROBE_REFERENCE_MS over the fastest probe pass any
    execution made right after it."""
    granules = zip(*(r["granule_ms"] for r in records))
    probes = zip(*(r["probe_ms"] for r in records))
    return sum(min(times) * PROBE_REFERENCE_MS / min(passes)
               for times, passes in zip(granules, probes)) / 1e3


def metrics_of(runs, trace):
    """Metrics of a run; `runs` holds each input's executions."""
    wall_s = statistics.mean(input_wall_s(records) for records in runs)
    everything = [record for records in runs for record in records]
    if not trace:
        setups = [t * PROBE_REFERENCE_MS / probe for r in everything
                  for t, probe in zip(r["setup_ms"], r["setup_probe_ms"])]
        return {
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (statistics.median(
                r["peak_rss_mb"] for r in everything), "MB"),
            "setup_s": (statistics.median(setups) / 1e3, "s"),
        }
    sampled = sum(sum(r["layer_ms"].values()) for r in everything)
    metrics = {}
    for layer in LAYERS:
        share = sum(r["layer_ms"][layer] for r in everything) / sampled
        metrics[f"{layer}_ms"] = (1e3 * wall_s * share, "ms")
    metrics["journal_records"] = (statistics.mean(
        records[0]["journal_records"] for records in runs), "count")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    seeds = [CANONICAL_SEED[args.workload], input_seed(args.seed)]
    executions = max(1, round(
        args.seconds / (len(seeds) * NOMINAL_EXECUTION_S[args.workload])))
    runs = {seed: [] for seed in seeds}
    attempted = failed = 0
    problems = []
    for _ in range(executions):
        for seed in seeds:
            record = execute(binary, args.workload, seed, args.trace)
            if record is None:
                attempted, failed = attempted + 1, failed + 1
                problems.append(f"seed {seed}: an execution failed")
                break
            runs[seed].append(record)
            attempted += record["attempted"]
            failed += record["failed"]
        if problems:
            break

    for seed, records in runs.items():
        problems += [f"seed {seed}: {p}" for p in check(records)] if records else []
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    complete = all(len(records) == executions for records in runs.values())
    if complete and args.trace and not any(
            sum(r["layer_ms"].values()) for records in runs.values() for r in records):
        problems.append("the profiler took no samples")
        complete = False
    metrics = metrics_of(runs.values(), args.trace) if complete else {}
    if complete:
        probes = [p for records in runs.values() for r in records
                  for p in r["probe_ms"]]
        print(f"perfbench: {args.workload}: {executions} executions of seeds "
              f"{seeds}; median probe pass {statistics.median(probes):.3f} ms "
              f"(reference {PROBE_REFERENCE_MS} ms)", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": complete and not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
