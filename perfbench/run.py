#!/usr/bin/env python3
"""End-to-end verification benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench_e2e from the checkout's sources (Release, into
$CARGO_TARGET_DIR or .bench_build), runs one workload for --seconds, checks
every verdict and every count, and prints one JSON object as the last line of
stdout: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones (and
writes a Chrome trace-event file under the build directory). Lines before
the last one carry the host fingerprint, sample counts and the verdict digest.
Exits non-zero, printing no result, when the build fails, the binary fails or
times out, or the metric names differ from BENCHMARK.json. A wrong verdict, an
oracle disagreement or a pass that diverged from the first one still prints
the metrics, with "correct": false.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170  # limit on the measuring binary; the build is not counted


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build():
    out = os.path.join(build_root(), "perfbench")
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4", "--target", "perfbench_e2e"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "perfbench_e2e")


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def end_to_end(report):
    # Every timing is the best of the run: each input's fastest wall and CPU
    # time over the passes (every pass times the same inputs in the same
    # order). Other tenants' load only ever slows a timing down, in spells of
    # seconds to minutes on a shared host, so a median over one run's passes
    # follows the host while the fastest repeat follows the program (see
    # README.md). A pass's wall and CPU time are the sums over its inputs.
    best_ms = [min(times) for times in zip(*report["verdict_ms"])]
    best_cpu_ms = [min(times) for times in zip(*report["verdict_cpu_ms"])]
    states = report["pass_states"]
    return {
        "states_per_s": states / (sum(best_ms) / 1e3),
        "verdict_ms_p50": statistics.median(best_ms),
        "verdict_ms_p90": nearest_rank(best_ms, 0.9),
        "cpu_s": sum(best_cpu_ms) / 1e3,
        "setup_s": statistics.median(report["setup_s"]),
        "peak_rss_mb": report["peak_rss_mb"],
        "states": states,
    }


def per_layer(report):
    metrics = {}
    for name in report["layers"][0]:
        metrics[name] = statistics.median(row[name] for row in report["layers"])
    metrics["verdict.definitive_share"] = report["definitive"] / report["attempted"]
    metrics["verdict.failed_share"] = report["failed"] / report["attempted"]
    metrics["trace.overhead_s"] = min(report["traced_wall_s"]) - min(report["pass_wall_s"])
    metrics["trace.replay_s"] = statistics.median(report["replay_s"])
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills the running build
    # step or binary and waits for it before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    binary = build()
    started = time.monotonic()
    trace_file = os.path.join(build_root(), "traces",
                              f"{args.workload}-seed{args.seed}.json")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.dirname(trace_file), exist_ok=True)
        command += ["--trace-out", trace_file]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {DEADLINE_S} s")
    if run.returncode != 0:
        fail(f"perfbench_e2e exited with {run.returncode}")
    report = json.loads(run.stdout.strip().splitlines()[-1])

    values = per_layer(report) if args.trace else end_to_end(report)
    if set(values) != set(units):
        fail("metric names differ from BENCHMARK.json: produced-only "
             f"{sorted(set(values) - set(units))}, declared-only "
             f"{sorted(set(units) - set(values))}")

    inputs = len(report["verdict_ms"][0])
    digest = hashlib.sha256(report["verdicts"].encode()).hexdigest()[:16]
    print("perfbench host: " + json.dumps(report["host"]))
    print("perfbench run: " + json.dumps({
        "workload": args.workload, "trace": args.trace,
        "passes": len(report["pass_wall_s"]),
        "traced_passes": len(report["traced_wall_s"]),
        "verdict_inputs": inputs,
        "timings_per_input": len(report["verdict_ms"]),
        "inputs_beyond_p90": inputs - math.ceil(0.9 * inputs),
        "failed_share": report["failed"] / report["attempted"],
        "definitive_share": report["definitive"] / report["attempted"],
        "pass_states": report["pass_states"],
        "pass_transitions": report["pass_transitions"],
        "verdict_digest": digest,
        "consistent": report["consistent"],
        "problems": report["problems"],
        "wall_s": round(time.monotonic() - started, 3),
    }))
    if args.trace:
        print("perfbench per_layer: " + json.dumps(
            {"workload": args.workload, "trace_file": os.path.relpath(trace_file, ROOT),
             "metrics": values}))
    print(json.dumps({
        "correct": bool(report["consistent"] and report["failed"] == 0),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))


if __name__ == "__main__":
    main()
