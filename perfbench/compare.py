#!/usr/bin/env python3
"""Compares two sets of perfbench/run.py outputs (captured stdout).

    python3 perfbench/compare.py base1.txt base2.txt ... -- new1.txt new2.txt ...

Refuses (exit 2) to compare timings across host fingerprints: every file must
report the same CPU count, CPU model, compiler and build type, one workload
and one trace mode, and both sides the same seeds. Prints each metric's
median per side, the change, and whether it stays within BENCHMARK.json's
bound (end-to-end metrics only; per-layer metrics have none).
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_KEYS = ("cpus", "cpu_model", "compiler", "build_type")


def load(path):
    host = run = result = None
    with open(path) as f:
        for line in f:
            if line.startswith("perfbench host: "):
                host = json.loads(line.split(": ", 1)[1])
            elif line.startswith("perfbench run: "):
                run = json.loads(line.split(": ", 1)[1])
            elif line.startswith("{"):
                result = json.loads(line)
    if host is None or run is None or result is None:
        sys.exit(f"compare: {path} is not a perfbench/run.py output")
    return host, run, result


def refuse(message):
    print(f"compare: refusing: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    args = sys.argv[1:]
    if "--" not in args:
        sys.exit(__doc__)
    split = args.index("--")
    sides = [[load(p) for p in args[:split]], [load(p) for p in args[split + 1:]]]
    if not sides[0] or not sides[1]:
        sys.exit(__doc__)
    runs = sides[0] + sides[1]
    fingerprint = {k: runs[0][0][k] for k in HOST_KEYS}
    for host, run, _ in runs:
        if {k: host[k] for k in HOST_KEYS} != fingerprint:
            refuse(f"host fingerprints differ: {fingerprint} vs "
                   f"{ {k: host[k] for k in HOST_KEYS} }")
        if (run["workload"], run["trace"]) != (runs[0][1]["workload"], runs[0][1]["trace"]):
            refuse("files mix workloads or trace modes")
    seeds = [sorted(host["seed"] for host, _, _ in side) for side in sides]
    if seeds[0] != seeds[1]:
        refuse(f"seed sets differ: {seeds[0]} vs {seeds[1]}")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {runs[0][1]['workload']}, host {fingerprint}, seeds {seeds[0]}")
    for name in runs[0][2]["metrics"]:
        a, b = (statistics.median(r["metrics"][name]["value"] for _, _, r in side)
                for side in sides)
        metric = declared[name]
        change = (b - a) / a if a else float("nan")
        worse = -change if metric["better"] == "higher" else change
        verdict = ""
        if "bound" in metric:
            verdict = "REGRESSION" if worse > metric["bound"] else "within bound"
        print(f"  {name:40s} {a:14.6g} -> {b:14.6g}  {change:+8.2%}  {verdict}")


if __name__ == "__main__":
    main()
