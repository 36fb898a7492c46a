#!/usr/bin/env python3
"""The benchmark's own checks.

    python3 perfbench/selfcheck.py [--seconds 3] [workload ...]

1. BENCHMARK.json is well formed: exactly the required keys, unique names,
   bounds of at most 0.25, and a setup_s metric with the largest bound.
2. Per workload, two untraced runs (same seed) repeat `states`, the pass's
   transition count and the verdict vector (its digest) exactly.
3. A traced run reproduces them: every traced pass is checked against the
   untraced reference inside the run ("consistent"), and model.transitions
   equals the untraced count wherever every walk is metered (all workloads
   but fuzz_campaign, whose battery walks are internal to RunOracleBattery;
   there "consistent" also requires each replayed battery to match its
   replay's memo traffic and state total).
4. Every run's metric names are exactly BENCHMARK.json's (run.py refuses
   otherwise) and every verdict matches its known answer (failed == 0).
Exits non-zero on the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REQUIRED_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def check(condition, message):
    if not condition:
        print(f"selfcheck: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def check_spec(spec):
    check(set(spec) == REQUIRED_KEYS, f"BENCHMARK.json keys {sorted(spec)}")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    check(len(names) == len(set(names)), "duplicate metric or workload names")
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, f"end_to_end keys of {m}")
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"per_layer keys of {m}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s metric")
    check(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s has the largest bound")


def run(workload, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    check(out.returncode == 0, f"{workload} trace={trace}: run.py exited {out.returncode}")
    lines = out.stdout.strip().splitlines()
    info = json.loads(next(l for l in lines if l.startswith("perfbench run: ")).split(": ", 1)[1])
    result = json.loads(lines[-1])
    check(result["correct"] and result["failed"] == 0,
          f"{workload} trace={trace}: verdicts disagree: {info['problems']}")
    return info, result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=3)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    for workload in args.workloads or [w["name"] for w in spec["workloads"]]:
        first, first_result = run(workload, args.seconds, 0)
        second, _ = run(workload, args.seconds, 0)
        for key in ("pass_states", "pass_transitions", "verdict_digest"):
            check(first[key] == second[key],
                  f"{workload}: {key} differs across runs: {first[key]} vs {second[key]}")
        check(first_result["metrics"]["states"]["value"] == first["pass_states"],
              f"{workload}: states metric")
        traced, traced_result = run(workload, args.seconds, 1)
        check(traced["consistent"], f"{workload}: traced pass diverged: {traced['problems']}")
        for key in ("pass_states", "pass_transitions", "verdict_digest"):
            check(traced[key] == first[key], f"{workload}: traced run {key} differs")
        if workload != "fuzz_campaign":
            got = traced_result["metrics"]["model.transitions"]["value"]
            check(got == first["pass_transitions"],
                  f"{workload}: model.transitions {got} vs untraced {first['pass_transitions']}")
        print(f"selfcheck: {workload}: ok (states {first['pass_states']}, transitions "
              f"{first['pass_transitions']}, verdicts {first['verdict_digest']})")
    print("selfcheck: all checks passed")


if __name__ == "__main__":
    main()
