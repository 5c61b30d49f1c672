#!/usr/bin/env python3
"""Runs the benchmark in sets of N runs per workload, each run with another
seed (set 1: seeds 1..N, set 2: N+1..2N), and prints per end-to-end metric
the median, the quartiles, (max - min) / median and the quartile distance
over the median; with two sets, also how far the second set's median is
worse than the first's.

    python3 benchmark/repeat.py [--runs 10] [--sets 1] [--markdown]

Reads the command, the workloads, the run length, the metrics and their
bounds from BENCHMARK.json at the root of the checkout, and must be started
there.  Exits non-zero when a run fails or is incorrect, or when a cell is
over in one of three ways:

  range   (max - min) / median of the runs of one set exceeds what ISSUE 12
          asks for: 10 %, 15 % for setup_s.  Such a cell is unresolved at the
          issue's bound.
  iqr     the quartile distance over the median exceeds the metric's bound
          in BENCHMARK.json: what the driver rejects a benchmark for (not
          gated on setup_s, as in the driver).
  drift   a later set's median is worse than the first set's by more than
          the metric's bound: the driver's other test.
"""

import argparse
import json
import statistics
import subprocess
import sys


# The run-to-run range ISSUE 12 asks every cell to stay within.
ISSUE_RANGE = {"setup_s": 0.15, "ops_per_s": 0.10, "lat_p50_us": 0.10}


def run_once(manifest, workload, seed):
    argv = manifest["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(manifest["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--markdown", action="store_true")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        manifest = json.load(f)

    over = []
    first_median = {}
    sep = " | " if args.markdown else "  "
    head = ["set", "workload", "metric", "median", "q1", "q3", "range/median",
            "iqr/median", "worse than set 1", "bound", "over"]
    print(sep.join(head))
    if args.markdown:
        print(sep.join("---" for _ in head))
    for s in range(args.sets):
        for w in manifest["workloads"]:
            workload = w["name"]
            runs = [
                run_once(manifest, workload, 1 + s * args.runs + i)
                for i in range(args.runs)
            ]
            for m in manifest["end_to_end"]:
                name, bound = m["name"], m["bound"]
                values = [r[name] for r in runs]
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                iqr = (q3 - q1) / med
                rng = (max(values) - min(values)) / med
                base = first_median.setdefault((workload, name), med)
                worse = (med - base) / base * (1 if m["better"] == "lower" else -1)
                flags = [
                    flag for flag, hit in [
                        ("range", rng > ISSUE_RANGE[name]),
                        ("iqr", name != "setup_s" and iqr > bound),
                        ("drift", worse > bound),
                    ] if hit
                ]
                print(sep.join([
                    str(s + 1), workload, name, f"{med:.6g}", f"{q1:.6g}", f"{q3:.6g}",
                    f"{rng:.1%}", f"{iqr:.1%}", f"{worse:+.1%}" if s else "",
                    f"{bound:.0%}", " ".join(flags),
                ]), flush=True)
                over += [f"set {s + 1} {workload}/{name}: {flag}" for flag in flags]
    if over:
        sys.exit("over the bound: " + "; ".join(over))


if __name__ == "__main__":
    main()
