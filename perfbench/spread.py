#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the command of BENCHMARK.json once per seed on each workload and
reports, for every end-to-end metric, the median over the runs and the
interquartile range as a share of it (``statistics.quantiles(n=4)``),
next to the metric's bound.  A spread at or above a third of the bound is
flagged, on every metric.

Run from the repository root:

    python3 perfbench/spread.py --seeds 10 [--workload NAME ...] [--out FILE]

``--out`` appends one JSON line per run (workload, seed, result and the
environment stamp printed before it), so two sets can be compared later
with ``--compare A B``.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def summarize(bench, rows):
    """rows: list of (workload, result) pairs; prints and returns bad count."""
    bad = 0
    metrics = bench["end_to_end"]
    for w in dict.fromkeys(wl for wl, _ in rows):
        results = [r for wl, r in rows if wl == w]
        print(f"{w}: {len(results)} runs, "
              f"{sum(r['failed'] for r in results)} failed of "
              f"{sum(r['attempted'] for r in results)} attempted, "
              f"correct={all(r['correct'] for r in results)}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med, sp = spread(values)
            limit = m["bound"] / 3
            flag = "" if sp < limit else "  <-- not steady"
            bad += bool(flag)
            print(f"  {m['name']:<14} median {med:<14.6g} spread {sp:.4f}  (bound/3 {limit:.4f}){flag}")
    return bad


def compare(bench, first, second):
    """Second-set medians may be worse than the first by at most the bound."""
    worse = 0
    for w in dict.fromkeys(wl for wl, _ in first):
        for m in bench["end_to_end"]:
            a = statistics.median(r["metrics"][m["name"]]["value"] for wl, r in first if wl == w)
            b = statistics.median(r["metrics"][m["name"]]["value"] for wl, r in second if wl == w)
            change = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "  <-- worse than bound" if change > m["bound"] else ""
            worse += bool(flag)
            print(f"{w:<14} {m['name']:<14} {a:<12.6g} -> {b:<12.6g} worse by {change:+.4f} "
                  f"(bound {m['bound']}){flag}")
    return worse


def read_rows(path):
    with open(path) as f:
        return [(row["workload"], row["result"]) for row in map(json.loads, f)]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    bench = load_benchmark()
    if args.compare:
        sys.exit(1 if compare(bench, read_rows(args.compare[0]), read_rows(args.compare[1])) else 0)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    rows = []
    for w in workloads:
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, stamp = run_once(bench, w, seed, 0)
            rows.append((w, result))
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": w, "seed": seed, "result": result, "stamp": stamp}) + "\n")
    sys.exit(1 if summarize(bench, rows) else 0)


if __name__ == "__main__":
    main()
