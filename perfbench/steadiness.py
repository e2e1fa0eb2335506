#!/usr/bin/env python3
"""Steadiness report: repeated, interleaved runs of every workload.

    python3 perfbench/steadiness.py [--runs 10] [--seed 1]
                                    [--distinct-seeds] [--trace 0|1]

Runs perfbench/run.py --runs times per workload of BENCHMARK.json, for
its run_seconds, cycling through the workloads so that a slow host
window hits every workload alike. Every run uses --seed, so the spread
is the host's and the program's alone; with --distinct-seeds run i uses
seed + i, so the spread also holds the variation of the drawn problems
between seeds. For every metric and workload it prints the median, the
first and third quartiles (Python's statistics.quantiles(values, n=4))
and the spread (Q3 - Q1) / median, marks the metrics BENCHMARK.json
gives a bound, and whether the spread stays below a third of that
bound. It also prints each run's host record (spin-loop timing before
and after, hypervisor steal) so a slow host window shows as such. The
full report is written to .bench_build/steadiness-<seeds>-<trace>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    host = next((json.loads(l[len("host: "):]) for l in lines
                 if l.startswith("host: ")), {})
    return json.loads(lines[-1]), host


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--distinct-seeds", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    runs = []
    for i in range(args.runs):
        for w in workloads:
            seed = args.seed + i if args.distinct_seeds else args.seed
            result, host = one_run(w, seed, seconds, args.trace)
            runs.append({"workload": w, "seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"], "host": host})
            for m in metrics:
                values[w][m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"run {i + 1}/{args.runs} {w} seed {seed}: correct "
                  f"{result['correct']} attempted {result['attempted']} failed "
                  f"{result['failed']} spin {host.get('spin_before_ms', 0):.2f}/"
                  f"{host.get('spin_after_ms', 0):.2f} ms steal "
                  f"{host.get('steal_share', 0):.3f}", flush=True)

    rows = []
    print(f"\n{'workload':<14} {'metric':<30} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>8} {'bound':>6} gated  steady")
    for w in workloads:
        for m in metrics:
            vals = values[w][m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], vals[0], vals[0]))
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = m.get("bound")
            gated = bound is not None
            steady = None if bound is None else spread < bound / 3
            rows.append({"workload": w, "metric": m["name"], "median": med,
                         "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                         "gated": gated, "steady": steady, "values": vals})
            print(f"{w:<14} {m['name']:<30} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {'' if bound is None else bound:>6} "
                  f"{'yes' if gated else 'no ':<5}  "
                  f"{'-' if steady is None else ('yes' if steady else 'NO')}")
    seeds = "distinct" if args.distinct_seeds else "fixed"
    out = os.path.join(ROOT, ".bench_build",
                       f"steadiness-{seeds}-{args.trace}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump({"seconds": seconds, "seeds": seeds, "runs": runs,
                   "rows": rows}, f, indent=1)
    print(f"\nreport written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
