"""Steadiness check: two sets of runs of the same code, compared per metric.

    python3 benchmark/steady.py [--workloads a,b]

For each workload, runs of set A (seeds 1000+i) and set B (seeds 1500+i)
alternate, then one traced run follows.  For every end-to-end metric it
prints both medians, their quartiles, the spread (q3 - q1) / median of each
set, and whether both spreads and the gap between the medians, either way,
are within the metric's bound.  It also compares the share of failed cases
between the sets and prints the traced run's non-zero per-layer metrics.
Every run's JSON goes to .bench_out/steady/.  The exit code is 1 when a
spread exceeds its bound, medians disagree or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out", "steady")
BASE_SEED = 1000
RUNS = 10  # per set


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join("benchmark", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no result (exit {proc.returncode}): {proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)

    ok = True
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(RUNS):
            for name, offset in (("A", 0), ("B", 500)):
                sets[name].append(run_once(workload, BASE_SEED + offset + i, spec["run_seconds"]))
        print(f"\n{workload}: {RUNS} runs per set")
        print(f"  {'metric':14s} {'median A':>10s} {'q1..q3 A':>21s} {'spread A':>9s} "
              f"{'median B':>10s} {'q1..q3 B':>21s} {'spread B':>9s} {'B-A':>7s} {'bound':>6s} agree")
        for m in spec["end_to_end"]:
            row = {}
            for name, results in sets.items():
                row[name] = stats([r["metrics"][m["name"]]["value"] for r in results])
            (ma, qa1, qa3, sa), (mb, qb1, qb3, sb) = row["A"], row["B"]
            shift = (mb - ma) / ma
            agree = max(abs(shift), sa, sb) <= m["bound"]
            ok &= agree
            print(f"  {m['name']:14s} {ma:10.4f} {qa1:10.4f}..{qa3:<10.4f} {sa:9.2%} "
                  f"{mb:10.4f} {qb1:10.4f}..{qb3:<10.4f} {sb:9.2%} {shift:+7.2%} {m['bound']:6.0%} {'yes' if agree else 'NO'}")
        shares = {name: {r["failed"] / r["attempted"] for r in results} for name, results in sets.items()}
        failed_ok = shares["A"] == shares["B"] == {0.0} and all(r["correct"] for rs in sets.values() for r in rs)
        ok &= failed_ok
        print(f"  failed share A {sorted(shares['A'])} B {sorted(shares['B'])}: {'ok' if failed_ok else 'NOT OK'}")
        traced = run_once(workload, BASE_SEED, spec["run_seconds"], trace=1)
        ok &= traced["correct"]
        print("  traced run, per-layer metrics that are not 0:")
        for name, m in traced["metrics"].items():
            if m["value"]:
                print(f"    {name:55s} {m['value']:12.4f} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
