"""Run one benchmark workload against curvelab's CLI and print its metrics.

    python3 benchmark/run.py --workload kernel-mix --seed 1 --seconds 22 --trace 0

Run from the root of a curvelab checkout.  Every case is one in-process
`curvelab.cli.main` call writing its CSV and JSON under .bench_out/.  Rounds
over the workload's fixed cases repeat while the time allows; each round is
timed as a whole and every invocation on its own.  Outputs are checked after
the timed rounds.  With --trace 1, untraced and traced rounds alternate and
the per-layer metrics come from the traced ones.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  Metric names and units are read from
BENCHMARK.json.  The exit code is 0 when every case passed, 1 when any failed
and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import os

# fixed before numpy loads: one BLAS thread, one curvelab worker
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "CURVELAB_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3  # before the timed rounds, and again after them

# one whole set-up in a fresh interpreter, timed from before the first import
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import sys; from benchmark.run import prepare; "
    "prepare(sys.argv[1], int(sys.argv[2]), sys.argv[3]); print(time.perf_counter() - t)"
)


def fail(msg):
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(2)


def invoke(cli, case, out_dir):
    """One CLI call; returns (exit code, error text)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(case.argv(out_dir))
    except Exception:
        return -1, traceback.format_exc(limit=3)
    return rc, sink.getvalue() if rc else ""


def run_round(cli, cases, out_dir):
    """Invoke every case once; returns (round seconds, per-case seconds, errors)."""
    times, errors = [], {}
    start = time.perf_counter()
    for i, case in enumerate(cases):
        t0 = time.perf_counter()
        rc, err = invoke(cli, case, os.path.join(out_dir, str(i)))
        times.append(time.perf_counter() - t0)
        if rc != 0:
            errors[i] = f"exit {rc}: {err.strip()[-300:]}"
    return time.perf_counter() - start, times, errors


def prepare(workload, seed, warm_dir):
    """Import curvelab.cli, generate the cases and make one warm-up call per
    subcommand; returns (cli module, cases)."""
    import curvelab.cli as cli
    from benchmark.workloads import make_cases

    cases = make_cases(workload, seed)
    firsts = {}
    for case in cases:
        firsts.setdefault(case.sub, case)
    # a failing warm-up is not fatal: the timed rounds count the failure
    for sub, case in firsts.items():
        invoke(cli, case, os.path.join(warm_dir, sub))
    return cli, cases


def setup_seconds(workload, seed, warm_dir):
    """Time SETUP_REPEATS whole set-ups, each in a fresh interpreter, so that
    every one pays the import and the first calls."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, ROOT]))
    totals = []
    for rep in range(SETUP_REPEATS):
        cmd = [sys.executable, "-c", SETUP_PROBE, workload, str(seed), f"{warm_dir}-{rep}"]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"set-up failed: {proc.stderr.strip().splitlines()[-1:]}")
        totals.append(float(proc.stdout.strip().splitlines()[-1]))
    return totals


def check_rounds(cases, round_dirs, errors):
    """Check the first round's outputs against references; later rounds must
    write the same CSV bytes.  Returns the set of (round, case) that failed."""
    from benchmark.checks import CheckError, check_case

    failed = {(r, i) for r, errs in enumerate(errors) for i in errs}
    first = {}
    for r, rdir in enumerate(round_dirs):
        for i, case in enumerate(cases):
            if (r, i) in failed:
                continue
            out = os.path.join(rdir, str(i))
            try:
                with open(os.path.join(out, f"{case.sub}.csv"), "rb") as fh:
                    data = fh.read()
                if first.get(i) == data:
                    continue
                check_case(case, out)
                first.setdefault(i, data)
            except Exception as exc:  # a malformed output fails its case, not the run
                failed.add((r, i))
                detail = repr(exc) if isinstance(exc, CheckError) else traceback.format_exc(limit=3)
                print(f"benchmark: round {r} case {i} ({case.sub} {' '.join(case.args)}): {detail}", file=sys.stderr)
    return failed


def verdict(attempted, failed):
    """(attempted, failed, correct): a run that checked no case passes nothing."""
    if attempted - failed <= 0:
        return max(attempted, 1), max(attempted, 1), False
    return attempted, failed, failed == 0


def percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_values(summary, counts, n_spans):
    """Flatten one traced round into per-layer metric values."""
    out = dict(counts, **{"trace.spans": n_spans})
    for name, rec in summary.items():
        out[f"{name}.self_s"] = rec["self_s"]
        out[f"{name}.calls"] = rec["calls"]
    osc = [rec["calls"] for name, rec in summary.items() if name.startswith("oscillatory.oscillatory_integral.")]
    out["oscillatory.oscillatory_integral.calls"] = sum(osc)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "curvelab", "cli.py")):
        fail(f"no curvelab sources under {SRC}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    sys.path[:0] = [SRC, ROOT]
    from benchmark.tracer import Tracer

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir = os.path.join(OUT, tag)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    # the machine's speed drifts over seconds, so set-up is also timed after
    # the rounds and setup_s is the median of both batches
    warm_dir = os.path.join(run_dir, "warmup")
    setup_times = setup_seconds(args.workload, args.seed, os.path.join(warm_dir, "a"))
    cli, cases = prepare(args.workload, args.seed, os.path.join(warm_dir, "main"))

    # timed rounds: plain only, or plain and traced alternating
    kinds = ["plain", "traced"] if args.trace else ["plain"]
    rounds = {k: [] for k in kinds}
    round_dirs, errors, times = [], [], []
    layer_rounds = []
    tracer = Tracer()
    spans_path = os.path.join(run_dir, "spans.csv")
    span_offset = 0
    spent = 0.0
    while True:
        for kind in kinds:
            rdir = os.path.join(run_dir, f"round{len(round_dirs)}")
            if kind == "traced":
                tracer.reset()
                tracer.install()
            try:
                total, case_times, errs = run_round(cli, cases, rdir)
            finally:
                tracer.uninstall()
            if kind == "traced":
                layer_rounds.append(layer_values(tracer.summary(), tracer.counts, len(tracer.start)))
                span_offset = tracer.write_spans(spans_path, span_offset)
            else:
                times += case_times
            rounds[kind].append(total)
            round_dirs.append(rdir)
            errors.append(errs)
            spent += total
        per_cycle = sum(statistics.median(v) for v in rounds.values())
        if spent + per_cycle > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(setup_times + setup_seconds(args.workload, args.seed, os.path.join(warm_dir, "b")))

    failed_cases = check_rounds(cases, round_dirs, errors)
    for r, errs in enumerate(errors):
        for i, err in errs.items():
            print(f"benchmark: round {r} case {i} ({cases[i].sub}): {err}", file=sys.stderr)
    attempted, failed, correct = verdict(len(cases) * len(round_dirs), len(failed_cases))

    plain_s = statistics.median(rounds["plain"])
    if args.trace:
        traced_s = statistics.median(rounds["traced"])
        merged = {}
        for vals in layer_rounds:
            for k, v in vals.items():
                merged.setdefault(k, []).append(v)
        layer = {k: statistics.median(v) for k, v in merged.items()}
        layer["trace.overhead_s"] = traced_s - plain_s
        accounted = sum(v for k, v in layer.items() if k.endswith(".self_s") and not k.startswith("trace."))
        with open(os.path.join(run_dir, "layers.json"), "w") as fh:
            json.dump({"traced_run_s": traced_s, "plain_run_s": plain_s, "self_s_sum": accounted, "layers": layer}, fh, indent=1)
        print(f"benchmark: traced round {traced_s:.3f} s, self times sum to {accounted:.3f} s", file=sys.stderr)
        metrics = {
            m["name"]: {"value": layer.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]
        }
    else:
        ms = [t * 1e3 for t in times]
        values = {
            "run_s": plain_s,
            "case_p50_ms": percentile(ms, 0.5),
            "case_p90_ms": percentile(ms, 0.9),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}

    for rdir in round_dirs + [warm_dir]:
        shutil.rmtree(rdir, ignore_errors=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
