"""Tests of the benchmark itself: checkers reject wrong outputs, failures are
counted, and workloads are reproducible.

    python3 -m pytest benchmark/test_bench.py -q
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from curvelab import cli  # noqa: E402

from benchmark import run  # noqa: E402
from benchmark.checks import CheckError, check_case  # noqa: E402
from benchmark.workloads import WORKLOADS, Case, make_cases  # noqa: E402


def _first(workload, sub, pred=lambda c: True):
    return next(c for c in make_cases(workload, 7) if c.sub == sub and pred(c))


def _run_case(case, out_dir):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(case.argv(str(out_dir))) == 0
    return str(out_dir)


def _edit_csv(out_dir, sub, edit):
    path = os.path.join(out_dir, f"{sub}.csv")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0].keys())
    edit(rows)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fields)
        w.writeheader()
        w.writerows(rows)


def _edit_json(out_dir, sub, edit):
    path = os.path.join(out_dir, f"{sub}.json")
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_is_reproducible_and_large_enough_for_p90(workload):
    a, b = make_cases(workload, 3), make_cases(workload, 3)
    assert [c.argv("o") for c in a] == [c.argv("o") for c in b]
    assert [c.argv("o") for c in a] != [c.argv("o") for c in make_cases(workload, 4)]
    assert len(a) >= 100


def test_whitney_dropped_cell_rejected(tmp_path):
    case = _first("kernel-mix", "whitney")
    out = _run_case(case, tmp_path)
    check_case(case, out)
    _edit_csv(out, "whitney", lambda rows: rows[0].update(cells=str(int(rows[0]["cells"]) - 1)))
    with pytest.raises(CheckError, match="Whitney rule"):
        check_case(case, out)


def test_tiles_overlapping_tops_rejected(tmp_path):
    case = _first("kernel-mix", "tiles")
    out = _run_case(case, tmp_path)
    check_case(case, out)

    def overlap(doc):
        forest = doc["flags"]["last_forest"]
        tree = forest["trees"][0]
        parent = {"k": tree["top"]["k"] - 1, "n": tree["top"]["n"] >> 1}
        forest["trees"].append({"top": parent, "tiles": [forest["residual"].pop()] if forest["residual"] else []})

    _edit_json(out, "tiles", overlap)
    with pytest.raises(CheckError, match="overlap"):
        check_case(case, out)


@pytest.mark.parametrize("quadrature", [True, False])
def test_stationary_magnitude_off_by_3_percent_rejected(tmp_path, quadrature):
    case = _first("phase-ladder", "stationary", lambda c: c.meta["quadrature"] == quadrature)
    out = _run_case(case, tmp_path)
    check_case(case, out)

    def scale_top(rows):
        top = max(rows, key=lambda r: int(r["m"]))
        top["normalized"] = repr(float(top["normalized"]) * 1.03)

    _edit_csv(out, "stationary", scale_top)
    with pytest.raises(CheckError):
        check_case(case, out)


def test_apply_T_column_shifted_by_one_step_rejected(tmp_path):
    case = _first("kernel-mix", "apply-T", lambda c: c.meta["grid"][2] == 2049 and c.meta["j"] == 0)
    out = _run_case(case, tmp_path)
    check_case(case, out)

    def shift(rows):
        values = [r["value"] for r in rows]
        for r, v in zip(rows, ["0"] + values[:-1]):
            r["value"] = v

    _edit_csv(out, "apply-T", shift)
    with pytest.raises(CheckError, match="quad"):
        check_case(case, out)


def test_levelset_slope_off_by_005_rejected(tmp_path):
    case = _first("kernel-mix", "levelset")
    out = _run_case(case, tmp_path)
    check_case(case, out)
    _edit_csv(out, "levelset", lambda rows: rows[0].update(fitted_slope=repr(float(rows[0]["fitted_slope"]) + 0.05)))
    with pytest.raises(CheckError, match="slope"):
        check_case(case, out)


@pytest.mark.parametrize("sub", ["apply-M", "vdc", "classify", "rootorder", "sharpness", "inverse", "pairs", "multiplier"])
def test_other_kernel_mix_outputs_pass_their_checks(tmp_path, sub):
    case = _first("kernel-mix", sub)
    check_case(case, _run_case(case, tmp_path))


def test_failed_check_and_failed_exit_are_counted(tmp_path):
    good = _first("kernel-mix", "vdc")
    bad_exit = Case("classify", ("--set", "N=0"))
    cases = [good, good, bad_exit]
    _, _, errors = run.run_round(cli, cases, str(tmp_path / "r0"))
    assert list(errors) == [2]
    _edit_csv(str(tmp_path / "r0" / "1"), "vdc", lambda rows: rows[0].update(measure="0.5"))
    failed = run.check_rounds(cases, [str(tmp_path / "r0")], [errors])
    assert failed == {(0, 1), (0, 2)}
    assert run.verdict(3, len(failed)) == (3, 2, False)


def test_no_checked_case_is_never_success():
    assert run.verdict(0, 0) == (1, 1, False)
    assert run.verdict(4, 4) == (4, 4, False)
    assert run.verdict(4, 0) == (4, 0, True)
