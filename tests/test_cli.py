import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import curvelab
from curvelab.cli import SUBCOMMANDS, main
from curvelab.report import ExperimentReport


def run_cli(args):
    return main(args)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def report_columns(out, name):
    """The columns of the report SUBCOMMANDS[name] returns for the config and
    seed that the CLI echoed to <out>/<name>.json."""
    cfg = json.loads((out / f"{name}.json").read_text())["config"]
    return SUBCOMMANDS[name][0](cfg, np.random.default_rng(int(cfg["seed"]))).columns


# SHA-256 of every subcommand's CSV at its default config.  A refactor of the
# numerics must leave these bytes alone; a deliberate output change updates
# the digest together with a note of why it moved.  Taken with Python 3.11.7
# and numpy 2.4.6 on x86-64; other builds may round differently.  They do not
# depend on the CPU count or on BLAS's thread count: all 13 held on a 2-CPU
# host unpinned, under taskset -c 0 and under OPENBLAS_NUM_THREADS=1, and the
# apply-T and apply-M sums call no BLAS.
GOLDEN_CSV_SHA256 = {
    "apply-M": "bba8c9b0f707cc290cc64a107c2bdba85ecce3bd3b67133b508171c4fb321cdb",
    "apply-T": "dac8a5838dbbc665bb0621bfcbf379ee7507ecaa51f77650bd5f6ded928c75f8",
    "classify": "ff8e8aae8db444869ef3e075f6757451ed17ed777882fbf34e9b9964bb6899aa",
    "inverse": "d95eaa40f43c0b384b3372b630b4ae82731eb25dd12c6f0c318f62f3ee1e67bb",
    "levelset": "0a2c8b54a565c4d21454f92c314b010a2a64fd1c7847d8f04790f44581d45ed8",
    "multiplier": "71ff334e8d1ca53db54cf9e8f00dbd84883c1c8ef7f72c07a89fb2eb4ba84e51",
    "pairs": "3d83cb23b0a99fe5c490887dca740bc2a00942740fac8460bd1e09bed515af77",
    "rootorder": "39d3b1f88a9d38d6764009092bd05fd159691ef79c498598cb750287ce8912a3",
    "sharpness": "b788057732e77c5f110d4898f267e53f4d70b8fbd50d994147629ea6164b730f",
    "stationary": "23d11afe38c2fbe70193fc30fb773ea1dbaf7ad6472ad90f85146ab85e787054",
    "tiles": "dba7bca366c336fb0ad02ec91750146c1413202f14f5c49b8c48ff70a493e19e",
    "vdc": "8547b282543a444d7123dcc37b01bf1a95cc8a7870a06ebd6d40ecfd0a31e546",
    "whitney": "247b5e9609edfd27a612aa5d1e5abcd860f1cfb990ac49e6e00df68135a01472",
}


@pytest.fixture(scope="module")
def default_out(tmp_path_factory):
    """A directory with each subcommand's CSV and JSON at its default config,
    run once per module."""
    out = tmp_path_factory.mktemp("defaults")
    for name in sorted(SUBCOMMANDS):
        assert main([name, "--out", str(out)]) == 0, name
    return out


@pytest.fixture(scope="module")
def default_csvs(default_out):
    """Each subcommand's CSV bytes at its default config."""
    return {name: (default_out / f"{name}.csv").read_bytes() for name in SUBCOMMANDS}


class TestGoldenDefaults:
    def test_every_subcommand_has_a_digest(self):
        assert set(GOLDEN_CSV_SHA256) == set(SUBCOMMANDS)

    @pytest.mark.parametrize("name", sorted(GOLDEN_CSV_SHA256))
    def test_csv_bytes(self, default_csvs, name):
        assert hashlib.sha256(default_csvs[name]).hexdigest() == GOLDEN_CSV_SHA256[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_CSV_SHA256))
    def test_csv_header_matches_schema(self, default_csvs, capsys, name):
        assert main([name, "--schema"]) == 0
        header = default_csvs[name].decode().splitlines()[0]
        assert header == capsys.readouterr().out.strip()


class TestJsonContract:
    """The rows live in the CSV only; the JSON's config echo replays it."""

    @pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
    def test_no_rows_and_config_replays_csv(self, default_out, default_csvs, tmp_path, name):
        doc = json.loads((default_out / f"{name}.json").read_text())
        assert set(doc) == {"name", "fitted", "passed", "flags", "runtime_s", "config"}
        assert doc["name"] == name
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc["config"]))
        assert main([name, "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / f"{name}.csv").read_bytes() == default_csvs[name]


class TestClassify:
    def test_runs_and_passes(self, tmp_path, capsys):
        code = run_cli(["classify", "--out", str(tmp_path), "--set", "coeffs=[0,0,1,1]", "--set", "N=10", "--set", "j_range=[-100,100]"])
        assert code == 0
        doc = json.loads((tmp_path / "classify.json").read_text())
        assert doc["fitted"]["count_good"] == 33
        assert doc["fitted"]["bound"] == 217
        classes = {row["class"] for row in read_csv(tmp_path / "classify.csv")}
        assert classes <= {"good", "l=2", "l=3"}

    def test_csv_matches_json(self, tmp_path):
        run_cli(["classify", "--out", str(tmp_path)])
        rows, wanted = read_csv(tmp_path / "classify.csv"), report_columns(tmp_path, "classify")
        assert [int(got["j"]) for got in rows] == list(wanted["j"])
        assert [got["class"] for got in rows] == list(wanted["class"])


class TestSharpness:
    def test_divergent_case_exits_zero(self, tmp_path, capsys):
        code = run_cli([
            "sharpness", "--out", str(tmp_path),
            "--set", "r=0.4", "--set", "p1=0.8", "--set", "p2=0.8",
            "--set", "deltas=[0.015625,0.0078125,0.00390625,0.001953125,0.0009765625,0.00048828125]",
        ])
        assert code == 0
        doc = json.loads((tmp_path / "sharpness.json").read_text())
        assert doc["flags"]["diverges"] is True
        assert doc["fitted"]["slope"] == pytest.approx(-0.25, abs=0.05)

    def test_hoelder_violation_exit_1(self, tmp_path, capsys):
        code = run_cli(["sharpness", "--out", str(tmp_path), "--set", "r=0.4", "--set", "p1=2.0", "--set", "p2=2.0"])
        assert code == 1
        assert "relation violated" in capsys.readouterr().err

    def test_unknown_field_exit_1(self, tmp_path, capsys):
        code = run_cli(["sharpness", "--out", str(tmp_path), "--set", "nope=1"])
        assert code == 1


class TestReplayDeterminism:
    def test_byte_identical_csv(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        args = ["whitney", "--seed", "7", "--set", "count=12"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert (out1 / "whitney.csv").read_bytes() == (out2 / "whitney.csv").read_bytes()

    def test_csv_round_trips_through_json(self, tmp_path):
        assert run_cli(["vdc", "--out", str(tmp_path)]) == 0
        rows, wanted = read_csv(tmp_path / "vdc.csv"), report_columns(tmp_path, "vdc")
        for key, col in wanted.items():
            assert [float(got[key]) for got in rows] == list(col)


# each bad value and a fragment of its one error line: the field it names,
# or "no cases checked"
BAD_VALUES = {
    'levelset --set orders=["a"]': "'orders'",
    "inverse --set n_max=0": "n_max",
    "pairs --set K=1": "K must",
    'apply-T --set f={"kind":"gaussian"}': "'f'",
    "apply-T --set grid=[0,1]": "'grid'",
    "sharpness --set p1=0 --set r=0": "p1",
    "rootorder --set p1=0 --set r=0": "p1",
    "apply-M --set epsilons=[]": "epsilon grid",
    "stationary --set m_list=[]": "no cases checked",
    "classify --set j_range=[1]": "j_range",
    "tiles --set j_range=[3]": "j_range",
    "vdc --set interval=[1]": "'interval'",
    "levelset --set orders=[0]": "'orders'",
    "tiles --set x_range=[0]": "x_range",
    "stationary --set pairs=[[1]]": "'pairs'",
    "whitney --set max_components=0": "max_components",
    "inverse --set count=0": "no cases checked",
    "pairs --set count=0": "no cases checked",
    "multiplier --set m_list=[]": "no cases checked",
    "multiplier --set l=1": "l=1",
    "multiplier --set j=5000": "'j'",
    "multiplier --set j=-5000": "'j'",
    "apply-T --set nodes=0": "nodes_per_component",
    "apply-T --set j=6": "'j' and 'grid'",
    "apply-T --set j=-2000": "'j'",
    'stationary --set pairs=[["a","b"]]': "'pairs'",
    "multiplier --set m_list=[1000]": "'m_list', 'xi_band', 'eta_band', 'j' and 'coeffs' set the phase scale; at m=1000: node budget exceeded: needs about 2.68e+301 nodes",
    "multiplier --set m_list=[1022]": "'m_list'",
    "multiplier --set m_list=[1023]": "'m_list'",
    "classify --set N=1e400": "'N'",
    "inverse --set count=Infinity": "'count'",
    "sharpness --set d=0": "d must be >= 2",
    "sharpness --set d=0.5": "d must be >= 2",
    "rootorder --set A_big=0": "A_big must be positive",
    "levelset --set h_ladder=[0]": "'h_ladder'",
    "stationary --set m_list=[1e300,1e300]": "'m_list'",
    "tiles --set m=100000": "scale too fine for grid",
    "tiles --set j_range=[1e300,1e300]": "j_range",
    "vdc --set ratio_cap=NaN": "'ratio_cap'",
}


def wrong_kind(default):
    """A value of another JSON kind than default: a string for a number, a
    list for an object, a number for a list."""
    if isinstance(default, (int, float)):
        return "x"
    return [1] if isinstance(default, dict) else 5


# every field whose default is a number or a list of numbers, with Infinity in its shape
INFINITE_VALUES = [
    (n, k, "Infinity" if isinstance(v, (int, float)) else "[Infinity]")
    for n in sorted(SUBCOMMANDS) for k, v in sorted(SUBCOMMANDS[n][2].items())
    if isinstance(v, (int, float)) or isinstance(v, list) and all(isinstance(x, (int, float)) for x in v)
]


class TestSchemaAndUsage:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"]) == 1

    def test_empty_run_exit_1(self, tmp_path, capsys):
        code = run_cli(["whitney", "--out", str(tmp_path), "--set", "count=-3"])
        assert code == 1
        assert "no cases checked" in capsys.readouterr().err
        assert not (tmp_path / "whitney.csv").exists()

    def test_bad_coefficients_exit_1(self, tmp_path, capsys):
        code = run_cli(["classify", "--out", str(tmp_path), "--set", "coeffs=5"])
        assert code == 1
        assert "sequence of numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("name,override", [
        ("levelset", "orders=5"),
        ("tiles", "j_range=5"),
        ("apply-T", "f=3"),
    ])
    def test_wrong_json_kind_exit_1(self, tmp_path, capsys, name, override):
        code = run_cli([name, "--out", str(tmp_path), "--set", override])
        assert code == 1
        field = override.split("=")[0]
        assert f"config field {field!r}" in capsys.readouterr().err
        assert not (tmp_path / f"{name}.csv").exists()

    @pytest.mark.parametrize("argv", list(BAD_VALUES))
    def test_bad_value_exit_1(self, tmp_path, capsys, argv):
        name = argv.split()[0]
        assert run_cli(argv.split() + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert BAD_VALUES[argv] in err
        assert not (tmp_path / f"{name}.csv").exists()

    @pytest.mark.parametrize("name,field", [(n, k) for n in sorted(SUBCOMMANDS) for k in sorted(SUBCOMMANDS[n][2])])
    def test_every_field_rejects_wrong_kind(self, tmp_path, capsys, name, field):
        value = json.dumps(wrong_kind(SUBCOMMANDS[name][2][field]))
        assert run_cli([name, "--out", str(tmp_path), "--set", f"{field}={value}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(field) in err
        assert not (tmp_path / f"{name}.csv").exists()

    @pytest.mark.parametrize("name,field,value", INFINITE_VALUES)
    def test_every_number_field_rejects_infinity(self, tmp_path, capsys, name, field, value):
        assert run_cli([name, "--out", str(tmp_path), "--set", f"{field}={value}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(field) in err
        assert not (tmp_path / f"{name}.csv").exists()

    @pytest.mark.parametrize("columns", [{"x": [1.0], "y": [2.0]}, {"x": [1.0], "value": []}])
    def test_undeclared_columns_exit_2(self, tmp_path, capsys, monkeypatch, columns):
        monkeypatch.setitem(SUBCOMMANDS, "bogus", (lambda cfg, rng: ExperimentReport(columns), "x,value", {"seed": 0}))
        assert run_cli(["bogus", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: subcommand 'bogus' returned columns") and err.count("\n") == 1
        assert not (tmp_path / "bogus.csv").exists()

    def test_asserted_bound_exit_2(self, tmp_path, capsys):
        # at d = 45 the endpoint window is too narrow for T_0 >= delta/8
        assert run_cli(["sharpness", "--out", str(tmp_path), "--set", "d=45"]) == 2
        assert capsys.readouterr().err.startswith("error: pointwise bound T_0 >= delta/8 failed")
        assert not (tmp_path / "sharpness.csv").exists()

    def test_multiplier_names_fields_only_for_budget_errors(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise ValueError("quadrature failed")

        monkeypatch.setattr("curvelab.cli.multiplier_Mmn", fail)
        assert run_cli(["multiplier", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: quadrature failed\n"

    def test_wrong_json_kind_in_config_file_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"count": [20]}))
        code = run_cli(["inverse", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        assert "config field 'count' must be a number" in capsys.readouterr().err
        cfg.write_text("5")
        assert run_cli(["inverse", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "JSON object" in capsys.readouterr().err

    def test_config_file_and_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N": 5, "coeffs": [0, 0, 1.0]}))
        code = run_cli(["classify", "--config", str(cfg), "--out", str(tmp_path), "--set", "j_range=[-60,60]"])
        assert code == 0
        doc = json.loads((tmp_path / "classify.json").read_text())
        assert doc["config"]["N"] == 5
        assert doc["fitted"]["count_good"] == 9


class TestSmallRuns:
    def test_stationary_small(self, tmp_path):
        code = run_cli(["stationary", "--out", str(tmp_path), "--set", "m_list=[8,10]", "--set", "pairs=[[-2.0,1.0]]", "--set", "rel_tol=0.2"])
        assert code == 0

    def test_stationary_high_m(self, tmp_path):
        # the 2^(-m/2) normalization far past the default ladder, in seconds
        code = run_cli(["stationary", "--out", str(tmp_path), "--set", "m_list=[16,18,20]"])
        assert code == 0
        rows = read_csv(tmp_path / "stationary.csv")
        assert len(rows) == 9
        assert all(float(r["rel_err"]) <= 1e-6 for r in rows)

    def test_inverse_small(self, tmp_path):
        code = run_cli(["inverse", "--out", str(tmp_path), "--set", "count=3"])
        assert code == 0
        doc = json.loads((tmp_path / "inverse.json").read_text())
        assert doc["fitted"]["max_rel_err"] <= 1e-6

    def test_pairs_small(self, tmp_path):
        code = run_cli(["pairs", "--out", str(tmp_path), "--set", "count=3"])
        assert code == 0

    def test_tiles_small(self, tmp_path):
        code = run_cli(["tiles", "--out", str(tmp_path), "--set", "runs=4"])
        assert code == 0
        doc = json.loads((tmp_path / "tiles.json").read_text())
        assert "last_forest" in doc["flags"]

    def test_apply_T(self, tmp_path):
        code = run_cli(["apply-T", "--out", str(tmp_path), "--set", "grid=[-6.0,6.0,513]", "--set", "nodes=128"])
        assert code == 0
        with open(tmp_path / "apply-T.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["x", "value"]
        assert len(rows) == 513

    def test_apply_T_at_resolution_floor(self, tmp_path):
        # j = 5 is the finest scale whose kernel spans 4 steps of the default grid
        assert run_cli(["apply-T", "--out", str(tmp_path), "--set", "j=5"]) == 0

    def test_apply_M(self, tmp_path):
        code = run_cli(["apply-M", "--out", str(tmp_path), "--set", "grid=[-6.0,6.0,257]"])
        assert code == 0

    def test_multiplier_small(self, tmp_path):
        code = run_cli(["multiplier", "--out", str(tmp_path), "--set", "m_list=[0,4,8]"])
        assert code == 0

    def test_levelset_small(self, tmp_path):
        code = run_cli(["levelset", "--out", str(tmp_path), "--set", "count=2", "--set", "orders=[1,2]"])
        assert code == 0

    def test_rootorder_small(self, tmp_path):
        code = run_cli(["rootorder", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "rootorder.json").read_text())
        assert doc["fitted"]["slope"] == pytest.approx(0.5, abs=0.05)


class TestImportGraph:
    def test_runs_with_scipy_blocked(self, tmp_path):
        """The library and the CLI need numpy alone: with scipy made
        unimportable, a Chebyshev D_K norm and a CLI run still work."""
        script = textwrap.dedent("""
            import sys
            sys.modules["scipy"] = None  # any import of scipy now raises ImportError
            import numpy as np
            import curvelab
            import curvelab.cli
            from curvelab.oscillatory import SmoothFn, dk_norm
            assert abs(dk_norm(SmoothFn(fn=np.sin, domain=(0.5, 2.0)), 6) - 1.0) < 1e-8
            assert curvelab.cli.main(["vdc", "--out", sys.argv[1]]) == 0
            loaded = [m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None]
            assert not loaded, loaded
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(curvelab.__file__)))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "vdc.csv").exists()
