import csv
import json
import math

import pytest

from curvelab.cli import SCHEMAS, SUBCOMMANDS, main


def run_cli(args):
    return main(args)


class TestClassify:
    def test_runs_and_passes(self, tmp_path, capsys):
        code = run_cli(["classify", "--out", str(tmp_path), "--set", "coeffs=[0,0,1,1]", "--set", "N=10", "--set", "j_range=[-100,100]"])
        assert code == 0
        doc = json.loads((tmp_path / "classify.json").read_text())
        assert doc["fitted"]["count_good"] == 33
        assert doc["fitted"]["bound"] == 217
        classes = {row["class"] for row in doc["rows"]}
        assert classes <= {"good", "l=2", "l=3"}

    def test_csv_matches_json(self, tmp_path):
        run_cli(["classify", "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "classify.json").read_text())
        with open(tmp_path / "classify.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(doc["rows"])
        for got, want in zip(rows, doc["rows"]):
            assert int(got["j"]) == want["j"]
            assert got["class"] == want["class"]


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
        doc = json.loads((tmp_path / "vdc.json").read_text())
        with open(tmp_path / "vdc.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for got, want in zip(rows, doc["rows"]):
            for key, val in want.items():
                if isinstance(val, float):
                    assert float(got[key]) == pytest.approx(val, rel=1e-15, abs=0)


class TestSchemaAndUsage:
    def test_schema_flag(self, capsys):
        for name in SUBCOMMANDS:
            assert run_cli([name, "--schema"]) == 0
            out = capsys.readouterr().out.strip()
            assert out == SCHEMAS[name]

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
