"""Command-line interface: parsing, exit codes, deterministic output."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import reesmult.cli
from reesmult.cli import main

X2Y3 = '{"nvars":2,"generators":[[2,0],[0,3]]}'
XY2 = '{"nvars":2,"generators":[[2,0],[1,1],[0,2]]}'
XY = '{"nvars":2,"generators":[[1,0],[0,1]]}'
UNIT = '{"nvars":2,"generators":[[0,0]]}'
MODEL23 = '{"n":2,"m":2,"exps":[2,3]}'


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNewton:
    def test_facets(self, capsys):
        code, out, _ = run_main(capsys, "newton", "-i", X2Y3)
        assert code == 0
        data = json.loads(out)
        assert {"normal": [3, 2], "threshold": "6"} in data["facets"]
        assert data["warnings"] == []

    def test_unit_warning(self, capsys):
        code, out, _ = run_main(capsys, "newton", "-i", UNIT)
        assert code == 0
        assert json.loads(out)["warnings"] == [
            "ht(a)=0: unit ideal lies outside the positive-height hypotheses"
        ]

    def test_zero_ideal_exit3(self, capsys):
        code, _, err = run_main(capsys, "newton", "-i", '{"nvars":2,"generators":[]}')
        assert code == 3
        assert "zero ideal" in err

    def test_malformed_json_exit2(self, capsys):
        code, _, err = run_main(capsys, "newton", "-i", '{"nvars":2')
        assert code == 2

    @pytest.mark.parametrize("text", [
        '{"nvars":2,"generators":[[true,0],[0,3]]}',
        '{"nvars":true,"generators":[[1]]}',
    ])
    def test_boolean_ideal_exit2(self, capsys, text):
        code, _, err = run_main(capsys, "newton", "-i", text)
        assert code == 2
        assert "parse error" in err

    def test_inline_array_is_json(self, capsys):
        code, _, err = run_main(capsys, "newton", "-i", "[[1,0],[0,1]]")
        assert code == 2
        assert "ideal JSON must be an object" in err

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text(X2Y3, encoding="utf-8")
        code, out, _ = run_main(capsys, "newton", "-i", str(path))
        assert code == 0
        assert json.loads(out)["rank"] == 2


class TestMultiplier:
    def test_module(self, capsys):
        code, out, _ = run_main(
            capsys, "multiplier", "-i", X2Y3, "--lambda", "5/6", "--module"
        )
        assert code == 0
        data = json.loads(out)
        assert data["ambient"] == "OMEGA"
        assert {"normal": [3, 2], "threshold": "6"} in data["facets"]
        assert {"normal": [1, 0], "threshold": "1"} in data["facets"]

    def test_ideal_version_lambda_zero(self, capsys):
        code, out, _ = run_main(
            capsys, "multiplier", "-i", X2Y3, "--lambda", "0", "--ideal"
        )
        assert code == 0
        data = json.loads(out)
        assert data["ambient"] == "RING"
        assert all(f["threshold"] == "0" for f in data["facets"])

    def test_decimal_rejected(self, capsys):
        code, _, err = run_main(
            capsys, "multiplier", "-i", X2Y3, "--lambda", "0.5", "--module"
        )
        assert code == 2
        assert "p/q" in err


class TestLctJumps:
    def test_lct(self, capsys):
        code, out, _ = run_main(capsys, "lct", "-i", X2Y3)
        assert code == 0
        assert json.loads(out)["lct"] == "5/6"

    def test_lct_unit_exit3(self, capsys):
        code, _, err = run_main(capsys, "lct", "-i", UNIT)
        assert code == 3
        assert "lct undefined for unit ideal" in err

    def test_jumps(self, capsys):
        code, out, _ = run_main(capsys, "jumps", "-i", X2Y3, "--max", "2")
        assert code == 0
        data = json.loads(out)
        assert data["jumps"] == ["5/6", "7/6", "4/3", "3/2", "5/3", "11/6", "2"]
        assert "note" in data


class TestVerify:
    def test_b2_verified(self, capsys):
        code, out, _ = run_main(
            capsys, "verify", "B2", "-i", XY2, "--lambda", "1/2", "--k", "-3..6"
        )
        assert code == 0
        data = json.loads(out)
        assert data["overall"] is True
        assert data["kRange"] == [-3, 6]

    def test_b2_non_normal_exit3(self, capsys):
        code, _, err = run_main(capsys, "verify", "B2", "-i", X2Y3)
        assert code == 3
        assert "not normal" in err
        assert "--closure" in err

    def test_b2_closure_flag(self, capsys):
        code, out, err = run_main(capsys, "verify", "B2", "-i", X2Y3, "--closure")
        assert code == 0
        assert json.loads(out)["closureApplied"] is True
        assert "integral closure" in err

    def test_b1(self, capsys):
        code, out, _ = run_main(
            capsys, "verify", "B1", "-i", XY, "--lambda", "0", "--n", "0..4"
        )
        assert code == 0
        assert json.loads(out)["degreeZeroEmpty"] is True

    def test_theorem_a(self, capsys):
        code, out, _ = run_main(capsys, "verify", "A", "-i", XY2, "--lambda", "1/2")
        assert code == 0
        data = json.loads(out)
        assert data["biconditional"] is True
        assert data["rationalT"] is False

    def test_local(self, capsys):
        code, out, _ = run_main(
            capsys, "verify", "local", "-m", MODEL23, "--lambda", "5/6"
        )
        assert code == 0
        data = json.loads(out)
        assert data["overall"] is True
        assert data["inconclusive"] == []

    @pytest.mark.parametrize("model", [
        '{"n":2,"m":2,"exps":[true,3]}',
        '{"n":2,"m":true,"exps":[2]}',
        '{"n":2,"m":1,"exps":[2.5]}',
    ])
    def test_local_non_integer_model_exit2(self, capsys, model):
        code, _, err = run_main(capsys, "verify", "local", "-m", model, "--lambda", "0")
        assert code == 2
        assert "model JSON" in err

    def test_local_missing_model(self, capsys):
        code, _, err = run_main(capsys, "verify", "local", "--lambda", "0")
        assert code == 2


class TestOtherCommands:
    def test_ext_rees_cone(self, capsys):
        code, out, _ = run_main(capsys, "ext-rees-cone", "-i", XY2)
        assert code == 0
        data = json.loads(out)
        assert {"normal": [1, 1, -2], "threshold": "0"} in data["facets"]
        assert [1, 1, -2] in data["rays"]

    def test_rees_cone(self, capsys):
        code, out, _ = run_main(capsys, "rees-cone", "-i", XY)
        assert code == 0
        assert {"normal": [0, 0, 1], "threshold": "0"} in json.loads(out)["facets"]

    def test_canonical(self, capsys):
        code, out, _ = run_main(capsys, "canonical", "-i", XY2, "--algebra", "ext-rees")
        assert code == 0
        data = json.loads(out)
        assert data["description"] == "OMEGA_T"
        assert all(f["threshold"] == "1" for f in data["facets"])

    def test_graded_piece(self, capsys):
        code, out, _ = run_main(
            capsys, "graded-piece", "-i", XY2, "--lambda", "1/2", "--k", "0"
        )
        assert code == 0
        data = json.loads(out)
        assert {"normal": [1, 1], "threshold": "2"} in data["facets"]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_main(capsys, "-o", str(target), "lct", "-i", X2Y3)
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text(encoding="utf-8"))["lct"] == "5/6"

    def test_text_format(self, capsys):
        code, out, _ = run_main(capsys, "newton", "-i", X2Y3, "--format", "text")
        assert code == 0
        assert "3X+2Y >= 6" in out

    def test_global_flag_before_subcommand(self, capsys):
        code, out, _ = run_main(capsys, "--format", "text", "lct", "-i", X2Y3)
        assert code == 0
        assert "lct = 5/6" in out

    def test_box_override(self, capsys):
        code, out, _ = run_main(
            capsys, "verify", "B2", "-i", XY, "--lambda", "0", "--k", "0..2",
            "--box", "6",
        )
        assert code == 0
        assert json.loads(out)["box"] == [[0, 6], [0, 6]]

    def test_resource_guard_exit4(self, capsys, monkeypatch):
        monkeypatch.setenv("REESMULT_MAX_POINTS", "10")
        code, _, err = run_main(capsys, "verify", "B2", "-i", XY, "--lambda", "0")
        assert code == 4
        assert "guard" in err

    def test_malformed_point_guard_exit2(self, capsys, monkeypatch):
        monkeypatch.setenv("REESMULT_MAX_POINTS", "abc")
        code, _, err = run_main(capsys, "jumps", "-i", X2Y3, "--max", "2")
        assert code == 2
        assert "REESMULT_MAX_POINTS" in err

    def test_internal_error_exit5(self, capsys, monkeypatch):
        def broken(a):
            raise AssertionError("lct computations disagree:\nformula 1, scan 2")

        monkeypatch.setattr(reesmult.cli, "lct", broken)
        code, out, err = run_main(capsys, "lct", "-i", X2Y3)
        assert code == 5
        assert out == ""
        assert err == "internal error: AssertionError: lct computations disagree: formula 1, scan 2\n"


class TestDeterminism:
    def test_repeated_runs_byte_identical(self):
        cmd = [
            sys.executable, "-m", "reesmult",
            "verify", "B2", "-i", XY2, "--lambda", "1/2", "--k", "-2..4",
        ]
        runs = []
        for _ in range(2):
            proc = subprocess.run(cmd, capture_output=True)
            assert proc.returncode == 0
            runs.append(proc.stdout)
        assert runs[0] == runs[1]
