"""Command-line interface: parsing, exit codes, deterministic output."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reesmult.cli
from reesmult.cli import main
from reesmult.errors import DomainError
from reesmult.serialize import dumps_canonical

X2Y3 = '{"nvars":2,"generators":[[2,0],[0,3]]}'
XY2 = '{"nvars":2,"generators":[[2,0],[1,1],[0,2]]}'
XY = '{"nvars":2,"generators":[[1,0],[0,1]]}'
UNIT = '{"nvars":2,"generators":[[0,0]]}'
XYZ2 = '{"nvars":3,"generators":[[2,0,0],[1,1,0],[1,0,1],[0,2,0],[0,1,1],[0,0,2]]}'
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

    @pytest.mark.parametrize("gens", ["[[1,0],[1,0,5]]", "[[1,0],[1]]"], ids=["long", "short"])
    def test_generator_length_exit3(self, capsys, gens):
        # a longer generator that a divisor precedes is refused as a shorter one is
        code, out, err = run_main(capsys, "newton", "-i", f'{{"nvars":2,"generators":{gens}}}')
        assert (code, out, err) == (3, "", "domain error: generator length does not match nvars\n")

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
        # an array is not an object; keys are looked up in order, so the
        # first missing one is named
        for argv, message in (
            (["newton", "-i", "[[1,0],[0,1]]"], "ideal JSON must be an object"),
            (["verify", "local", "-m", "[2,2,[2,3]]"], "model JSON must be an object"),
            (["newton", "-i", "{}"], "ideal JSON missing key 'nvars'"),
            (["newton", "-i", '{"generators":[[1]]}'], "ideal JSON missing key 'nvars'"),
            (["newton", "-i", '{"nvars":1}'], "ideal JSON missing key 'generators'"),
            (["verify", "local", "-m", "{}"], "model JSON missing key 'n'"),
            (["verify", "local", "-m", '{"exps":[2],"n":1}'], "model JSON missing key 'm'"),
            (["verify", "local", "-m", '{"n":2,"m":2}'], "model JSON missing key 'exps'"),
        ):
            assert run_main(capsys, *argv) == (2, "", f"parse error: {message}\n"), argv

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

    def test_jumps_guard_before_candidates(self, capsys):
        # 6 * 10^7 candidates, a 2 * 10^7 by 3 * 10^7 box at lam_max
        start = time.perf_counter()
        code, out, err = run_main(capsys, "jumps", "-i", X2Y3, "--max", "10000000")
        assert time.perf_counter() - start < 1.0
        assert code == 4
        assert out == ""
        assert "enumeration guard" in err

    def test_jumps_candidate_count_guard(self, capsys, monkeypatch):
        # (y^2, xy, x^3) to 1: facet boxes 2 * 2 and 3 * 1, 2 + 3 candidates
        ideal = '{"nvars":2,"generators":[[0,2],[1,1],[3,0]]}'
        monkeypatch.setenv("REESMULT_MAX_POINTS", "4")
        code, _, err = run_main(capsys, "jumps", "-i", ideal, "--max", "1")
        assert code == 4
        assert "box volume 4 or candidate count 5 exceeds enumeration guard 4" in err
        monkeypatch.setenv("REESMULT_MAX_POINTS", "5")
        code, out, _ = run_main(capsys, "jumps", "-i", ideal, "--max", "1")
        assert code == 0
        assert json.loads(out)["jumps"] == ["1"]


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

    def test_closure_leaves_the_verifier_report_as_built(self, capsys, monkeypatch):
        # closureApplied goes into the CLI's own output, not into the record
        verify, reports = reesmult.cli.verify_theoremB_T, []

        def recording(*args, **kwargs):
            report = verify(*args, **kwargs)
            reports.append((report, repr(report)))
            return report

        monkeypatch.setattr(reesmult.cli, "verify_theoremB_T", recording)
        code, out, _ = run_main(capsys, "verify", "B2", "-i", X2Y3, "--closure")
        assert code == 0 and json.loads(out)["closureApplied"] is True
        code, out, _ = run_main(capsys, "--format", "text", "verify", "B2", "-i", X2Y3,
                                "--closure")
        assert code == 0
        assert out.splitlines()[-2:] == ["  closureApplied: True", "  thresholdsIdentical: True"]
        assert len(reports) == 2  # the given ideal raised before a report was built
        for report, built in reports:
            assert repr(report) == built
            assert "closureApplied" not in report.details

    def test_closure_scans_normal_input_once(self, capsys, monkeypatch):
        # the cone build's own normality scan decides whether to take the closure
        from reesmult import ideals, rees

        calls = []
        scan = ideals.first_non_closed_power

        def counting(a, bound=None):
            calls.append(bound)
            return scan(a, bound)

        monkeypatch.setattr(ideals, "first_non_closed_power", counting)
        monkeypatch.setattr(rees, "first_non_closed_power", counting)
        rees.extended_rees_cone.cache_clear()
        rees.rees_cone.cache_clear()
        code, out, err = run_main(capsys, "verify", "B2", "-i", XYZ2, "--lambda", "1/2",
                                  "--closure")
        assert code == 0
        assert "closureApplied" not in json.loads(out)
        assert err == ""
        assert calls == [None]  # the default bound, n - 1

    def test_closure_non_normal_pinned_bytes(self, capsys):
        code, out, err = run_main(capsys, "verify", "B2", "-i", X2Y3, "--lambda", "1/2",
                                  "--closure")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b18d1244f78b7f642f00babcbd560162d23ae6ba6a23ae881c1b97500bd2bd5b")
        assert err == (
            "notice: input replaced by its integral closure; the decomposition "
            "statements concern the given ideal, not its closure\n")

    @pytest.mark.parametrize("argv, k_range", [
        (["verify", "B2", "-i", XY2], [-3, 6]),
        (["verify", "B1", "-i", XY], [0, 5]),
        (["verify", "local", "-m", MODEL23], [-4, 4]),
    ])
    def test_library_defaults_without_options(self, capsys, argv, k_range):
        code, out, _ = run_main(capsys, *argv)
        assert code == 0
        data = json.loads(out)
        assert data["kRange"] == k_range
        if argv[1] == "local":
            assert data["boxDeg"] == 6

    @pytest.mark.parametrize("theorem", ("B2", "B1", "A", "local"))
    def test_report_is_the_library_default_call(self, capsys, theorem):
        # no option given: the bytes of the verifier called with no keyword
        from reesmult import hypersurface, rees

        if theorem == "local":
            argv, report = ["-m", MODEL23], hypersurface.verify_local_decomposition(
                reesmult.cli.parse_model(MODEL23), 0)
        else:
            verifier = {"B2": rees.verify_theoremB_T, "B1": rees.verify_theoremB_S,
                        "A": rees.verify_theoremA}[theorem]
            argv, report = ["-i", XY2], verifier(reesmult.cli.parse_ideal(XY2), 0)
        code, out, _ = run_main(capsys, "verify", theorem, *argv)
        assert (code, out) == (0, dumps_canonical(report.to_json()) + "\n")

    def test_closure_follows_the_type_not_the_text(self, capsys, monkeypatch):
        # a domain error that only mentions normality is reported as it is
        def refuse(a, lam, **options):
            raise DomainError("ideal not normal, says another check")

        monkeypatch.setattr(reesmult.cli, "verify_theoremB_T", refuse)
        code, out, err = run_main(capsys, "verify", "B2", "-i", X2Y3, "--closure")
        assert (code, out, err) == (3, "", "domain error: ideal not normal, says another check\n")

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

    @pytest.mark.parametrize("box", [0, 1])
    def test_theorem_a_small_box(self, capsys, box):
        # rationalR is decided at (1,1), whatever the box: --box 0 holds no
        # point of omega, so listing omega in the box would answer true
        ideal = '{"nvars":2,"generators":[[3,0],[1,1],[0,2]]}'
        code, out, _ = run_main(capsys, "verify", "A", "-i", ideal, "--lambda", "1")
        want = json.loads(out)
        assert want["rationalR"] is False
        got_code, out, _ = run_main(
            capsys, "verify", "A", "-i", ideal, "--lambda", "1", "--box", str(box)
        )
        got = json.loads(out)
        assert got.pop("box") == [[0, box], [0, box]]
        want.pop("box")
        assert (got_code, got) == (code, want)

    def test_theorem_a_negative_box_exit3(self, capsys):
        code, out, err = run_main(capsys, "verify", "A", "-i", XY2, "--box", "-1")
        assert code == 3
        assert out == ""
        assert "box lower bound exceeds upper bound" in err

    def test_theorem_a_box_past_the_volume_guard(self, capsys):
        # A lists no point in its box, so only B1 and B2 apply the volume guard
        code, out, _ = run_main(capsys, "verify", "A", "-i", XY2, "--box", "1000000")
        assert code == 0
        assert json.loads(out)["box"] == [[0, 1000000], [0, 1000000]]
        code, out, err = run_main(capsys, "verify", "B2", "-i", XY2, "--box", "1000000")
        assert (code, out) == (4, "")
        assert "exceeds enumeration guard" in err

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

    def test_local_point_guard_exit4(self, capsys):
        # 21^7 (about 1.8e9) exponent vectors per level at the default box
        start = time.perf_counter()
        code, out, err = run_main(
            capsys, "verify", "local", "-m", '{"n":7,"m":1,"exps":[3]}', "--lambda", "1/2"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 4
        assert out == ""
        assert "enumeration guard" in err

    @pytest.mark.parametrize("argv, levels", [
        (("B2", "-i", XY, "--k", "0..1000000000000", "--box", "5"), 10 ** 12 + 1),
        (("B1", "-i", XY, "--n", "0..1000000000000", "--box", "5"), 10 ** 12 + 1),
        (("local", "-m", MODEL23, "--k", "-1000000000000..1000000000000"), 2 * 10 ** 12 + 1),
    ], ids=("B2", "B1", "local"))
    def test_level_range_over_guard_exit4(self, capsys, monkeypatch, argv, levels):
        # the range is bounded before any level is built: B2 used to run for
        # seconds and local to list every inconclusive degree until MemoryError
        monkeypatch.delenv("REESMULT_MAX_POINTS", raising=False)
        start = time.perf_counter()
        code, out, err = run_main(capsys, "verify", argv[0], "--lambda", "1/2", *argv[1:])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (4, "")
        assert err == (f"resource guard: level range of {levels} levels exceeds "
                       "enumeration guard 100000000\n")

    @pytest.mark.parametrize("argv", [
        ("B2", "-i", XY, "--box", "6"),
        ("B1", "-i", XY, "--box", "6"),
        ("local", "-m", MODEL23, "--box-c", "6", "--box-deg", "1"),
    ], ids=("B2", "B1", "local"))
    def test_level_box_over_guard_exit4(self, capsys, monkeypatch, argv):
        # the cone of (x, y) passes a guard of 40; the 7^2 level box does not
        monkeypatch.setenv("REESMULT_MAX_POINTS", "40")
        code, out, err = run_main(capsys, "verify", argv[0], "--lambda", "1/2", *argv[1:])
        assert (code, out) == (4, "")
        assert err == "resource guard: box volume 49 exceeds enumeration guard 40\n"

    @pytest.mark.parametrize("flag", ["--box-deg", "--box-c"])
    def test_local_negative_box_exit3(self, capsys, flag):
        code, out, err = run_main(
            capsys, "verify", "local", "-m", MODEL23, "--lambda", "0", flag, "-1"
        )
        assert code == 3
        assert out == ""
        assert "nonnegative" in err

    def test_local_point_guard_env_exit4(self, capsys, monkeypatch):
        monkeypatch.setenv("REESMULT_MAX_POINTS", "10")
        code, _, err = run_main(capsys, "verify", "local", "-m", MODEL23, "--lambda", "1/2")
        assert code == 4
        assert "enumeration guard 10" in err


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

    def test_principal_cone_skips_the_normality_scan(self, capsys):
        # (s^20) in 6 variables is principal, so normal; a scan of its powers
        # would exceed the enumeration guard and exit 4
        code, out, err = run_main(capsys, "rees-cone", "-i",
                                  '{"nvars":6,"generators":[[20,20,20,20,20,20]]}')
        assert (code, err) == (0, "")
        assert {"normal": [1, 0, 0, 0, 0, 0, -20], "threshold": "0"} in json.loads(out)["facets"]

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

    def test_input_file_not_utf8_exit2(self, capsys, tmp_path):
        source = tmp_path / "ideal.json"
        source.write_bytes(b'{"nvars": 2, "generators": [[2, 0], [0, 3]]}\xff')
        code, out, err = run_main(capsys, "lct", "-i", str(source))
        assert (code, out) == (2, "")
        assert err.startswith(f"parse error: cannot read input file {str(source)!r}: ")
        assert "codec can't decode byte 0xff" in err

    @pytest.mark.parametrize("where", ["missing/out.json", ""])  # no directory; a directory
    def test_unwritable_output_file_exit2(self, capsys, tmp_path, where):
        target = str(tmp_path / where)
        code, out, err = run_main(capsys, "-o", target, "lct", "-i", X2Y3)
        assert (code, out) == (2, "")
        assert err.startswith(f"parse error: cannot write output file {target!r}: ")
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("value", ["abc", "-5", "0"])
    @pytest.mark.parametrize("argv", [
        ["newton", "-i", X2Y3],
        ["lct", "-i", X2Y3],
        # every degree inconclusive: nothing is listed
        ["verify", "local", "-m", MODEL23, "--box-deg", "0", "--k", "3..4"],
    ])
    def test_point_guard_checked_before_dispatch(self, capsys, monkeypatch, value, argv):
        monkeypatch.setenv("REESMULT_MAX_POINTS", value)
        code, out, err = run_main(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "REESMULT_MAX_POINTS must be a positive integer" in err

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


# ---------------------------------------------------------------------------
# Malformed input, one class at a time: every class is a parse error (exit 2),
# never "verified false" (1) or an internal error (5).
# ---------------------------------------------------------------------------

IDEAL_COMMANDS = (
    ["newton"], ["lct"], ["jumps", "--max", "2"], ["multiplier", "--lambda", "1/2", "--module"],
    ["ext-rees-cone"], ["rees-cone"], ["canonical"], ["graded-piece", "--k", "1"],
    ["verify", "B1"], ["verify", "B2"], ["verify", "A"],
)
NOT_NUL = st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")
WRONG_TYPE = st.one_of(st.booleans(), st.floats(), st.text(max_size=3), st.none())


def _is_json(text):
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


def _positive_int(text):
    # the guard reads ASCII digits only, so int()'s "1_0" or " 5" are malformed
    return re.fullmatch("[+-]?[0-9]+", text) is not None and int(text) > 0


def _with_field(data, draw, keys):
    """``data`` with one field (or one entry of its list fields) replaced by
    a value of the wrong type, or removed."""
    key = draw(st.sampled_from(keys))
    data = dict(data)
    how = draw(st.sampled_from(("replace", "entry", "drop")))
    if how == "drop":
        del data[key]
    elif how == "entry" and isinstance(data[key], list) and data[key]:
        # a wrong-typed entry, at any depth of the nested integer lists
        entries = data[key] = json.loads(json.dumps(data[key]))
        while isinstance(entries[0], list):
            entries = entries[0]
        entries[0] = draw(WRONG_TYPE)
    else:
        data[key] = draw(WRONG_TYPE)
    return json.dumps(data)


@st.composite
def malformed_runs(draw):
    """(argv, env) of one CLI run whose only fault is one malformed input."""
    kind = draw(st.sampled_from(
        ("json", "ideal", "model", "rational", "range", "option", "env")))
    command = draw(st.sampled_from(IDEAL_COMMANDS)) if kind in ("json", "ideal", "env") else None
    env = {}
    if kind == "json":
        text = draw(st.one_of(
            st.text(NOT_NUL, max_size=20).map(lambda t: "{" + t).filter(lambda t: not _is_json(t)),
            st.lists(st.integers(), max_size=3).map(json.dumps),
            st.just("[" * 100000),
            st.just('{"nvars":1,"generators":[[' + "9" * 5000 + "]]}"),
        ))
        argv = command + ["-i", text]
    elif kind == "ideal":
        argv = command + ["-i", _with_field(
            {"nvars": 2, "generators": [[2, 0], [1, 1], [0, 2]]}, draw, ("nvars", "generators"))]
    elif kind == "model":
        argv = ["verify", "local", "-m", _with_field(
            {"n": 2, "m": 2, "exps": [2, 3]}, draw, ("n", "m", "exps"))]
    elif kind == "rational":
        bad = draw(st.one_of(
            st.builds("{}.{}".format, st.integers(-3, 3), st.integers(0, 99)),
            st.sampled_from(["1e3", ".5", "1/0", "1/2/3", "nan", "inf", "", "1/", "9" * 5000]),
        ))
        argv = draw(st.sampled_from((
            ["multiplier", "-i", XY2, "--module", "--lambda", bad],
            ["jumps", "-i", XY2, "--max", bad],
            ["graded-piece", "-i", XY2, "--k", "1", "--lambda", bad],
            ["verify", "B2", "-i", XY2, "--lambda", bad],
            ["verify", "local", "-m", MODEL23, "--lambda", bad],
        )))
    elif kind == "range":
        lo = draw(st.integers(-5, 5))
        bad = draw(st.one_of(
            st.builds("{}..{}".format, st.just(lo), st.integers(-10, lo - 1)),
            st.text(NOT_NUL, max_size=8).filter(lambda t: ".." not in t),
            st.builds("{}..{}".format, st.text("ab x", min_size=1, max_size=3), st.just(lo)),
            st.sampled_from(["", "1..2..3"]),
        ))
        argv = draw(st.sampled_from((
            ["verify", "B2", "-i", XY2, "--k", bad],
            ["verify", "B1", "-i", XY2, "--n", bad],
            ["verify", "local", "-m", MODEL23, "--k", bad],
        )))
    elif kind == "option":
        # a valid option that the theorem does not take
        option, takers = draw(st.sampled_from((
            (["--k", "0..2"], ("B2", "local")), (["--n", "0..2"], ("B1",)),
            (["--box", "3"], ("B1", "B2", "A")), (["--box-c", "2"], ("local",)),
            (["--box-deg", "4"], ("local",)), (["-i", XY2], ("B1", "B2", "A")),
            (["-m", MODEL23], ("local",)), (["-m", "garbage"], ("local",)),
            (["--closure"], ("B1", "B2", "A")),
        )))
        theorem = draw(st.sampled_from([t for t in ("B1", "B2", "A", "local") if t not in takers]))
        source = ["-m", MODEL23] if theorem == "local" else ["-i", XY2]
        argv = ["verify", theorem, *source, *option]
    else:
        env["REESMULT_MAX_POINTS"] = draw(st.one_of(
            st.integers(max_value=0).map(str),
            st.text(NOT_NUL, min_size=1, max_size=8).filter(lambda t: not _positive_int(t)),
        ))
        argv = command + ["-i", XY2]
    return argv, env


class TestMalformedInputExitCode:
    @settings(max_examples=300, deadline=None)
    @given(malformed_runs())
    def test_parse_error_exit2(self, run):
        argv, env = run
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 2, (argv, env, err.getvalue())
        assert out.getvalue() == ""

    # int() and \d also read "1_0", surrounding blanks and non-ASCII digits
    @pytest.mark.parametrize("argv", [
        ["verify", "B2", "-i", XY2, "--k", "1_0..2_0"],
        ["verify", "B2", "-i", XY2, "--k", " 1 .. 3 "],
        ["verify", "B1", "-i", XY2, "--n", "\u0660..\u0663"],
        ["verify", "local", "-m", MODEL23, "--k", "\uff11..3"],
        ["multiplier", "-i", XY2, "--module", "--lambda", "\u0661/\u0662"],
        ["jumps", "-i", XY2, "--max", "\u0662"],
    ])
    def test_numbers_in_ascii_digits_only(self, capsys, argv):
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("parse error: ")

    @pytest.mark.parametrize("value", ["1_000", " 1000", "\u0661\u0660\u0660\u0660"])
    def test_point_guard_in_ascii_digits_only(self, capsys, monkeypatch, value):
        monkeypatch.setenv("REESMULT_MAX_POINTS", value)
        code, out, err = run_main(capsys, "lct", "-i", X2Y3)
        assert (code, out) == (2, "")
        assert "REESMULT_MAX_POINTS must be a positive integer" in err

    @pytest.mark.parametrize("argv, option, value", [
        (["graded-piece", "-i", XY2, "--k"], "--k", "1_0"),
        (["graded-piece", "-i", XY2, "--k"], "--k", " 2"),
        (["verify", "B2", "-i", XY2, "--box"], "--box", " \u0663"),
        (["verify", "local", "-m", MODEL23, "--box-deg"], "--box-deg", "\u0662"),
        (["verify", "local", "-m", MODEL23, "--box-c"], "--box-c", "1_0"),
        (["verify", "B2", "-i", XY2, "--box"], "--box", "x"),
    ])
    def test_integer_options_in_ascii_digits_only(self, capsys, argv, option, value):
        code, out, err = run_main(capsys, *argv, value)
        assert (code, out) == (2, "")
        # argparse's own message, as for any value int() refuses
        assert err.splitlines()[-1] == (
            f"reesmult {argv[0]}: error: argument {option}: invalid int value: {value!r}")

    def test_signed_ranges_still_read(self, capsys):
        for bounds in ("-3..6", "+0..2", "-5..-3"):
            code, out, _ = run_main(capsys, "verify", "B2", "-i", XY2, "--k", bounds)
            assert code == 0
            assert json.loads(out)["kRange"] == [int(b) for b in bounds.split("..")]


class TestParserAudit:
    BAD = ("1_0", "\u0663", " 2")

    @staticmethod
    def _options():
        parser = reesmult.cli.build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for name, sub in subparsers.choices.items():
            for action in sub._actions:
                if action.option_strings and action.type is not None:
                    yield name, action

    def test_every_integer_option_in_ascii_digits_only(self):
        # a future type=int (which reads all three) fails here
        audited = []
        for name, action in self._options():
            try:
                if action.type("12") != 12:
                    continue
            except (TypeError, ValueError):
                continue
            audited.append(f"{name} {action.option_strings[-1]}")
            for bad in self.BAD:
                with pytest.raises(ValueError):
                    action.type(bad)
        assert audited == [
            "graded-piece --k", "verify --box", "verify --box-deg", "verify --box-c"]
