"""``ladder/ab.py``, the paired replay of two trees: its percentile, ratio,
round wins and sign test on fixed timings, its output checks on a stand-in
for the workload, and one small replay of this tree against itself, whose
times are not asserted."""

from __future__ import annotations

import importlib.util
import json
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ladder_ab", ROOT / "ladder" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_percentile_is_nearest_rank(ab):
    values = [5, 1, 4, 2, 3, 10, 9, 8, 7, 6]
    assert [ab.percentile(values, q) for q in (0.1, 0.5, 0.9, 1.0)] == [1, 5, 9, 10]
    assert ab.percentile([3], 0.5) == ab.percentile([3], 0.9) == 3


@pytest.mark.parametrize("wins, losses, p", [
    (10, 0, Fraction(2, 2 ** 10)),
    (0, 10, Fraction(2, 2 ** 10)),
    (9, 1, Fraction(2 * 11, 2 ** 10)),
    (8, 2, Fraction(2 * 56, 2 ** 10)),
    (3, 0, Fraction(2, 8)),
    (5, 5, 1),
    (1, 0, 1),
    (0, 0, 1),
])
def test_sign_test_is_exact(ab, wins, losses, p):
    assert ab.sign_test(wins, losses) == pytest.approx(float(p), rel=1e-12)


def test_summarize_fixed_rounds(ab):
    # three rounds of four jobs; B's p50 is lower in two rounds, tied in one
    rounds = [
        ([4e-3, 1e-3, 2e-3, 3e-3], [1e-3, 1e-3, 1.5e-3, 9e-3]),
        ([2e-3, 2e-3, 2e-3, 8e-3], [1e-3, 1e-3, 3e-3, 3e-3]),
        ([1e-3, 1e-3, 5e-3, 5e-3], [1e-3, 1e-3, 2e-3, 2e-3]),
    ]
    got = ab.summarize(rounds)
    # per-round p50 (nearest rank, 2nd of 4): A 2, 2, 1 ms; B 1, 1, 1 ms
    # p90 (4th of 4): A 4, 8, 5 ms; B 9, 3, 2 ms
    assert got["p50_ms_a"] == pytest.approx(2.0) and got["p50_ms_b"] == pytest.approx(1.0)
    assert got["p90_ms_a"] == pytest.approx(5.0) and got["p90_ms_b"] == pytest.approx(3.0)
    assert got["ratio_p50"] == pytest.approx(0.5)
    assert (got["rounds"], got["wins_a"], got["wins_b"]) == (3, 0, 2)
    assert got["sign_p"] == pytest.approx(0.5)


def test_check_pass_reports_each_differing_output(ab):
    outputs = {("a", 0): "x", ("b", 0): "x", ("a", 1): "y", ("b", 1): "z",
               ("a", 2): "w", ("b", 2): "w"}
    jobs = SimpleNamespace(run=lambda rm, workload, job: (outputs[rm, job], None),
                           digest=lambda text: text)
    problems = ab.check_pass(jobs, ["a", "b"], "verify", [0, 1, 2], {0: "x", 2: "v"})
    assert problems == ["job 1: tree A y, tree B z", "job 2: both trees w, pinned v"]


def test_replay_of_this_tree_against_itself(ab, capsys):
    assert ab.main([str(ROOT), str(ROOT), "--workload", "verify", "--jobs", "4",
                    "--rounds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["mismatches"], result["pinned_checked"], result["rounds"]) == (0, 4, 1)
    assert result["wins_a"] + result["wins_b"] <= 1
