"""``ladder/ab.py``, the paired replay of two trees: its percentile, ratio,
round wins and sign test on fixed timings, its output checks and the file
``--out`` writes on a stand-in for the workload, and one small replay of this
tree against itself per workload, whose times are not asserted."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
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
    # round totals: A 10, 14, 12 ms; B 12.5, 8, 6 ms; medians 12 and 8 ms
    assert got["ratio_total"] == pytest.approx(8 / 12)
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


def test_load_again_binds_its_own_submodules(ab, monkeypatch):
    monkeypatch.setattr(sys, "modules", dict(sys.modules))
    first = ab.load(ROOT, "tree_reload")
    second = ab.load(ROOT, "tree_reload")
    assert second is not first and second.serialize is not first.serialize
    assert second.polyhedra.Cone is second.Cone


def test_facets_replay_of_this_tree_against_itself(ab, capsys):
    assert ab.main([str(ROOT), str(ROOT), "--workload", "facets", "--jobs", "8",
                    "--rounds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["workload"], result["mismatches"], result["pinned_checked"]) == ("facets", 0, 8)
    assert result["rounds"] == 1 and result["wins_a"] + result["wins_b"] <= 1


def _stand_in(ab, monkeypatch):
    """Replace the perfbench jobs and the tree import by a three-job stand-in
    whose outputs agree, so a replay runs in microseconds."""
    jobs = SimpleNamespace(job=lambda workload, seed, i: i,
                           run=lambda rm, workload, job: (f"{workload} {job}", None),
                           digest=lambda text: text,
                           pinned_digests=lambda workload, seed: {0: "verify 0"})
    monkeypatch.setattr(ab, "_perfbench_jobs", lambda: jobs)
    monkeypatch.setattr(ab, "load", lambda tree, name: name)


def test_out_writes_the_json_line_under_both_shas(ab, monkeypatch, capsys, tmp_path):
    _stand_in(ab, monkeypatch)
    tree_a, tree_b, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
    tree_a.mkdir()
    tree_b.mkdir()
    git = ["git", "-C", str(tree_a), "-c", "user.name=t", "-c", "user.email=t@t"]
    try:
        subprocess.run(git + ["init", "-q"], check=True)
        subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "x"], check=True)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("git is not available")
    sha = subprocess.run(git + ["rev-parse", "--short", "HEAD"], check=True,
                         capture_output=True, text=True).stdout.strip()
    assert ab.short_sha(tree_a) == sha and ab.short_sha(tree_b) == "nogit"
    argv = [str(tree_a), str(tree_b), "--jobs", "3", "--rounds", "2"]
    assert ab.main(argv) == 0
    assert not out.exists()
    line = capsys.readouterr().out.splitlines()[-1]
    assert ab.main(argv + ["--out", str(out)]) == 0
    written = list(out.iterdir())
    assert [p.name for p in written] == [f"BENCH_{sha}_vs_nogit.json"]
    result = json.loads(written[0].read_text(encoding="utf-8"))
    assert written[0].read_text(encoding="utf-8") == capsys.readouterr().out.splitlines()[-1] + "\n"
    assert (result["sha_a"], result["sha_b"], result["jobs"], result["rounds"]) == (sha, "nogit", 3, 2)
    assert (result["mismatches"], result["pinned_checked"]) == (0, 1)
    assert json.loads(line).keys() == result.keys()


def test_short_sha_marks_uncommitted_source_edits(ab, tmp_path):
    tree = tmp_path / "tree"
    (tree / "src").mkdir(parents=True)
    (tree / "src" / "mod.py").write_text("x = 1\n", encoding="utf-8")
    git = ["git", "-C", str(tree), "-c", "user.name=t", "-c", "user.email=t@t"]
    try:
        subprocess.run(git + ["init", "-q"], check=True)
        subprocess.run(git + ["add", "-A"], check=True)
        subprocess.run(git + ["commit", "-q", "-m", "x"], check=True)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("git is not available")
    sha = subprocess.run(git + ["rev-parse", "--short", "HEAD"], check=True,
                         capture_output=True, text=True).stdout.strip()
    assert ab.short_sha(tree) == sha
    (tree / "notes.txt").write_text("outside src\n", encoding="utf-8")
    assert ab.short_sha(tree) == sha
    (tree / "src" / "mod.py").write_text("x = 2\n", encoding="utf-8")
    assert ab.short_sha(tree) == f"{sha}-dirty"
    subprocess.run(git + ["checkout", "-q", "--", "src"], check=True)
    assert ab.short_sha(tree) == sha
    (tree / "src" / "new.py").write_text("y = 1\n", encoding="utf-8")
    assert ab.short_sha(tree) == f"{sha}-dirty"
    assert ab.short_sha(tmp_path / "elsewhere") == "nogit"
