"""Byte identity of reports: every pinned seed-0 job of the benchmark's
``facets``, ``verify`` and ``cli`` workloads, replayed in-process through
``perfbench/jobs.py``, must give the exit codes and the output digests
pinned in ``perfbench/digests``.  The replayed ``facets`` jobs also check
the number types: every facet threshold and every Newton vertex entry is
an int.  The replayed ``verify`` jobs also count the box checks.  Nothing
under ``perfbench`` is written."""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import reesmult
from reesmult import cli, polyhedra

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))
# no bytecode cache is written under perfbench
write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import jobs  # noqa: E402

sys.dont_write_bytecode = write_bytecode

from test_rees import package_caches  # noqa: E402

VERIFY_REPLAYED = 800  # every pinned verify job
CLI_REPLAYED = 800  # every pinned cli job
FACETS_REPLAYED = 16000  # every pinned facets job


def _all_ints(values):
    return all(type(x) is int for x in values)


def test_facets_jobs_match_pins():
    pins = jobs.pinned_digests("facets", jobs.PINNED_SEED)
    for i in range(FACETS_REPLAYED):
        job = jobs.job("facets", jobs.PINNED_SEED, i)
        text, out = jobs.run(reesmult, "facets", job)
        assert jobs.check("facets", job, out) is None, (i, job)
        assert jobs.digest(text) == pins[i], (i, job)
        poly = out if job[0] == "dual" else out[1]
        assert _all_ints(h.threshold for h in poly.facets), (i, job)
        if job[0] != "dual":
            assert _all_ints(e for v in poly.vertices for e in v), (i, job)


def test_verify_jobs_match_pins():
    pins = jobs.pinned_digests("verify", jobs.PINNED_SEED)
    for i in range(VERIFY_REPLAYED):
        job = jobs.job("verify", jobs.PINNED_SEED, i)
        text, report = jobs.run(reesmult, "verify", job)
        assert jobs.check("verify", job, report) is None, (i, job)
        assert jobs.digest(text) == pins[i], (i, job)


def test_verify_jobs_check_each_box_once(monkeypatch):
    # every level of a report shares its box or one of a few, checked once
    # each; a first replay builds the cones, whose scans check boxes of their own
    replay = [jobs.job("verify", jobs.PINNED_SEED, i) for i in range(VERIFY_REPLAYED)]
    for job in replay:
        jobs.run(reesmult, "verify", job)
    checked = []
    as_box = polyhedra.as_box

    def counting(box, rank):
        checked.append(tuple(map(tuple, box)))
        return as_box(box, rank)

    monkeypatch.setattr(polyhedra, "as_box", counting)
    monkeypatch.setattr(reesmult.rees, "as_box", counting)
    total = 0
    for i, job in enumerate(replay):
        checked.clear()
        jobs.run(reesmult, "verify", job)
        assert len(checked) == len(set(checked)), (i, job)
        total += len(checked)
    # 950 checks; a check in every walk made 2750
    assert total <= 1000, total


def test_warm_verify_misses_no_cache():
    # one lambda rotation of the menu runs every entry at every lambda of its
    # grid; if that pass outgrows a cache, the next pass rebuilds what it evicted
    caches = package_caches()
    assert len(caches) == 10, sorted(caches)
    rotation = [jobs.job("verify", jobs.PINNED_SEED, i)
                for i in range(len(jobs.VERIFY_MENU) * len(jobs.LAMBDAS))]
    assert len(rotation) == 96 and len(set(rotation)) == 90
    for cached in caches.values():
        cached.cache_clear()
    for job in rotation:
        jobs.run(reesmult, "verify", job)
    misses = {name: cached.cache_info().misses for name, cached in caches.items()}
    for job in rotation:
        jobs.run(reesmult, "verify", job)
    assert {name: cached.cache_info().misses for name, cached in caches.items()} == misses


def test_cli_jobs_match_pins(monkeypatch):
    # the benchmark runs every cli job without the guard override
    monkeypatch.delenv("REESMULT_MAX_POINTS", raising=False)
    pins = jobs.pinned_digests("cli", jobs.PINNED_SEED)
    for i in range(CLI_REPLAYED):
        job = jobs.job("cli", jobs.PINNED_SEED, i)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(job[0]))
        assert jobs.check_cli(job, code, out.getvalue()) is None, (i, job)
        assert jobs.digest(out.getvalue()) == pins[i], (i, job)
