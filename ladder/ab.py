"""Paired in-process replay of two source trees of reesmult.

One process imports the ``reesmult`` package of each tree under its own name
(``tree_a``, ``tree_b``) and runs the first ``--jobs`` jobs of a ``perfbench``
workload (``verify`` or ``facets``) on both, job by job, alternating which tree
goes first.  Host drift then falls on both trees alike, which separate
benchmark processes cannot promise.

- A first pass fills both trees' caches and checks every output: against its
  pinned digest in ``perfbench/digests`` where the job has one, and each tree
  against the other.
- Each of ``--rounds`` timed rounds runs every job once more on each tree,
  timed with ``time.perf_counter``.  A round goes to the tree whose median job
  time is lower; a tie goes to neither.

It prints per tree the median over rounds of the round's job p50 and p90 (in
ms, nearest rank), the ratio B/A of those p50s, the rounds each tree won and
the exact two-sided sign-test p-value of the wins, then the same as one JSON
line.  Exit status 1 if an output differs.

Run from the root of a checkout, giving the roots of two checkouts (A is the
baseline, B the change):

    python3 ladder/ab.py ../parent . --workload verify --jobs 3000 --rounds 10

The jobs come from this checkout's ``perfbench/jobs.py``; nothing there is
written.  This tool does not replace ``perfbench/run.py``, which judges a
change against the bounds of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import statistics
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
NAMES = ("tree_a", "tree_b")


def percentile(values, q):
    """Nearest-rank percentile, as ``perfbench/run.py`` reports job times."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def sign_test(wins, losses):
    """Exact two-sided sign-test p-value of ``wins`` against ``losses`` (ties
    left out): the chance under a fair coin of a split at least this uneven."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def summarize(rounds):
    """``rounds`` is a list of ``(times_a, times_b)``, job times in seconds of
    one round.  Returns the medians over rounds of each tree's p50 and p90 in
    ms, the ratio B/A of the median p50s, each tree's round wins on p50 and the
    sign-test p-value of those wins."""
    p50 = [[percentile(times, 0.5) for times in pair] for pair in rounds]
    p90 = [[percentile(times, 0.9) for times in pair] for pair in rounds]
    wins_a = sum(a < b for a, b in p50)
    wins_b = sum(b < a for a, b in p50)
    out = {}
    for side, name in enumerate("ab"):
        out[f"p50_ms_{name}"] = statistics.median(r[side] for r in p50) * 1e3
        out[f"p90_ms_{name}"] = statistics.median(r[side] for r in p90) * 1e3
    out.update(ratio_p50=out["p50_ms_b"] / out["p50_ms_a"], rounds=len(rounds),
               wins_a=wins_a, wins_b=wins_b, sign_p=sign_test(wins_a, wins_b))
    return out


def load(tree, name):
    """Import ``<tree>/src/reesmult`` as the package ``name``; its relative
    imports then resolve inside that tree."""
    init = Path(tree).resolve() / "src" / "reesmult" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _perfbench_jobs():
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import jobs
    finally:
        sys.dont_write_bytecode = write_bytecode
    return jobs


def check_pass(jobs, trees, workload, todo, pins):
    """Run every job once on each tree; returns one line per output that
    differs from its pin or from the other tree's."""
    problems = []
    for i, job in enumerate(todo):
        digests = [jobs.digest(jobs.run(rm, workload, job)[0]) for rm in trees]
        if digests[0] != digests[1]:
            problems.append(f"job {i}: tree A {digests[0]}, tree B {digests[1]}")
        elif i in pins and pins[i] != digests[0]:
            problems.append(f"job {i}: both trees {digests[0]}, pinned {pins[i]}")
    return problems


def timed_round(jobs, trees, workload, todo, r):
    """One round: each job on both trees, tree A first on even ``i + r``."""
    times = ([], [])
    for i, job in enumerate(todo):
        for side in ((0, 1) if (i + r) % 2 == 0 else (1, 0)):
            t0 = time.perf_counter()
            jobs.run(trees[side], workload, job)
            times[side].append(time.perf_counter() - t0)
    return times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", help="root of the baseline checkout")
    parser.add_argument("tree_b", help="root of the changed checkout")
    parser.add_argument("--workload", choices=("verify", "facets"), default="verify")
    parser.add_argument("--jobs", type=int, default=3000)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.jobs < 1 or args.rounds < 1:
        parser.error("--jobs and --rounds must be positive")

    jobs = _perfbench_jobs()
    trees = [load(tree, name) for tree, name in zip((args.tree_a, args.tree_b), NAMES)]
    todo = [jobs.job(args.workload, args.seed, i) for i in range(args.jobs)]
    pins = jobs.pinned_digests(args.workload, args.seed)
    problems = check_pass(jobs, trees, args.workload, todo, pins)
    for line in problems:
        print(line, file=sys.stderr)
    rounds = [timed_round(jobs, trees, args.workload, todo, r) for r in range(args.rounds)]
    result = summarize(rounds)
    result.update(workload=args.workload, jobs=args.jobs, seed=args.seed,
                  pinned_checked=sum(i in pins for i in range(args.jobs)),
                  mismatches=len(problems))
    for name, tree in zip("AB", (args.tree_a, args.tree_b)):
        side = name.lower()
        print(f"tree {name} {tree}: p50 {result[f'p50_ms_{side}']:.4f} ms  "
              f"p90 {result[f'p90_ms_{side}']:.4f} ms  rounds won {result[f'wins_{side}']}")
    print(f"B/A p50 {result['ratio_p50']:.4f}  sign-test p {result['sign_p']:.4g}  "
          f"over {result['rounds']} rounds of {args.jobs} {args.workload} jobs; "
          f"{result['pinned_checked']} pinned digests checked, {len(problems)} mismatches")
    print(json.dumps(result, sort_keys=True))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
