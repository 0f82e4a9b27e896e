"""Workload inputs, job execution and output checks.

Job ``i`` of a workload depends only on ``(workload, seed, i)``, so the same
seed yields the same inputs whatever the run length, and a run may go on for as
many jobs as fit in its time.  The library sees only the generated inputs.

Every job returns its canonical JSON text (``dumps_canonical(x.to_json())``,
or a child's stdout for ``cli``); the worker hashes it.  ``check`` is an
independent test that holds on every seed; pinned digests (``digests/``) add a
byte-level check on the pinned seed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import oracle

WORKLOADS = ("facets", "verify", "cli")
PINNED_SEED = 0
DIGEST_DIR = Path(__file__).resolve().parent / "digests"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _rng(workload: str, seed: int, tag) -> random.Random:
    # string seeds are hashed with SHA-512, so streams do not depend on
    # PYTHONHASHSEED or on the interpreter build
    return random.Random(f"{workload}/{seed}/{tag}")


# ---------------------------------------------------------------------------
# facets: distinct inputs, no lattice enumeration, no shared work.
# ---------------------------------------------------------------------------

# Jobs cycle through these classes in order, so every run holds the same mix;
# only the inputs inside a class are random.  Sizes keep the slowest job of
# each class, seen over 3000-4000 samples per class, under 0.6 s at the seed
# commit: past them FM (Fourier-Motzkin) elimination grows without bound.
#   ("newton", nvars, max generators, max exponent)
#   ("square", nvars, max generators, max exponent)   newton of power(a, 2)
#   ("dual", rank, extra rays beyond rank, (lo, hi) ray entries)
FACET_CLASSES = (
    ("newton", 3, 5, 6),
    ("newton", 4, 4, 5),
    ("newton", 5, 4, 4),
    ("square", 2, 4, 6),
    ("square", 3, 3, 4),
    ("dual", 3, 3, (-2, 3)),
    ("dual", 4, 2, (-2, 3)),
    ("dual", 5, 1, (-1, 2)),
)


def _facets_job(seed: int, i: int):
    kind, n, extra, spread = FACET_CLASSES[i % len(FACET_CLASSES)]
    rng = _rng("facets", seed, i)
    if kind == "dual":
        lo, hi = spread
        count = rng.randint(n, n + extra)
        rays = []
        # every ray strictly on the positive side of (1,..,1): pointed; and
        # spanning R^n, so the oracle's full-dimensional check applies
        while len(rays) < count or oracle.rank(rays) < n:
            if len(rays) == count:
                rays = []
            v = tuple(rng.randint(lo, hi) for _ in range(n))
            if sum(v) > 0:
                rays.append(v)
        return ("dual", n, tuple(rays))
    gens = tuple(
        tuple(rng.randint(0, spread) for _ in range(n)) for _ in range(rng.randint(2, extra))
    )
    lam = f"{rng.randint(1, 12)}/{rng.randint(1, 6)}"
    return (kind, n, gens, lam)


def _run_facets(rm, job):
    if job[0] == "dual":
        _, rank, rays = job
        out = rm.dual_cone(rm.dual_cone(rm.Cone(rank, rays)))
        return rm.serialize.dumps_canonical(out.to_json()), out
    kind, n, gens, lam = job
    a = rm.minimalize(gens, n)
    if kind == "square":
        a = rm.power(a, 2)
    poly = rm.newton(a)
    module = rm.multiplier_module(a, Fraction(lam))
    payload = {"newton": poly.to_json(), "multiplier": module.to_json()}
    return rm.serialize.dumps_canonical(payload), (a, poly, module)


def _check_facets(job, out):
    if job[0] == "dual":
        # the double dual of a pointed full-dimensional cone is the cone
        # itself: exactly its facets, and exactly its extreme rays
        _, rank, rays = job
        normals = [h.normal for h in out.facets]
        problem = oracle.cone_facet_problem(rays, normals, rank)
        if problem is None and set(out.rays) != oracle.extreme_rays(rays, normals, rank):
            problem = "double dual rays are not the extreme rays of the cone"
        return problem
    a, poly, module = out
    problem = oracle.newton_facet_problem(
        a.generators, [(h.normal, h.threshold) for h in poly.facets], a.nvars)
    if problem is not None:
        return f"Newton polyhedron: {problem}"
    lam = Fraction(job[3])
    want = {h.normal: math.floor(lam * h.threshold) + 1 for h in poly.facets}
    if dict(module.system.constraints) != want:
        return "multiplier system is not floor(lam*c)+1 on exactly the Newton facets"
    return None


# ---------------------------------------------------------------------------
# verify: a research session over a few normal ideals; lattice enumeration
# and set comparison dominate, cones are built once and then cached.
# ---------------------------------------------------------------------------

def _all_degree(nvars: int, d: int):
    if nvars == 1:
        return ((d,),)
    return tuple(
        (e,) + rest for e in range(d, -1, -1) for rest in _all_degree(nvars - 1, d - e)
    )


VERIFY_IDEALS = (
    _all_degree(2, 2),  # (x,y)^2
    ((3, 0), (1, 1), (0, 2)),  # (x^3,xy,y^2)
    _all_degree(3, 2),  # (x,y,z)^2
    _all_degree(3, 3),  # (x,y,z)^3
    _all_degree(4, 2),  # (x1..x4)^2
)
VERIFY_MODELS = ((2, 2, (2, 3)), (2, 1, (3,)), (3, 2, (1, 2)))
LAMBDAS = ("0", "1/3", "1/2", "2/3", "1", "3/2")
LOCAL_LAMBDAS = ("0", "1/2", "5/6", "1")


# One round runs every (theorem, subject) pair once, in an order the seed
# shuffles.  Round r gives pair e the lambda grid[(r + e) % len(grid)]: the
# rounds, and so a run's mix of work, do not depend on the seed; only the
# order does, and the last, partial round.
VERIFY_MENU = (
    tuple(("B2", idx, (-1, 2)) for idx in range(len(VERIFY_IDEALS)))
    + tuple(("B1", idx, (0, 2)) for idx in range(len(VERIFY_IDEALS)))
    # A enumerates a rank-(n+1) pair box: kept to the ideals in 2-3 variables
    + tuple(("A", idx, None) for idx in range(3))
    + tuple(("local", idx, (-2, 2)) for idx in range(len(VERIFY_MODELS)))
)


@functools.lru_cache(maxsize=64)
def _round_order(workload: str, seed: int, r: int, size: int):
    order = list(range(size))
    _rng(workload, seed, f"round{r}").shuffle(order)
    return order


def _menu_index(workload, size, seed, i):
    """(menu index, round): every entry once per round, in a shuffled order."""
    r = i // size
    return _round_order(workload, seed, r, size)[i % size], r


def _verify_job(seed: int, i: int):
    e, r = _menu_index("verify", len(VERIFY_MENU), seed, i)
    theorem, idx, span = VERIFY_MENU[e]
    grid = LOCAL_LAMBDAS if theorem == "local" else LAMBDAS
    return (theorem, idx, grid[(r + e) % len(grid)], span)


def _run_verify(rm, job):
    theorem, idx, lam, span = job
    lam = Fraction(lam)
    if theorem == "local":
        n, m, exps = VERIFY_MODELS[idx]
        model = rm.LocalHypersurfaceModel(n, m, exps)
        report = rm.verify_local_decomposition(model, lam, box_deg=3, k_range=span)
    else:
        gens = VERIFY_IDEALS[idx]
        a = rm.minimalize(gens, len(gens[0]))
        if theorem == "B2":
            report = rm.verify_theoremB_T(a, lam, span)
        elif theorem == "B1":
            report = rm.verify_theoremB_S(a, lam, span)
        else:
            report = rm.verify_theoremA(a, lam)
    return rm.serialize.dumps_canonical(report.to_json()), report


def _check_verify(job, report):
    return None if report.overall else "verifier reported overall: false"


# ---------------------------------------------------------------------------
# cli: one cold `python -m reesmult` process per job, every subcommand.
# ---------------------------------------------------------------------------

_XY2 = '{"nvars":2,"generators":[[2,0],[1,1],[0,2]]}'
_X3XYY2 = '{"nvars":2,"generators":[[3,0],[1,1],[0,2]]}'
_XYZ2 = '{"nvars":3,"generators":[[2,0,0],[1,1,0],[1,0,1],[0,2,0],[0,1,1],[0,0,2]]}'
_X2Y3 = '{"nvars":2,"generators":[[2,0],[0,3]]}'  # not normal
_MODEL = '{"n":2,"m":2,"exps":[2,3]}'
RANDOM = "RANDOM"  # placeholder: a small random ideal drawn per job
LAM = "LAM"  # placeholder: a lambda drawn per job from LAMBDAS

# (argv, exit code the README defines for it)
CLI_MENU = (
    (("newton", "-i", RANDOM), 0),
    (("multiplier", "-i", RANDOM, "--lambda", LAM, "--module"), 0),
    (("multiplier", "-i", RANDOM, "--lambda", LAM, "--ideal"), 0),
    (("lct", "-i", RANDOM), 0),
    (("jumps", "-i", _X2Y3, "--max", "2"), 0),
    (("jumps", "-i", _X3XYY2, "--max", "3/2"), 0),
    (("ext-rees-cone", "-i", _XYZ2), 0),
    (("rees-cone", "-i", _X3XYY2), 0),
    (("canonical", "-i", _XY2, "--algebra", "ext-rees"), 0),
    (("canonical", "-i", _XYZ2, "--algebra", "rees"), 0),
    (("graded-piece", "-i", _XY2, "--lambda", LAM, "--k", "2"), 0),
    (("verify", "B2", "-i", _XY2, "--lambda", LAM, "--k", "-1..3"), 0),
    (("verify", "B1", "-i", _XYZ2, "--lambda", LAM, "--n", "0..1"), 0),
    (("verify", "A", "-i", _X3XYY2, "--lambda", LAM), 0),
    (("verify", "local", "-m", _MODEL, "--lambda", LAM, "--box-deg", "4"), 0),
    (("verify", "B2", "-i", _X2Y3, "--lambda", "1/2", "--closure"), 0),
    (("verify", "B2", "-i", _X2Y3, "--lambda", "1/2"), 3),
    (("rees-cone", "-i", _X2Y3), 3),
    (("newton", "-i", '{"nvars":2,"generators":[[2,0],[0,3]]'), 2),
    (("multiplier", "-i", _XY2, "--lambda", "0.5", "--module"), 2),
    (("verify", "local", "--lambda", "1/2"), 2),
)


def _cli_job(seed: int, i: int):
    argv, code = CLI_MENU[_menu_index("cli", len(CLI_MENU), seed, i)[0]]
    rng = _rng("cli", seed, i)
    out = []
    for tok in argv:
        if tok == RANDOM:
            n = rng.randint(2, 3)
            gens = [
                [rng.randint(0, 5) for _ in range(n)] for _ in range(rng.randint(2, 4))
            ]
            for g in gens:  # no unit generator: lct needs a proper ideal
                if not any(g):
                    g[rng.randrange(n)] = 1
            tok = json.dumps({"nvars": n, "generators": gens}, separators=(",", ":"))
        elif tok == LAM:
            tok = rng.choice(LAMBDAS)
        out.append(tok)
    return (tuple(out), code)


def check_cli(job, code: int, stdout: str):
    argv, want = job
    if code != want:
        return f"exit code {code}, expected {want}"
    if argv[0] == "verify" and want == 0 and json.loads(stdout).get("overall") is not True:
        return "verifier reported overall: false"
    return None


# ---------------------------------------------------------------------------


def job(workload: str, seed: int, i: int):
    if workload == "facets":
        return _facets_job(seed, i)
    if workload == "verify":
        return _verify_job(seed, i)
    return _cli_job(seed, i)


def run(rm, workload: str, job):
    """Execute one in-process job; returns (canonical JSON text, result)."""
    if workload == "facets":
        return _run_facets(rm, job)
    return _run_verify(rm, job)


def check(workload: str, job, result):
    """None when the result passes the seed-independent check, else why not."""
    if workload == "facets":
        return _check_facets(job, result)
    return _check_verify(job, result)


def describe(job) -> str:
    return json.dumps(job, separators=(",", ":"))


def pinned_digests(workload: str, seed: int) -> dict:
    """Digests pinned at the seed commit for the pinned seed, by job index."""
    path = DIGEST_DIR / f"{workload}.txt"
    if seed != PINNED_SEED or not path.exists():
        return {}
    pins = {}
    for line in path.read_text().split("\n"):
        if line and not line.startswith("#"):
            i, d = line.split()
            pins[int(i)] = d
    return pins
