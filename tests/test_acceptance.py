"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All checks are exact (zero tolerance); the only numeric bounds are the
per-criterion wall-clock limits.
"""

from __future__ import annotations

import itertools
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction


from reesmult.ideals import jumping_numbers, lct, minimalize, newton, power
from reesmult.polyhedra import (
    ThresholdSystem,
    cube,
    dual_cone,
    irredundant_facets,
    lattice_points,
    newton_from_points,
    scale,
    strict_interior_system,
)
from reesmult.rees import (
    extended_rees_cone,
    rees_cone,
    verify_theoremA,
    verify_theoremB_S,
    verify_theoremB_T,
)
from reesmult.hypersurface import LocalHypersurfaceModel, verify_local_decomposition

from oracles import in_hull_plus_orthant, strict_interior_points
from test_polyhedra import random_pointed_cone

IDEALS_2V = [
    minimalize([(1, 0), (0, 1)]),
    minimalize([(2, 0), (1, 1), (0, 2)]),
    minimalize([(3, 0), (2, 1), (1, 2), (0, 3)]),
    minimalize([(2, 0), (1, 1), (0, 2)]),  # (x^2, xy, y^2), same ideal as (x,y)^2
]
IDEALS_3V = [
    minimalize([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    minimalize([(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]),
]
GRID = IDEALS_2V + IDEALS_3V
LAMBDAS_B = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2)]
LAMBDAS_A = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]


@contextmanager
def criterion(num, desc, limit):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        print(f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'} in {elapsed:.2f}s")
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_integer_threshold_identity():
    with criterion(1, "integer threshold identity", 1.0):
        rng = random.Random(101)
        for _ in range(10_000):
            b = rng.randint(-1000, 1000)
            a = rng.randint(-1000, 1000)
            lam = Fraction(rng.randint(0, 1000), rng.randint(1, 100))
            if lam > 10:
                lam = Fraction(lam.numerator % (10 * lam.denominator), lam.denominator)
            assert (b > lam * a) == (b >= 1 + math.floor(lam * a))


def test_criterion_2_extended_rees_decomposition():
    with criterion(2, "extended Rees graded decomposition", 30.0):
        for a in GRID:
            facets = [
                (h.normal, int(h.threshold))
                for h in newton(a).facets
                if h.threshold > 0
            ]
            for lam in LAMBDAS_B:
                report = verify_theoremB_T(a, lam, (-3, 6))
                assert report.overall, (a, lam, report.to_json())
                assert report.details["thresholdsIdentical"], (a, lam)
                # symbolic identity, independent of any box
                for _, c in facets:
                    for k in range(-3, 7):
                        assert c * k + math.floor(lam * c) + 1 == math.floor(
                            (k + lam) * c
                        ) + 1


def test_criterion_3_rees_decomposition():
    with criterion(3, "Rees graded decomposition", 30.0):
        for a in GRID:
            for lam in LAMBDAS_B:
                report = verify_theoremB_S(a, lam, (0, 5))
                assert report.overall, (a, lam, report.to_json())
                assert report.details["degreeZeroEmpty"], (a, lam)


def test_criterion_4_local_hypersurface_identity():
    models = [
        LocalHypersurfaceModel(1, 1, (1,)),
        LocalHypersurfaceModel(1, 1, (3,)),
        LocalHypersurfaceModel(2, 2, (2, 3)),
        LocalHypersurfaceModel(3, 2, (1, 2)),
    ]
    lams = [Fraction(0), Fraction(1, 2), Fraction(5, 6), Fraction(1)]
    with criterion(4, "local hypersurface identity", 20.0):
        for model in models:
            for lam in lams:
                report = verify_local_decomposition(
                    model, lam, box_deg=6, k_range=(-4, 4)
                )
                assert report.overall, (model, lam)
                assert report.details["inconclusive"] == [], (model, lam)


def test_criterion_5_pair_rationality_biconditional():
    with criterion(5, "pair rationality biconditional", 10.0):
        for a in GRID:
            for lam in LAMBDAS_A:
                report = verify_theoremA(a, lam)
                assert report.overall, (a, lam, report.details)


def test_criterion_6_lct_and_jumping_numbers():
    with criterion(6, "lct and jumping numbers", 10.0):
        x2y3 = minimalize([(2, 0), (0, 3)])
        assert lct(x2y3) == Fraction(5, 6)
        # frozen from the stated oracle (full box enumeration at every
        # candidate t/6); see the decisions ledger for the discrepancy
        # with the inline set quoted by the criterion
        report = jumping_numbers(x2y3, 2)
        assert report.jumps == (
            Fraction(5, 6), Fraction(7, 6), Fraction(4, 3), Fraction(3, 2),
            Fraction(5, 3), Fraction(11, 6), Fraction(2),
        )
        assert report.warnings == ()
        # independent re-derivation: strict rational comparisons, no floors
        all_facets = [(h.normal, h.threshold) for h in newton(x2y3).facets]
        for cand in report.candidates:
            eps = Fraction(1, 12)
            before = strict_interior_points(
                [(w, (cand - eps) * c) for w, c in all_facets], report.box
            )
            at = strict_interior_points(
                [(w, cand * c) for w, c in all_facets], report.box
            )
            assert (before != at) == (cand in report.jumps)
        # lct of maximal ideals
        assert lct(minimalize([(1, 0), (0, 1)])) == 2
        assert lct(minimalize([(1, 0, 0), (0, 1, 0), (0, 0, 1)])) == 3
        # periodicity within (0, 3]
        for a in (x2y3, minimalize([(1, 0), (0, 1)]),
                  minimalize([(1, 0, 0), (0, 1, 0), (0, 0, 1)])):
            jumps = jumping_numbers(a, 3).jumps
            for j in jumps:
                if j + 1 <= 3:
                    assert j + 1 in jumps, (a, j)


def test_criterion_7_polyhedral_kernel_soundness():
    with criterion(7, "polyhedral kernel soundness", 30.0):
        rng = random.Random(70707)
        # duality involution on 200 random cones
        for _ in range(200):
            rank = rng.randint(2, 4)
            c = random_pointed_cone(rng, rank)
            d1 = dual_cone(c)
            d2 = dual_cone(d1)
            d3 = dual_cone(d2)
            assert [(h.normal, h.threshold) for h in d3.facets] == [
                (h.normal, h.threshold) for h in d1.facets
            ]
            for m in itertools.product(range(-2, 3), repeat=rank):
                in_dual = all(sum(x * y for x, y in zip(m, r)) >= 0 for r in c.rays)
                assert in_dual == all(h.eval(m) >= 0 for h in d1.facets)
        # interior vs brute force on 100 random scaled Newton polyhedra
        for _ in range(100):
            nvars = rng.choice((2, 3))
            pts = [
                tuple(rng.randint(0, 6) for _ in range(nvars))
                for _ in range(rng.randint(1, 4))
            ]
            lam = Fraction(rng.randint(0, 18), rng.randint(1, 6))
            p = scale(newton_from_points(pts, nvars), lam)
            box = cube(nvars, 0, 8)
            got = lattice_points(strict_interior_system(p), box)
            facets = [
                (h.normal, h.threshold) for h in irredundant_facets(p).facets
            ]
            assert got == strict_interior_points(facets, box)
        # facet-removal strictness on small Newton polyhedra
        for _ in range(30):
            pts = [
                tuple(rng.randint(0, 5) for _ in range(2))
                for _ in range(rng.randint(1, 4))
            ]
            p = newton_from_points(pts, 2)
            hi = max(int(h.threshold) + sum(map(abs, h.normal)) for h in p.facets) + 2
            for h in p.facets:
                others = [g for g in p.facets if g is not h]
                witness = None
                for d in (1, 2, 3, 4, 6):
                    for m in itertools.product(range(-3 * d, hi * d + 1), repeat=2):
                        x = (Fraction(m[0], d), Fraction(m[1], d))
                        if not h.holds(x) and all(g.holds(x) for g in others):
                            witness = x
                            break
                    if witness:
                        break
                assert witness is not None, (pts, h)
                assert not in_hull_plus_orthant(witness, pts)


def test_criterion_8_toric_slice_validation():
    with criterion(8, "toric slice validation", 30.0):
        for a in GRID:
            box = cube(a.nvars, 0, a.max_entry() * 3 + 2)
            everything = lattice_points(ThresholdSystem(a.nvars, ()), box)
            ext = extended_rees_cone(a)
            res = rees_cone(a)
            for k in range(-2, 4):
                got = lattice_points(ext.cone.substitute_last(k), box)
                if k <= 0:
                    assert got == everything, (a, k)
                else:
                    ak = power(a, k)
                    assert got == [m for m in everything if ak.contains_exponent(m)]
            for k in range(0, 4):
                got = lattice_points(res.cone.substitute_last(k), box)
                if k == 0:
                    assert got == everything, (a, k)
                else:
                    ak = power(a, k)
                    assert got == [m for m in everything if ak.contains_exponent(m)]


def test_criterion_9_determinism_across_parallelism():
    with criterion(9, "byte-identical reports across repeated runs", 60.0):
        commands = [
            ["verify", "B2", "-i", '{"nvars":2,"generators":[[2,0],[1,1],[0,2]]}',
             "--lambda", "1/2", "--k", "-2..4"],
            ["verify", "B1", "-i", '{"nvars":2,"generators":[[1,0],[0,1]]}',
             "--lambda", "1/3", "--n", "0..3"],
            ["verify", "A", "-i", '{"nvars":2,"generators":[[2,0],[1,1],[0,2]]}',
             "--lambda", "1/2"],
            ["verify", "local", "-m", '{"n":2,"m":2,"exps":[2,3]}', "--lambda", "1/2"],
            ["jumps", "-i", '{"nvars":2,"generators":[[2,0],[0,3]]}', "--max", "2"],
        ]
        for cmd in commands:
            outputs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "reesmult", *cmd],
                    capture_output=True,
                )
                assert proc.returncode in (0, 1), proc.stderr
                outputs.append(proc.stdout)
            assert outputs[0] == outputs[1], cmd
