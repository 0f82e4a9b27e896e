"""Polyhedral kernel: dual cones, hull facets, interiors, enumeration."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest

from reesmult import polyhedra
from reesmult.errors import DomainError, ResourceLimitError
from reesmult.polyhedra import (
    Cone,
    HalfSpace,
    Polyhedron,
    ThresholdSystem,
    cube,
    dual_cone,
    homogeneous_rays,
    irredundant_facets,
    lattice_points,
    matrix_rank,
    newton_from_points,
    primitive,
    scale,
    strict_interior_system,
)

from oracles import (
    fm_dual_cone,
    fm_full_dimensional,
    fm_irredundant_facets,
    fm_newton_from_points,
    fm_strongly_convex,
    in_hull_plus_orthant,
    strict_interior_points,
    subset_homogeneous_rays,
)


def facet_pairs(obj):
    return [(h.normal, h.threshold) for h in obj.facets]


class TestPrimitive:
    def test_gcd_division(self):
        assert primitive((2, 4, 6)) == (1, 2, 3)

    def test_identity(self):
        assert primitive((1, 0)) == (1, 0)

    def test_sign_preserved(self):
        assert primitive((-3, 6)) == (-1, 2)

    def test_zero_vector(self):
        with pytest.raises(DomainError, match="zero vector has no primitive form"):
            primitive((0, 0))


class TestHalfSpace:
    def test_normalizes(self):
        h = HalfSpace((2, 4), 3)
        assert h.normal == (1, 2)
        assert h.threshold == Fraction(3, 2)

    def test_rejects_floats(self):
        with pytest.raises(DomainError):
            HalfSpace((1, 0), 0.5)


class TestDualCone:
    def test_first_quadrant_self_dual(self):
        d = dual_cone(Cone(2, ((1, 0), (0, 1))))
        assert d.rays == ((0, 1), (1, 0))
        assert [h.normal for h in d.facets] == [(0, 1), (1, 0)]

    def test_dual_of_ray_is_halfplane(self):
        d = dual_cone(Cone(2, ((1, 0),)))
        assert d.rays == ((0, -1), (0, 1), (1, 0))
        assert [h.normal for h in d.facets] == [(1, 0)]
        assert not d.strongly_convex

    def test_dual_2112(self):
        # brute-force: box points pair >= 0 against the input rays iff they
        # pair >= 0 against the claimed dual generators
        c = Cone(2, ((2, 1), (1, 2)))
        d = dual_cone(c)
        assert d.rays == ((-1, 2), (2, -1))
        for m in itertools.product(range(-5, 6), repeat=2):
            in_dual_def = all(sum(a * b for a, b in zip(m, r)) >= 0 for r in c.rays)
            by_facets = all(h.eval(m) >= 0 for h in d.facets)
            assert in_dual_def == by_facets

    def test_rank_guard(self):
        rays = tuple(tuple(1 if j == i else 0 for j in range(13)) for i in range(13))
        with pytest.raises(ResourceLimitError):
            dual_cone(Cone(13, rays))

    def test_trivial_cone(self):
        d = dual_cone(Cone(2, ()))
        assert d.facets == ()
        assert set(d.rays) == {(1, 0), (0, 1), (-1, 0), (0, -1)}


def random_pointed_cone(rng, rank):
    while True:
        nrays = rng.randint(1, rank + 2)
        rays = []
        for _ in range(nrays):
            v = tuple(rng.randint(-9, 9) for _ in range(rank))
            if any(v):
                rays.append(v)
        if not rays:
            continue
        if matrix_rank(rays) != rank:
            continue
        c = Cone(rank, tuple(rays))
        if c.strongly_convex:
            return c


class TestDualityInvolution:
    def test_random_cones(self):
        rng = random.Random(20250810)
        for _ in range(40):
            rank = rng.randint(2, 4)
            c = random_pointed_cone(rng, rank)
            d1 = dual_cone(c)
            d2 = dual_cone(d1)
            d3 = dual_cone(d2)
            assert facet_pairs(d3) == facet_pairs(d1)
            # the double dual contains the original rays, and its own rays
            # pair nonnegatively against the dual's generators
            for r in c.rays:
                assert all(h.eval(r) >= 0 for h in d2.facets)
            for r in d2.rays:
                assert all(sum(a * b for a, b in zip(r, u)) >= 0 for u in d1.rays)
            box = [range(-3, 4)] * rank
            for m in itertools.product(*box):
                in_dual = all(sum(a * b for a, b in zip(m, r)) >= 0 for r in c.rays)
                assert in_dual == all(h.eval(m) >= 0 for h in d1.facets)
                in_double = all(sum(a * b for a, b in zip(m, u)) >= 0 for u in d1.rays)
                assert in_double == all(h.eval(m) >= 0 for h in d2.facets)


class TestIrredundantFacets:
    def test_positive_combination_removed(self):
        p = Polyhedron(2, (HalfSpace((1, 0), 0), HalfSpace((0, 1), 0), HalfSpace((1, 1), 0)))
        q = irredundant_facets(p)
        assert [h.normal for h in q.facets] == [(0, 1), (1, 0)]

    def test_already_irredundant(self):
        p = Polyhedron(2, (HalfSpace((1, 0), 0), HalfSpace((0, 1), 0)))
        assert facet_pairs(irredundant_facets(p)) == facet_pairs(p)

    def test_newton_facets_all_kept(self):
        p = newton_from_points([(2, 0), (0, 3)], 2)
        q = irredundant_facets(
            Polyhedron(2, tuple(HalfSpace(h.normal, h.threshold) for h in p.facets))
        )
        assert facet_pairs(q) == facet_pairs(p)
        assert len(q.facets) == 3

    def test_not_full_dimensional(self):
        p = Polyhedron(2, (HalfSpace((1, 0), 0), HalfSpace((-1, 0), 0)))
        with pytest.raises(DomainError, match="interior undefined: not full-dimensional"):
            irredundant_facets(p)

    def test_duplicate_normals_keep_strongest(self):
        p = Polyhedron(1, (HalfSpace((1,), 3), HalfSpace((1,), 5)))
        q = irredundant_facets(p)
        assert facet_pairs(q) == [((1,), Fraction(5))]


class TestNewtonFromPoints:
    def test_x2_y3(self):
        p = newton_from_points([(2, 0), (0, 3)], 2)
        assert facet_pairs(p) == [
            ((0, 1), Fraction(0)),
            ((1, 0), Fraction(0)),
            ((3, 2), Fraction(6)),
        ]

    def test_unit(self):
        p = newton_from_points([(0, 0)], 2)
        assert [h.normal for h in p.facets] == [(0, 1), (1, 0)]

    def test_degree_two(self):
        p = newton_from_points([(2, 0), (1, 1), (0, 2)], 2)
        assert facet_pairs(p) == [
            ((0, 1), Fraction(0)),
            ((1, 0), Fraction(0)),
            ((1, 1), Fraction(2)),
        ]

    def test_empty(self):
        with pytest.raises(DomainError, match="zero ideal has no Newton polyhedron"):
            newton_from_points([], 2)

    def test_negative_point(self):
        with pytest.raises(DomainError):
            newton_from_points([(1, -1)], 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_against_membership_oracle(self, seed):
        # soundness and completeness of the facet system on a box,
        # against the Caratheodory dominance oracle
        rng = random.Random(900 + seed)
        rank = rng.choice((2, 2, 3))
        pts = [
            tuple(rng.randint(0, 6) for _ in range(rank))
            for _ in range(rng.randint(1, 4))
        ]
        p = newton_from_points(pts, rank)
        hi = max(max(pt) for pt in pts) + 3
        for m in itertools.product(range(-2, hi + 1), repeat=rank):
            by_facets = all(h.holds(m) for h in p.facets)
            by_oracle = in_hull_plus_orthant(m, pts)
            assert by_facets == by_oracle, (pts, m)

    @pytest.mark.parametrize("seed", range(8))
    def test_facet_shape(self, seed):
        # Newton facets have nonnegative primitive normals and
        # nonnegative integer thresholds
        rng = random.Random(1700 + seed)
        rank = rng.choice((2, 3))
        pts = [
            tuple(rng.randint(0, 6) for _ in range(rank))
            for _ in range(rng.randint(1, 4))
        ]
        for h in newton_from_points(pts, rank).facets:
            assert all(e >= 0 for e in h.normal)
            assert h.threshold.denominator == 1
            assert h.threshold >= 0


class TestScale:
    def test_halves_thresholds(self):
        p = newton_from_points([(2, 0), (0, 3)], 2)
        s = scale(p, Fraction(1, 2))
        assert ((3, 2), Fraction(3)) in facet_pairs(s)

    def test_cone_invariant(self):
        p = newton_from_points([(0, 0)], 2)
        assert facet_pairs(scale(p, 7)) == facet_pairs(p)

    def test_zero_gives_recession(self):
        p = newton_from_points([(2, 0), (0, 3)], 2)
        z = scale(p, 0)
        assert all(h.threshold == 0 for h in z.facets)
        sys = strict_interior_system(z)
        assert sys.constraints == (((0, 1), 1), ((1, 0), 1))

    def test_negative_rejected(self):
        p = newton_from_points([(1, 0)], 2)
        with pytest.raises(DomainError):
            scale(p, Fraction(-1, 2))

    def test_float_rejected(self):
        p = newton_from_points([(1, 0)], 2)
        with pytest.raises(DomainError):
            scale(p, 0.5)

    def test_composition(self):
        p = newton_from_points([(2, 0), (1, 1), (0, 2)], 2)
        lam1, lam2 = Fraction(3, 2), Fraction(5, 7)
        assert facet_pairs(scale(p, lam1 * lam2)) == facet_pairs(scale(scale(p, lam1), lam2))


class TestStrictInterior:
    def test_orthant(self):
        p = newton_from_points([(0, 0)], 2)
        assert strict_interior_system(p).constraints == (((0, 1), 1), ((1, 0), 1))

    def test_integer_threshold(self):
        p = newton_from_points([(2, 0), (0, 3)], 2)
        assert strict_interior_system(p).constraints == (
            ((0, 1), 1),
            ((1, 0), 1),
            ((3, 2), 7),
        )

    def test_fractional_threshold(self):
        p = scale(newton_from_points([(2, 0), (0, 3)], 2), Fraction(5, 6))
        sys = strict_interior_system(p)
        assert (((3, 2), 6)) in sys.constraints
        # agreement with the strict rational filter
        box = cube(2, 0, 6)
        facets = [(h.normal, h.threshold) for h in p.facets]
        assert lattice_points(sys, box) == strict_interior_points(facets, box)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_scaled_newtons(self, seed):
        rng = random.Random(7100 + seed)
        rank = rng.choice((2, 3))
        pts = [
            tuple(rng.randint(0, 5) for _ in range(rank))
            for _ in range(rng.randint(1, 4))
        ]
        lam = Fraction(rng.randint(0, 24), rng.randint(1, 8))
        p = scale(newton_from_points(pts, rank), lam)
        sys = strict_interior_system(p)
        box = cube(rank, 0, 9)
        facets = [(h.normal, h.threshold) for h in irredundant_facets(p).facets]
        assert lattice_points(sys, box) == strict_interior_points(facets, box)


class TestLatticePoints:
    def test_simple(self):
        sys = ThresholdSystem(2, (((1, 0), 1), ((0, 1), 1)))
        assert lattice_points(sys, cube(2, 0, 2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_with_slanted_constraint(self):
        sys = ThresholdSystem(2, (((3, 2), 7), ((1, 0), 1), ((0, 1), 1)))
        assert lattice_points(sys, cube(2, 0, 3)) == [
            (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
        ]

    def test_no_constraints(self):
        sys = ThresholdSystem(1, ())
        assert lattice_points(sys, ((0, 1),)) == [(0,), (1,)]

    def test_sorted_lex_and_matches_bruteforce(self):
        rng = random.Random(33)
        for _ in range(15):
            rank = rng.choice((2, 3))
            cons = tuple(
                (
                    tuple(rng.randint(-2, 3) for _ in range(rank)),
                    rng.randint(-4, 6),
                )
                for _ in range(rng.randint(1, 3))
            )
            cons = tuple(c for c in cons if any(c[0]))
            sys = ThresholdSystem(rank, cons)
            box = tuple((rng.randint(-3, 0), rng.randint(1, 4)) for _ in range(rank))
            got = lattice_points(sys, box)
            want = [
                m
                for m in itertools.product(*(range(lo, hi + 1) for lo, hi in box))
                if sys.satisfies(m)
            ]
            assert got == want
            assert got == sorted(got)

    def test_volume_guard(self):
        sys = ThresholdSystem(2, ())
        with pytest.raises(ResourceLimitError):
            lattice_points(sys, cube(2, 0, 10), max_points=50)

    def test_guard_env_override(self, monkeypatch):
        sys = ThresholdSystem(2, ())
        monkeypatch.setenv("REESMULT_MAX_POINTS", "50")
        with pytest.raises(ResourceLimitError):
            lattice_points(sys, cube(2, 0, 10))
        monkeypatch.setenv("REESMULT_MAX_POINTS", "1000")
        assert len(lattice_points(sys, cube(2, 0, 10))) == 121

    def test_bad_box(self):
        sys = ThresholdSystem(1, ())
        with pytest.raises(DomainError):
            lattice_points(sys, ((2, 1),))

    def test_infeasible_system(self):
        sys = ThresholdSystem(2, (((0, 0), 5),))
        assert sys.infeasible
        assert lattice_points(sys, cube(2, 0, 3)) == []


class TestThresholdSystem:
    def test_canonicalization_ceiling(self):
        # <(2,0), m> >= 5 over integers is <(1,0), m> >= 3
        sys = ThresholdSystem(2, (((2, 0), 5),))
        assert sys.constraints == (((1, 0), 3),)

    def test_duplicate_normals_keep_max(self):
        sys = ThresholdSystem(1, (((1,), 2), ((1,), 5)))
        assert sys.constraints == (((1,), 5),)

    def test_substitute_last(self):
        sys = ThresholdSystem(3, (((1, 1, -2), 1), ((1, 0, 0), 1)))
        piece = sys.substitute_last(3)
        assert piece.constraints == (((1, 0), 1), ((1, 1), 7))

    def test_substitute_infeasible(self):
        sys = ThresholdSystem(2, (((0, 1), 1),))
        piece = sys.substitute_last(0)
        assert piece.infeasible


class TestFacetRemovalStrictness:
    """Each kept facet is genuinely irredundant: a (possibly refined-grid)
    rational point satisfies the others and violates it, and the
    membership oracle confirms that point lies outside the hull."""

    def _witness(self, facets, removed, rank, hi):
        others = [h for h in facets if h is not removed]
        denominators = (1, 2, 3, 4, 6)
        for d in denominators:
            lo = -3 * d
            hi_d = hi * d
            for m in itertools.product(range(lo, hi_d + 1), repeat=rank):
                x = tuple(Fraction(e, d) for e in m)
                if not removed.holds(x) and all(h.holds(x) for h in others):
                    return x
        return None

    @pytest.mark.parametrize("seed", range(6))
    def test_random_newtons(self, seed):
        rng = random.Random(4500 + seed)
        rank = 2
        pts = [
            tuple(rng.randint(0, 5) for _ in range(rank))
            for _ in range(rng.randint(1, 4))
        ]
        p = newton_from_points(pts, rank)
        hi = max(int(h.threshold) + sum(map(abs, h.normal)) for h in p.facets) + 2
        for h in p.facets:
            w = self._witness(p.facets, h, rank, hi)
            assert w is not None, (pts, h)
            assert not in_hull_plus_orthant(w, pts)

    def test_spec_example(self):
        p = newton_from_points([(2, 0), (0, 3)], 2)
        for h in p.facets:
            w = self._witness(p.facets, h, 2, 9)
            assert w is not None
            assert not in_hull_plus_orthant(w, [(2, 0), (0, 3)])


def random_cone(rng, rank, pointed):
    """Random rays spanning any subspace; a non-pointed cone gets a line."""
    while True:
        rays = [
            tuple(rng.randint(-4, 4) for _ in range(rank))
            for _ in range(rng.randint(1, rank + 2))
        ]
        rays = [r for r in rays if any(r)]
        if not rays:
            continue
        if not pointed:
            rays.append(tuple(-e for e in rays[0]))
        c = Cone(rank, tuple(rays))
        if c.strongly_convex == pointed:
            return c


class TestDoubleDescriptionAgainstFM:
    """Exact facet and ray lists of the double description kernel against
    the Fourier-Motzkin reference kernel in ``oracles``."""

    @pytest.mark.parametrize("rank", (2, 3, 4, 5))
    def test_newton_from_points(self, rank):
        rng = random.Random(5100 + rank)
        for _ in range(25):
            pts = [
                tuple(rng.randint(0, 6) for _ in range(rank))
                for _ in range(rng.randint(1, 4))
            ]
            assert facet_pairs(newton_from_points(pts, rank)) == facet_pairs(
                fm_newton_from_points(pts, rank)
            ), pts

    @pytest.mark.parametrize("rank", (2, 3, 4, 5))
    def test_newton_of_squares(self, rank):
        # pairwise sums put many points on one facet: degenerate inputs,
        # where adjacency needs the combinatorial test
        rng = random.Random(5150 + rank)
        units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        for trial in range(10):
            base = units if trial == 0 else [
                tuple(rng.randint(0, 3) for _ in range(rank)) for _ in range(3)
            ]
            pts = sorted({
                tuple(a + b for a, b in zip(p, q))
                for p, q in itertools.combinations_with_replacement(base, 2)
            })
            assert facet_pairs(newton_from_points(pts, rank)) == facet_pairs(
                fm_newton_from_points(pts, rank)
            ), pts

    @pytest.mark.parametrize("rank", (2, 3, 4, 5))
    @pytest.mark.parametrize("pointed", (True, False))
    def test_dual_cone(self, rank, pointed):
        rng = random.Random(5200 + 10 * rank + pointed)
        for _ in range(15):
            c = random_cone(rng, rank, pointed)
            assert c.strongly_convex == fm_strongly_convex(c)
            got, want = dual_cone(c), fm_dual_cone(c)
            assert got.rays == want.rays, c.rays
            assert facet_pairs(got) == facet_pairs(want), c.rays
            assert got.strongly_convex == fm_strongly_convex(got)

    @pytest.mark.parametrize("rank", (1, 2, 3, 4))
    def test_homogeneous_rays(self, rank):
        rng = random.Random(5300 + rank)
        for _ in range(20):
            normals = [
                tuple(rng.randint(-3, 3) for _ in range(rank))
                for _ in range(rng.randint(0, rank + 2))
            ]
            normals = sorted({primitive(v) for v in normals if any(v)})
            assert homogeneous_rays(normals, rank) == subset_homogeneous_rays(
                normals, rank
            ), normals

    @pytest.mark.parametrize("rank", (1, 2, 3, 4))
    def test_irredundant_facets(self, rank):
        # redundant rows (positive combinations and weakened thresholds),
        # exact duplicates and rational thresholds
        rng = random.Random(5400 + rank)
        for _ in range(20):
            rows = []
            for _ in range(rng.randint(1, rank + 3)):
                normal = tuple(rng.randint(-3, 3) for _ in range(rank))
                if any(normal):
                    rows.append(HalfSpace(normal, Fraction(rng.randint(-6, 6), rng.randint(1, 4))))
            if not rows:
                continue
            for _ in range(rng.randint(0, 3)):
                g, h = rng.choice(rows), rng.choice(rows)
                normal = tuple(a + b for a, b in zip(g.normal, h.normal))
                if any(normal):
                    rows.append(HalfSpace(normal, g.threshold + h.threshold - rng.randint(0, 2)))
            # an equal copy; the reference sweep skips rows by identity
            dup = rng.choice(rows)
            rows.append(HalfSpace(dup.normal, dup.threshold))
            p = Polyhedron(rank, tuple(rows))
            assert p.full_dimensional() == fm_full_dimensional(p)
            if not p.full_dimensional():
                with pytest.raises(DomainError):
                    irredundant_facets(p)
                continue
            assert facet_pairs(irredundant_facets(p)) == facet_pairs(
                fm_irredundant_facets(p)
            ), facet_pairs(p)

    def test_ray_guard(self, monkeypatch):
        monkeypatch.setattr(polyhedra, "MAX_DD_RAYS", 8)
        with pytest.raises(ResourceLimitError, match="double description"):
            newton_from_points([(2, 0, 1, 3), (0, 3, 2, 1), (1, 1, 0, 2)], 4)

    def test_five_variable_ideal(self):
        # Fourier-Motzkin took minutes on this one
        pts = [(1, 5, 9, 0, 4), (2, 1, 6, 8, 2), (2, 6, 5, 2, 0),
               (6, 4, 2, 7, 9), (7, 4, 4, 7, 6), (7, 5, 2, 1, 7)]
        start = time.perf_counter()
        p = newton_from_points(pts, 5)
        assert time.perf_counter() - start < 1.0
        assert len(p.facets) == 31
        for h in p.facets:
            assert all(h.holds(pt) for pt in pts)
