"""Polyhedral kernel: dual cones, hull facets, interiors, enumeration."""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reesmult import polyhedra
from reesmult.errors import DomainError, ParseError, ResourceLimitError
from reesmult.hypersurface import LocalHypersurfaceModel
from reesmult.ideals import (
    OMEGA,
    MonomialIdeal,
    MonomialModule,
    default_box,
    minimalize,
    module_contains,
    systems_equal,
)
from reesmult.polyhedra import (
    POINT_GUARD_ENV,
    Cone,
    HalfSpace,
    Polyhedron,
    ThresholdSystem,
    compare_runs,
    compare_systems,
    cube,
    dot,
    dual_cone,
    homogeneous_rays,
    irredundant_facets,
    lattice_count,
    lattice_points,
    lattice_runs,
    newton_from_points,
    primitive,
    unit_vectors,
)
from reesmult.rees import extended_rees_cone, graded_piece, multiplier_module_principal
from reesmult.serialize import frac_str

import oracles
from oracles import (
    brute_lattice_points,
    cube_count_at_least,
    dd_reference,
    dual_cone_by_two_runs,
    facet_rows_by_rank,
    facet_rows_reference,
    first_mismatch,
    fm_dual_cone,
    fm_full_dimensional,
    fm_irredundant_facets,
    fm_newton_from_points,
    fm_strongly_convex,
    homogeneous_rays_by_kernel_basis,
    in_hull_plus_orthant,
    kernel_basis,
    matrix_rank,
    reduced_fields_reference,
    reduced_system,
    scale,
    strict_interior_points,
    strict_interior_system,
    subset_homogeneous_rays,
    substitute_last_reference,
)


def facet_pairs(obj):
    return [(h.normal, h.threshold) for h in obj.facets]


def is_pointed(c):
    """``c`` holds no line: the cone cut out by its rays is full-dimensional."""
    return polyhedra._facet_rows(c.rays, c.rank) is not None


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


class TestCanonicalNumbers:
    """A threshold or vertex entry is an int when it is integral, else a
    Fraction in lowest terms, whatever exact type it was passed as."""

    def test_integral_threshold_is_int(self):
        h = HalfSpace((2, 4), 6)
        assert h.normal == (1, 2)
        assert type(h.threshold) is int and h.threshold == 3

    def test_non_integral_threshold_is_fraction(self):
        h = HalfSpace((2, 4), 3)
        assert type(h.threshold) is Fraction and h.threshold == Fraction(3, 2)

    @pytest.mark.parametrize("normal", [(1, 2), (2, 4), (-3, 0, 6)])
    @pytest.mark.parametrize("value", [6, Fraction(6), Fraction(-5, 2)])
    def test_same_record_whatever_type(self, normal, value):
        variants = [value, Fraction(value), Fraction(2 * value.numerator, 2 * value.denominator),
                    f"{value.numerator}/{value.denominator}"]
        records = [HalfSpace(normal, t) for t in variants]
        assert len(set(records)) == 1
        assert len({hash(h) for h in records}) == 1
        assert len({repr(h) for h in records}) == 1
        assert all(type(h.threshold) is type(records[0].threshold) for h in records)

    def test_vertices_canonical(self):
        facets = (HalfSpace((1, 0), 0), HalfSpace((0, 1), 0))
        p = Polyhedron(2, facets, vertices=((Fraction(4, 2), Fraction(1, 2)), (3, True)))
        assert p.vertices == ((2, Fraction(1, 2)), (3, 1))
        assert [[type(e) for e in v] for v in p.vertices] == [[int, Fraction], [int, int]]
        assert p == Polyhedron(2, facets, vertices=((2, Fraction(1, 2)), (3, 1)))
        assert repr(p) == repr(Polyhedron(2, facets, vertices=(("2", "1/2"), (3, 1))))

    @pytest.mark.parametrize("make", [
        lambda: HalfSpace((1, 0), 2.0),
        lambda: HalfSpace((2, 4), 0.5),
        lambda: Polyhedron(1, (HalfSpace((1,), 0),), vertices=((1.0,),)),
        lambda: Polyhedron(2, (HalfSpace((1, 0), 0),), vertices=((1, 0.5),)),
    ], ids=["threshold", "threshold-divided", "vertex", "vertex-mixed"])
    def test_floats_refused(self, make):
        with pytest.raises(DomainError):
            make()


def test_interior_threshold_against_floor():
    """``interior_threshold(lam, c)`` is floor(lam * c) + 1 as an int, for
    lam >= 0 (0 included, int or Fraction) and c of either sign, int or Fraction."""
    rng = random.Random(16)
    big = 2 ** 70
    for trial in range(6000):
        lam = rng.choice((Fraction(0), 0, rng.randint(0, 9),
                          Fraction(rng.randint(0, 80), rng.randint(1, 12)),
                          Fraction(rng.randint(0, big), rng.randint(1, big))))
        c = rng.choice((rng.randint(-40, 40), rng.randint(-big, big),
                        Fraction(rng.randint(-90, 90), rng.randint(1, 9)),
                        Fraction(rng.randint(-big, big), rng.randint(1, big))))
        got = polyhedra.interior_threshold(lam, c)
        assert type(got) is int and got == math.floor(lam * c) + 1, (lam, c)


@pytest.mark.parametrize("lam, want", [
    (0, Fraction(0)), (True, Fraction(1)), ("-0", Fraction(0)),
    ("-1/2", "^lambda must be nonnegative$"), (Fraction(-1, 3), "^lambda must be nonnegative$"),
    (0.5, "no floating point"),
], ids=["zero", "true", "minus-zero", "negative-string", "negative-fraction", "float"])
def test_as_exponent(lam, want):
    if isinstance(want, str):
        with pytest.raises(DomainError, match=want):
            polyhedra.as_exponent(lam)
    else:
        got = polyhedra.as_exponent(lam)
        assert type(got) is Fraction and got == want


def _int_vector(rng, rank):
    """Entries mixing zeros, small values of either sign and values above 2**64,
    sometimes all scaled by a common factor so the gcd exceeds 1."""
    pick = (lambda: 0, lambda: rng.randint(-9, 9),
            lambda: rng.choice((-1, 1)) * rng.randint(2 ** 64, 2 ** 80))
    vec = [rng.choice(pick)() for _ in range(rank)]
    factor = rng.choice((1, 1, 6, -4, 2 ** 65))
    return tuple(e * factor for e in vec)


def _outcome(f, *args):
    try:
        return f(*args)
    except DomainError as exc:
        return DomainError, str(exc)


class TestIntegerHelpersAgainstReferences:
    """``dot``, ``primitive``, ``_combine`` and ``frac_str`` give what their
    generator-based predecessors in ``oracles`` give, on every integer input."""

    def test_dot_primitive_and_combine(self):
        rng = random.Random(14)
        for trial in range(3000):
            rank = 1 + trial % 6
            u, v = _int_vector(rng, rank), _int_vector(rng, rank)
            a, b = rng.randint(-7, 7), rng.choice((rng.randint(-7, 7), 2 ** 70 + 1))
            if trial % 10 == 0:  # a*u + b*v = 0
                v, b = u, -a
            assert dot(u, v) == oracles.dot_reference(u, v)
            for w in (u, list(v)):
                assert _outcome(primitive, w) == _outcome(oracles.primitive_reference, w)
            assert (_outcome(polyhedra._combine, a, u, b, v)
                    == _outcome(oracles.combine_reference, a, u, b, v))
        assert _outcome(primitive, ()) == _outcome(oracles.primitive_reference, ())

    def test_results_are_int_tuples(self):
        for out in (primitive([4, -6, 2 ** 66]), primitive((True, False)),
                    polyhedra._combine(3, (1, 2), -1, (3, 0))):
            assert type(out) is tuple and all(type(e) is int for e in out)

    def test_frac_str(self):
        rng = random.Random(15)
        values = [True, False, 0, -1, 2 ** 70, Fraction(6, 3), Fraction(-5, 2),
                  Fraction(0), Fraction(2 ** 65 + 1, 2 ** 64), "7/14"]
        values += [rng.randint(-2 ** 70, 2 ** 70) for _ in range(300)]
        values += [Fraction(rng.randint(-2 ** 70, 2 ** 70), rng.randint(1, 12))
                   for _ in range(300)]
        for x in values:
            assert frac_str(x) == oracles.frac_str_reference(x), x


@pytest.mark.parametrize("make", [
    lambda: ThresholdSystem(2, [((1, 1), Fraction(5, 2))]),
    lambda: ThresholdSystem(2, [((1, 1), Fraction(3))]),
    lambda: ThresholdSystem(2, [((1, 1), 2.0)]),
    lambda: ThresholdSystem(2, [((0.5, 1), 1)]),
    lambda: HalfSpace((0.5, 1), 0),
    lambda: HalfSpace((Fraction(1, 2), 1), 0),
    lambda: Cone(2, [(0.9, 1)]),
    lambda: Cone(2, [(1, 1)], (HalfSpace((1, 0.0), 0),)),
    lambda: primitive((1.5, 2)),
    lambda: primitive((Fraction(2), 4)),
    lambda: primitive("12"),
    lambda: newton_from_points([(0.5, 1)], 2),
    lambda: minimalize([(1.0, 2)]),
    lambda: MonomialIdeal(2, [(1, Fraction(2))]),
    lambda: LocalHypersurfaceModel(1, 1, (1.5,)),
    lambda: multiplier_module_principal(
        extended_rees_cone(minimalize([(1, 0), (0, 1)])), (1.5, 0, 0), 1),
], ids=["fraction-threshold", "integral-fraction-threshold", "float-threshold",
        "float-normal", "halfspace-float", "halfspace-fraction", "cone-ray",
        "cone-facet", "primitive-float", "primitive-fraction", "primitive-str",
        "newton-point", "minimalize", "monomial-ideal", "hypersurface-exps",
        "rees-exponent"])
def test_integer_constructors_refuse_non_integers(make):
    with pytest.raises(DomainError):
        make()


def test_integer_constructors_take_bools_as_ints():
    assert ThresholdSystem(2, [((True, 2), False)]) == ThresholdSystem(2, [((1, 2), 0)])
    assert HalfSpace((False, True), 1) == HalfSpace((0, 1), 1)
    assert Cone(2, [(True, 0)]).rays == ((1, 0),)


class TestDualCone:
    def test_first_quadrant_self_dual(self):
        d = dual_cone(Cone(2, ((1, 0), (0, 1))))
        assert d.rays == ((0, 1), (1, 0))
        assert [h.normal for h in d.facets] == [(0, 1), (1, 0)]

    def test_dual_of_ray_is_halfplane(self):
        d = dual_cone(Cone(2, ((1, 0),)))
        assert d.rays == ((0, -1), (0, 1), (1, 0))
        assert [h.normal for h in d.facets] == [(1, 0)]
        assert not is_pointed(d)

    def test_dual_2112(self):
        # brute-force: box points pair >= 0 against the input rays iff they
        # pair >= 0 against the claimed dual generators
        c = Cone(2, ((2, 1), (1, 2)))
        d = dual_cone(c)
        assert d.rays == ((-1, 2), (2, -1))
        for m in itertools.product(range(-5, 6), repeat=2):
            in_dual_def = all(sum(a * b for a, b in zip(m, r)) >= 0 for r in c.rays)
            by_facets = all(dot(h.normal, m) >= 0 for h in d.facets)
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
        if is_pointed(c):
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
                assert all(dot(h.normal, r) >= 0 for h in d2.facets)
            for r in d2.rays:
                assert all(sum(a * b for a, b in zip(r, u)) >= 0 for u in d1.rays)
            box = [range(-3, 4)] * rank
            for m in itertools.product(*box):
                in_dual = all(sum(a * b for a, b in zip(m, r)) >= 0 for r in c.rays)
                assert in_dual == all(dot(h.normal, m) >= 0 for h in d1.facets)
                in_double = all(sum(a * b for a, b in zip(m, u)) >= 0 for u in d1.rays)
                assert in_double == all(dot(h.normal, m) >= 0 for h in d2.facets)


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
    def test_unit_vectors_in_order(self):
        # callers zip them with per-coordinate data; the orthant's rays are sorted
        assert unit_vectors(3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        for rank in range(1, 6):
            assert unit_vectors(rank) == sorted(polyhedra.orthant(rank).rays, reverse=True)

    def test_orthant_built_once_per_rank(self):
        for rank in range(1, 6):
            units = unit_vectors(rank)
            fresh = Cone(rank, tuple(units), tuple(HalfSpace(u, Fraction(0)) for u in units))
            assert polyhedra.orthant(rank) is polyhedra.orthant(rank)
            assert polyhedra.orthant(rank) == fresh
        with pytest.raises(DomainError):
            polyhedra.orthant(0)

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
            by_facets = all(dot(h.normal, m) >= h.threshold for h in p.facets)
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

    def test_volume_guard(self, monkeypatch):
        monkeypatch.setenv(POINT_GUARD_ENV, "50")
        with pytest.raises(ResourceLimitError):
            lattice_points(ThresholdSystem(2, ()), cube(2, 0, 10))

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


def _random_system(rng, rank):
    cons = tuple(
        (tuple(rng.randint(-3, 3) for _ in range(rank)), rng.randint(-6, 8))
        for _ in range(rng.randint(0, 4))
    )
    return ThresholdSystem(rank, cons)


def _shifted(rng, system):
    """The same normals with some thresholds moved by one."""
    return ThresholdSystem(
        system.rank,
        tuple((w, t + rng.choice((-1, 0, 0, 1))) for w, t in system.constraints),
    )


def _check_against_oracle(s1, s2, box):
    """Runs of two systems agree with the brute-force point lists."""
    pts1, pts2 = brute_lattice_points(s1, box), brute_lattice_points(s2, box)
    runs1, runs2 = lattice_runs(s1, box), lattice_runs(s2, box)
    expansion = [p + (v,) for p, lo, hi in runs1 for v in range(lo, hi + 1)]
    assert expansion == lattice_points(s1, box) == pts1
    # one run per line, each a nonempty interval
    assert all(lo <= hi for _, lo, hi in runs1)
    assert [p for p, _, _ in runs1] == sorted({p for p, _, _ in runs1})
    assert compare_runs(runs1, runs2) == (len(pts1), len(pts2), first_mismatch(pts1, pts2))
    assert (runs1 == runs2) == (pts1 == pts2)
    assert systems_equal(s1, s2, box) == (pts1 == pts2)
    small, big = MonomialModule(s1.rank, s1, OMEGA), MonomialModule(s2.rank, s2, OMEGA)
    assert module_contains(big, small, box) == all(s2.satisfies(m) for m in pts1)


class TestLatticeRuns:
    def test_simple(self):
        sys = ThresholdSystem(2, (((3, 2), 7), ((1, 0), 1), ((0, 1), 1)))
        assert lattice_runs(sys, cube(2, 0, 3)) == [((1,), 2, 3), ((2,), 1, 3), ((3,), 1, 3)]

    def test_upper_bound_from_negative_last_entry(self):
        # x - y >= 0 on the box [0,3]^2: the line x = v runs up to y = v
        sys = ThresholdSystem(2, (((1, -1), 0),))
        assert lattice_runs(sys, cube(2, 0, 3)) == [((v,), 0, v) for v in range(4)]

    def test_prefix_only_constraint(self):
        sys = ThresholdSystem(3, (((1, 1, 0), 3),))
        runs = lattice_runs(sys, cube(3, 0, 2))
        assert runs == [((x, y), 0, 2) for x in range(3) for y in range(3) if x + y >= 3]

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_signs_against_oracle(self, seed):
        rng = random.Random(8200 + seed)
        for _ in range(120):
            rank = rng.randint(1, 4)
            s1 = _random_system(rng, rank)
            box = tuple(
                (lo, lo + rng.randint(0, 4)) for lo in (rng.randint(-3, 2) for _ in range(rank))
            )
            _check_against_oracle(s1, _shifted(rng, s1), box)

    def test_empty_system_is_whole_box(self):
        sys = ThresholdSystem(3, ())
        box = ((-1, 0), (2, 3), (-2, 1))
        assert lattice_runs(sys, box) == [((x, y), -2, 1) for x in (-1, 0) for y in (2, 3)]
        _check_against_oracle(sys, ThresholdSystem(3, (((0, 0, 1), 0),)), box)

    def test_infeasible_system(self):
        sys = ThresholdSystem(2, (((0, 0), 5),))
        assert sys.infeasible
        assert lattice_runs(sys, cube(2, 0, 3)) == []
        _check_against_oracle(sys, ThresholdSystem(2, ()), cube(2, 0, 3))
        _check_against_oracle(ThresholdSystem(2, ()), sys, cube(2, 0, 3))

    def test_no_point_in_box(self):
        sys = ThresholdSystem(2, (((1, 1), 9),))
        assert lattice_runs(sys, cube(2, 0, 3)) == []
        assert compare_runs([], []) == (0, 0, None)

    def test_single_point_box(self):
        box = ((3, 3), (-1, -1))
        assert lattice_runs(ThresholdSystem(2, (((1, 1), 2),)), box) == [((3,), -1, -1)]
        assert lattice_runs(ThresholdSystem(2, (((1, 1), 3),)), box) == []
        assert lattice_runs(ThresholdSystem(1, (((-1,), 0),)), ((0, 0),)) == [((), 0, 0)]

    def test_negative_lower_bounds(self):
        sys = ThresholdSystem(2, (((1, 2), -3), ((-1, 1), -2)))
        _check_against_oracle(sys, ThresholdSystem(2, (((1, 2), -2),)), cube(2, -4, 2))

    def test_witness_cases(self):
        # a line in only one list, a later lo, an earlier hi
        assert compare_runs([((0,), 1, 2), ((1,), 0, 2)], [((1,), 0, 2)]) == (5, 3, (0, 1))
        assert compare_runs([((0,), 1, 2)], [((0,), 3, 4)]) == (2, 2, (0, 1))
        assert compare_runs([((0,), 1, 2)], [((0,), 1, 4)]) == (2, 4, (0, 3))
        assert compare_runs([((0,), 1, 2)], [((0,), 1, 2), ((2,), 5, 5)]) == (2, 3, (2, 5))

    def test_volume_guard_same_as_points(self, monkeypatch):
        sys = ThresholdSystem(2, ())
        monkeypatch.setenv(POINT_GUARD_ENV, "120")
        for fn in (lattice_runs, lattice_count, lattice_points):
            with pytest.raises(ResourceLimitError) as exc:
                fn(sys, cube(2, 0, 10))
            assert str(exc.value) == "box volume 121 exceeds enumeration guard 120"
        monkeypatch.setenv(POINT_GUARD_ENV, "121")
        assert len(lattice_runs(sys, cube(2, 0, 10))) == 11
        assert lattice_count(sys, cube(2, 0, 10)) == 121
        assert len(lattice_points(sys, cube(2, 0, 10))) == 121

    def test_guard_env_override(self, monkeypatch):
        monkeypatch.setenv("REESMULT_MAX_POINTS", "50")
        with pytest.raises(ResourceLimitError, match="box volume 121 exceeds enumeration guard 50"):
            lattice_runs(ThresholdSystem(2, ()), cube(2, 0, 10))

    def test_bad_box(self):
        with pytest.raises(DomainError, match="box lower bound exceeds upper bound"):
            lattice_runs(ThresholdSystem(1, ()), ((2, 1),))
        with pytest.raises(DomainError, match="box length does not match system rank"):
            lattice_runs(ThresholdSystem(2, ()), ((0, 1),))

    @pytest.mark.parametrize("rank", (3, 4))
    @pytest.mark.parametrize(
        "pair",
        ((0, 2), (0, -2), (0, 0), (3, 0), (-3, 0)),
        ids=("line_lower", "line_upper", "prefix_only", "v_lower", "v_upper"),
    )
    def test_last_level_constraint_class(self, rank, pair):
        # (w[last-1], w[last]) = pair: with w[last-1] = 0 the constraint bounds
        # every line of a prefix alike (or tests the prefix), with w[last] = 0
        # it narrows the values of coordinate last-1; mixed with random rows,
        # among them rows that bound each line on its own
        rng = random.Random(f"last-level {rank} {pair}")
        for _ in range(80):
            head = tuple(rng.randint(-2, 2) for _ in range(rank - 2))
            if not any(head + pair):
                head = (1,) + head[1:]
            pinned = (head + pair, rng.randint(-6, 6))
            s1 = ThresholdSystem(rank, (pinned,) + _random_system(rng, rank).constraints)
            signs = tuple((e > 0) - (e < 0) for e in pair)
            assert any(tuple((e > 0) - (e < 0) for e in w[-2:]) == signs
                       for w, _ in s1.constraints)
            box = tuple(
                (lo, lo + rng.randint(0, 4)) for lo in (rng.randint(-3, 2) for _ in range(rank))
            )
            _check_against_oracle(s1, _shifted(rng, s1), box)
            _check_against_oracle(ThresholdSystem(rank, (pinned,)), s1, box)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_property_against_oracle(self, data):
        rank = data.draw(st.integers(1, 4))
        normal = st.tuples(*[st.integers(-3, 3)] * rank)
        cons = data.draw(st.lists(st.tuples(normal, st.integers(-6, 8)), max_size=4))
        shifts = data.draw(st.lists(st.integers(-1, 1), min_size=len(cons), max_size=len(cons)))
        box = data.draw(st.lists(
            st.tuples(st.integers(-3, 2), st.integers(0, 4)), min_size=rank, max_size=rank
        ))
        box = tuple((lo, lo + span) for lo, span in box)
        s1 = ThresholdSystem(rank, tuple(cons))
        s2 = ThresholdSystem(rank, tuple((w, t + d) for (w, t), d in zip(cons, shifts)))
        _check_against_oracle(s1, s2, box)


def _check_count(system, box):
    """``lattice_count`` is the run sum and the brute-force point count."""
    runs = lattice_runs(system, box)
    count = lattice_count(system, box)
    assert count == sum(hi - lo + 1 for _, lo, hi in runs)
    assert count == len(brute_lattice_points(system, box))
    return count


class TestLatticeCount:
    @pytest.mark.parametrize("seed", range(4))
    def test_sweep_against_oracle(self, seed):
        # negative normals, rank 1 and rows with a zero last entry all occur
        rng = random.Random(8600 + seed)
        for _ in range(150):
            rank = rng.randint(1, 4)
            system = _random_system(rng, rank)
            box = tuple(
                (lo, lo + rng.randint(0, 4)) for lo in (rng.randint(-3, 2) for _ in range(rank))
            )
            _check_count(system, box)
            _check_count(_shifted(rng, system), box)
        # ranks 5 and 6, where the count memo keys subtrees on residuals;
        # rows of 0/1 entries make many prefixes leave the same residuals
        for _ in range(40):
            rank = rng.randint(5, 6)
            system = _random_system(rng, rank)
            if rng.random() < 0.5:
                sign = rng.choice((-1, 1))
                row = tuple(sign * rng.randint(0, 1) for _ in range(rank))
                system = ThresholdSystem(rank, system.constraints + ((row, rng.randint(-4, 4)),))
            box = tuple(
                (lo, lo + rng.randint(0, 2)) for lo in (rng.randint(-2, 1) for _ in range(rank))
            )
            _check_count(system, box)
            _check_count(_shifted(rng, system), box)

    @pytest.mark.parametrize("system, box, want", [
        # rank 1, bounded from both sides
        (ThresholdSystem(1, (((1,), -1), ((-1,), -2))), ((-4, 4),), 4),
        (ThresholdSystem(1, (((1,), 9),)), ((0, 3),), 0),
        # zero last entries only test the prefix
        (ThresholdSystem(3, (((1, 1, 0), 3), ((0, -1, 0), -1))), cube(3, 0, 2), 3),
        (ThresholdSystem(2, (((-2, 0), -3),)), cube(2, -1, 2), 12),
        # infeasible, and boxes where no line survives
        (ThresholdSystem(2, (((0, 0), 5),)), cube(2, 0, 3), 0),
        (ThresholdSystem(2, (((1, 1), 9),)), cube(2, 0, 3), 0),
        (ThresholdSystem(3, (((0, 0, 1), 7),)), cube(3, 0, 3), 0),
        (ThresholdSystem(3, (((2, -1, 3), 40),)), cube(3, -2, 2), 0),
        # residuals on the memo clamp: after m1 = 2 the row needs exactly the
        # least the rest can add (0), after m1 = 3 less; after m1 = 1 one more
        (ThresholdSystem(4, (((1, 1, 1, 1), 2),)), cube(4, 0, 3), 251),
        # a negative normal: the least the rest can add is -9 after m1, and
        # m1 = 0 and m1 = 1 leave -10 and -9
        (ThresholdSystem(4, (((-1, -1, -1, -1), -10),)), cube(4, 0, 3), 251),
        (ThresholdSystem(5, (((1, 1, 1, 1, 1), 3), ((-1, -1, -1, -1, -1), -5))),
         cube(5, 0, 2), 126),
        # mixed signs over boxes below 0, where the least a coordinate can
        # add differs from one coordinate to the next
        (ThresholdSystem(5, (((-1, 2, -1, 1, 1), -1), ((1, 0, -2, 1, 0), -3))),
         ((-2, 1), (-1, 1), (-1, 2), (0, 2), (-2, 0)), 270),
    ], ids=("rank_1", "rank_1_none", "prefix_only", "line_index_only", "infeasible",
            "no_line_meets", "empty_on_every_line", "out_of_reach", "clamp_at_least",
            "clamp_negative_normal", "clamp_two_sides", "clamp_mixed_signs"))
    def test_cases(self, system, box, want):
        assert _check_count(system, box) == want

    def test_bad_box_same_error(self):
        for system, box in ((ThresholdSystem(1, ()), ((2, 1),)),
                            (ThresholdSystem(2, (((1, 1), 1),)), ((0, 1), (3, 2))),
                            (ThresholdSystem(2, ()), ((0, 1),))):
            messages = set()
            for walk in (lattice_runs, lattice_count):
                with pytest.raises(DomainError) as exc:
                    walk(system, box)
                messages.add(str(exc.value))
            assert len(messages) == 1, (system, box, messages)

    @pytest.mark.parametrize("walk", (lattice_runs, lattice_count))
    @pytest.mark.parametrize("box", (
        ((0.5, 2), (0, 2)),
        ((0, 2), (0, 2.0)),
        ((Fraction(1, 2), 2), (0, 2)),
        ((0, Fraction(2)), (0, 2)),
    ), ids=("float_lo", "integral_float_hi", "fraction_lo", "integral_fraction_hi"))
    def test_non_integer_bounds_refused(self, walk, box):
        # truncating (0.5, 2) to (0, 2) would return the line m_1 = 0, left of the box
        with pytest.raises(DomainError, match="not a vector of integers"):
            walk(ThresholdSystem(2, [((1, 1), 1)]), box)

    @pytest.mark.parametrize("system", (
        ThresholdSystem(2, ()),
        ThresholdSystem(2, (((0, 0), 5),)),
        ThresholdSystem(1, (((1,), 0),)),
    ), ids=("empty", "infeasible", "rank_1"))
    def test_volume_guard_same_as_runs(self, system, monkeypatch):
        box = cube(system.rank, 0, 10)
        volume = 11 ** system.rank
        message = f"box volume {volume} exceeds enumeration guard {volume - 1}"
        for walk in (lattice_runs, lattice_count):
            monkeypatch.setenv(POINT_GUARD_ENV, str(volume - 1))
            with pytest.raises(ResourceLimitError) as exc:
                walk(system, box)
            assert str(exc.value) == message
            monkeypatch.setenv(POINT_GUARD_ENV, str(volume))
            walk(system, box)
            monkeypatch.delenv(POINT_GUARD_ENV)
        assert lattice_count(system, box) == len(brute_lattice_points(system, box))

    @pytest.mark.parametrize("box, error, message", (
        (((0.5, 2), (0, 2)), DomainError, "not a vector of integers: (0.5, 2)"),
        (((0, 2),), DomainError, "box length does not match system rank"),
        (cube(2, 0, 10), ResourceLimitError, "box volume 121 exceeds enumeration guard 120"),
    ), ids=("float", "wrong_length", "over_guard"))
    def test_compare_systems_checks_box_as_walks_do(self, box, error, message, monkeypatch):
        # equal, equal reduced and different pairs: the box is checked before
        # either side is counted or listed, with the walks' errors
        monkeypatch.setenv(POINT_GUARD_ENV, "120")
        row = ThresholdSystem(2, (((1, 0), 0), ((0, 1), 0), ((1, 1), 1)))
        implied = ThresholdSystem(2, row.constraints + (((1, 2), 0),))
        other = ThresholdSystem(2, (((1, 1), 2),))
        calls = [lambda b: lattice_runs(row, b), lambda b: lattice_count(row, b)]
        calls += [lambda b, rhs=rhs: compare_systems(row, rhs, b) for rhs in (row, implied, other)]
        for call in calls:
            with pytest.raises(error) as exc:
                call(box)
            assert str(exc.value) == message

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_property_against_oracle(self, data):
        rank = data.draw(st.integers(1, 6))
        normal = st.tuples(*[st.integers(-3, 3)] * rank)
        cons = data.draw(st.lists(st.tuples(normal, st.integers(-6, 8)), max_size=4))
        span = 4 if rank <= 4 else 2  # at most 3**6 points for the brute-force count
        box = data.draw(st.lists(
            st.tuples(st.integers(-3, 2), st.integers(0, span)), min_size=rank, max_size=rank
        ))
        _check_count(ThresholdSystem(rank, tuple(cons)), tuple((lo, lo + d) for lo, d in box))

    @pytest.mark.parametrize("s", (-5, 0, 1, 7, 60, 61, 119, 120, 121))
    def test_sum_rows_against_inclusion_exclusion(self, s, monkeypatch):
        # [0, 20]^6 holds 85.8 M points, under the default guard and out of
        # reach of a listing; the memo walks each residual of the row once
        monkeypatch.delenv("REESMULT_MAX_POINTS", raising=False)
        box = cube(6, 0, 20)
        assert 21 ** 6 <= polyhedra.DEFAULT_POINT_GUARD
        want = cube_count_at_least(6, 20, s)
        assert lattice_count(ThresholdSystem(6, (((1,) * 6, s),)), box) == want
        # the negated row: coordinate sums <= 120 - s, the mirror image
        flipped = ThresholdSystem(6, (((-1,) * 6, s - 120),))
        assert lattice_count(flipped, box) == want

    def test_guard_on_a_countable_box(self, monkeypatch):
        # the memo makes these boxes cheap to count; the guard still bounds
        # their volume, with the message lattice_runs raises
        monkeypatch.delenv("REESMULT_MAX_POINTS", raising=False)
        row = ThresholdSystem(6, (((1,) * 6, 60),))
        volume = 21 ** 6
        for walk in (lattice_runs, lattice_count):
            monkeypatch.setenv(POINT_GUARD_ENV, str(volume - 1))
            with pytest.raises(ResourceLimitError) as exc:
                walk(row, cube(6, 0, 20))
            assert str(exc.value) == f"box volume {volume} exceeds enumeration guard {volume - 1}"
            monkeypatch.delenv(POINT_GUARD_ENV)
            with pytest.raises(ResourceLimitError) as exc:
                walk(row, cube(6, 0, 21))
            assert str(exc.value) == f"box volume {22 ** 6} exceeds enumeration guard {10 ** 8}"
        monkeypatch.setenv(POINT_GUARD_ENV, str(volume))
        assert lattice_count(row, cube(6, 0, 20)) == cube_count_at_least(6, 20, 60)

    def test_narrow_calls_per_level_set(self, monkeypatch):
        # the work the walk does, as a count that does not depend on the
        # host: the B.2 level systems of (x1..x4)^2 on their default box.
        # Folding the unit rows into the box lists them with 230-270 calls
        # per lambda, and the subtree memo counts them with 85-102
        a = _square_of_maximal(4)
        calls = _count_narrow_calls(monkeypatch)
        for lam, systems, box in _b2_levels(a):
            made = []
            for walk in (lattice_runs, lattice_count):
                # counts are memoised across calls: start each pass cold
                polyhedra._count.cache_clear()
                calls.clear()
                for system in systems:
                    walk(system, box)
                made.append(len(calls))
            assert made[0] <= 300 and made[1] <= 120, (lam, made)

    def test_count_past_listing_reach(self, monkeypatch):
        # the B.2 level systems of (x1..x5)^2, five unit rows and the row
        # m_1 + ... + m_5 >= t over boxes of 2.5-6.4 M points: the reference
        # walk's counts, with 120-152 narrowing steps per lambda
        a = _square_of_maximal(5)
        calls = _count_narrow_calls(monkeypatch)
        for lam, systems, box in _b2_levels(a):
            polyhedra._count.cache_clear()
            calls.clear()
            counts = [lattice_count(system, box) for system in systems]
            made = len(calls)
            assert counts == [oracles.walk_reference(system, box, True) for system in systems]
            assert min(counts) > 10 ** 6 and made <= 180, (lam, made)


def _square_of_maximal(n):
    return minimalize([tuple(int(i == j) + int(i == k) for i in range(n))
                       for j in range(n) for k in range(j, n)], n)


def _count_narrow_calls(monkeypatch):
    """A list that grows by one on each ``polyhedra._narrow`` call."""
    calls = []
    narrow = polyhedra._narrow

    def counting(*args):
        calls.append(None)
        return narrow(*args)

    monkeypatch.setattr(polyhedra, "_narrow", counting)
    return calls


def _b2_levels(a):
    """``(lam, systems, box)`` per lambda in 0, 1/2, 5/3: B.2's level systems
    k = -3..6 of J(omega_T, t^-lam) on ``default_box(a, lam + 6)``."""
    alg = extended_rees_cone(a)
    for lam in (Fraction(0), Fraction(1, 2), Fraction(5, 3)):
        module = multiplier_module_principal(alg, alg.t_inverse(), lam)
        yield lam, [graded_piece(module, k).system for k in range(-3, 7)], default_box(a, lam + 6)


def _fold_system(rng, rank):
    """Unit rows with coefficient +-1, +-2 or -3 before canonicalization, a
    few mixed rows, and now and then the infeasible flag."""
    rows = []
    for i in range(rank):
        for _ in range(rng.choice((0, 1, 1, 2))):
            w = [0] * rank
            w[i] = rng.choice((1, -1, 2, -2, -3))
            rows.append((tuple(w), rng.randint(-7, 7)))
    for _ in range(rng.randint(0, 3)):
        rows.append((tuple(rng.randint(-2, 2) for _ in range(rank)), rng.randint(-5, 6)))
    return ThresholdSystem(rank, rows, infeasible=rng.random() < 0.05)


def _check_walk(system, box):
    """Runs and count are those of the walk before the unit-row fold; returns
    whether the unit rows alone leave the box empty."""
    assert lattice_runs(system, box) == oracles.walk_reference(system, box, False)
    assert lattice_count(system, box) == oracles.walk_reference(system, box, True)
    units = ThresholdSystem(system.rank, [
        (w, t) for w, t in system.constraints if sum(map(bool, w)) == 1])
    return oracles.walk_reference(units, box, True) == 0


class TestWalkAgainstReference:
    """The walk that folds unit rows into the box gives what the walk
    before it gave."""

    @pytest.mark.parametrize("seed", range(4))
    def test_sweep(self, seed):
        rng = random.Random(9100 + seed)
        emptied = negative = infeasible = 0
        for trial in range(5000):
            rank = 1 + trial % 5
            system = _fold_system(rng, rank)
            span = 5 if rank <= 3 else 3
            box = tuple((lo, lo + rng.randint(0, span))
                        for lo in (rng.randint(-4, 2) for _ in range(rank)))
            emptied += _check_walk(system, box) and not system.infeasible
            negative += any(lo < 0 for lo, _ in box)
            infeasible += system.infeasible
        assert min(emptied, negative, infeasible) >= 100, (emptied, negative, infeasible)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_property(self, data):
        rank = data.draw(st.integers(1, 5))
        unit = st.tuples(st.integers(0, rank - 1), st.sampled_from((1, -1, 2, -2, -3)))
        units = [(tuple(c if j == i else 0 for j in range(rank)), t) for (i, c), t
                 in data.draw(st.lists(st.tuples(unit, st.integers(-7, 7)), max_size=2 * rank))]
        mixed = data.draw(st.lists(
            st.tuples(st.tuples(*[st.integers(-2, 2)] * rank), st.integers(-5, 6)), max_size=3))
        system = ThresholdSystem(rank, units + mixed, infeasible=data.draw(st.booleans()))
        span = 5 if rank <= 3 else 3
        box = data.draw(st.lists(st.tuples(st.integers(-4, 2), st.integers(0, span)),
                                 min_size=rank, max_size=rank))
        _check_walk(system, tuple((lo, lo + d) for lo, d in box))


class TestUnitRowProduct:
    """A system of unit rows alone is counted as the product of the widths of
    the box the rows narrow, with no walk."""

    @pytest.mark.parametrize("seed", range(2))
    def test_against_reference(self, seed):
        rng = random.Random(9300 + seed)
        emptied = negative = 0
        for trial in range(3000):
            rank = 1 + trial % 6
            rows = []
            for i in range(rank):
                for _ in range(rng.choice((0, 1, 1, 2))):
                    w = [0] * rank
                    w[i] = rng.choice((1, -1, 2, -2, -3))
                    rows.append((tuple(w), rng.randint(-7, 7)))
            system = ThresholdSystem(rank, rows)
            span = 5 if rank <= 3 else 3
            box = tuple((lo, lo + rng.randint(0, span))
                        for lo in (rng.randint(-4, 2) for _ in range(rank)))
            count = lattice_count(system, box)
            assert count == oracles.walk_reference(system, box, True), (system, box)
            emptied += count == 0
            negative += any(lo < 0 for lo, _ in box)
        assert min(emptied, negative) >= 100, (emptied, negative)


class TestCountMemo:
    """``lattice_count`` keeps counts across calls on (system, checked box).
    A cold, a warm and a second-box count equal the reference walk's, and a
    bad box or guard raises on a warm key as it does on a cold one."""

    @pytest.mark.parametrize("seed", range(2))
    def test_cold_warm_and_second_box(self, seed):
        rng = random.Random(9400 + seed)
        mixed = negative = infeasible = 0
        for trial in range(2000):
            rank = 1 + trial % 4
            system = _fold_system(rng, rank)
            boxes = [tuple((lo, lo + rng.randint(0, 5 if rank <= 3 else 3))
                           for lo in (rng.randint(-4, 2) for _ in range(rank)))
                     for _ in range(2)]
            want = [oracles.walk_reference(system, box, True) for box in boxes]
            polyhedra._count.cache_clear()
            assert lattice_count(system, boxes[0]) == want[0], (system, boxes[0])
            # warm: an equal system built anew, the box as lists
            again = ThresholdSystem(rank, system.constraints, system.infeasible)
            assert lattice_count(again, [list(r) for r in boxes[0]]) == want[0]
            assert lattice_count(system, boxes[1]) == want[1], (system, boxes[1])
            info = polyhedra._count.cache_info()
            fresh = boxes[1] != boxes[0]
            assert (info.hits, info.misses) == (2 - fresh, 1 + fresh)
            mixed += any(min(w) < 0 < max(w) for w, _ in system.constraints)
            negative += any(lo < 0 for box in boxes for lo, _ in box)
            infeasible += system.infeasible
        assert min(mixed, negative) >= 500 and infeasible >= 50, (mixed, negative, infeasible)

    def test_refusals_on_a_warm_key(self, monkeypatch):
        monkeypatch.delenv(POINT_GUARD_ENV, raising=False)
        system = ThresholdSystem(2, (((1, 0), 0), ((1, -1), -3)))
        box = cube(2, 0, 10)
        polyhedra._count.cache_clear()
        want = lattice_count(system, box)
        assert want == len(brute_lattice_points(system, box))
        assert lattice_count(system, box) == want
        assert polyhedra._count.cache_info().hits == 1

        def refused(error, message, bad_box=box):
            with pytest.raises(error) as exc:
                lattice_count(system, bad_box)
            assert str(exc.value) == message

        refused(ResourceLimitError, f"box volume {10001 ** 2} exceeds enumeration guard {10 ** 8}",
                cube(2, 0, 10000))
        monkeypatch.setenv(POINT_GUARD_ENV, "120")
        refused(ResourceLimitError, "box volume 121 exceeds enumeration guard 120")
        for bad in ("0", "-5", "12x", "1_0", " 5", "٥"):
            monkeypatch.setenv(POINT_GUARD_ENV, bad)
            refused(ParseError, f"{POINT_GUARD_ENV} must be a positive integer, got {bad!r}")
        monkeypatch.delenv(POINT_GUARD_ENV)
        # a float or Fraction box hashes as the cached int box does
        refused(DomainError, "not a vector of integers: (0.0, 10.0)", ((0.0, 10.0), (0, 10)))
        refused(DomainError, "not a vector of integers: (0, Fraction(10, 1))",
                ((0, 10), (0, Fraction(10))))
        refused(DomainError, "box length does not match system rank", cube(1, 0, 10))
        refused(DomainError, "box length does not match system rank", cube(3, 0, 10))
        refused(DomainError, "box lower bound exceeds upper bound", ((0, 10), (10, 0)))
        assert lattice_count(system, box) == want
        info = polyhedra._count.cache_info()
        assert (info.hits, info.misses) == (2, 1)


def _verify_shaped(rng, box, rows):
    """A system of the shape the verifiers walk on ``box``: unit rows, scaled
    by 1, 2 or -3 before canonicalization, and ``rows`` rows with two or more
    nonzero entries, nonnegative or of mixed signs, each with a threshold
    within one of the range it takes on the box."""
    rank = len(box)
    cons = []
    for i, (lo, hi) in enumerate(box):
        for _ in range(rng.choice((0, 1, 1, 2))):
            c = rng.choice((1, -1, 2, -2, -3))
            cons.append((tuple(c if j == i else 0 for j in range(rank)),
                         c * rng.randint(lo - 1, hi + 1)))
    for _ in range(rows):
        while True:
            w = [rng.randint(0, 3) if rng.random() < 0.5 else rng.randint(-3, 3)
                 for _ in range(rank)]
            if sum(map(bool, w)) >= 2:
                break
        ends = [sorted((e * lo, e * hi)) for e, (lo, hi) in zip(w, box)]
        cons.append((tuple(w), rng.randint(sum(lo for lo, _ in ends) - 1,
                                           sum(hi for _, hi in ends) + 1)))
    return ThresholdSystem(rank, cons)


def _walk_branches(system, box):
    """The branches the walk certainly takes on ``system`` and ``box``: the
    fold of a row e_i and of a row -e_i, and, when the folded box is not
    empty, the unit-only product or, at rank 2, a last level with one row."""
    units = [(w, t) for w, t in system.constraints if w.count(0) == system.rank - 1]
    rest = len(system.constraints) - len(units)
    open_box = oracles.walk_reference(ThresholdSystem(system.rank, units), box, True) > 0
    return {
        "plus_fold": any(1 in w for w, _ in units),
        "minus_fold": any(-1 in w for w, _ in units),
        "unit_product": open_box and rest == 0,
        "one_row_last_level": open_box and system.rank == 2 and rest == 1,
    }


class TestWideBoxWalk:
    """On verify-shaped systems of rank 2-4 over boxes up to 20 wide, from 0
    and from -4, the walk gives the runs and counts of the walk before the
    fold, the suffix-sum plan and the one-row last level."""

    @pytest.mark.parametrize("seed", range(2))
    def test_sweep(self, seed):
        rng = random.Random(9700 + seed)
        seen = dict.fromkeys(("plus_fold", "minus_fold", "unit_product",
                              "one_row_last_level"), 0)
        mixed = 0
        for trial in range(1000):
            rank = 2 + trial % 3
            box = tuple((lo, lo + rng.randint(0, 20)) for lo in rng.choices((0, -4), k=rank))
            system = _verify_shaped(rng, box, rng.choice((0, 1, 1, 2)))
            _check_walk(system, box)
            for branch, taken in _walk_branches(system, box).items():
                seen[branch] += taken
            mixed += any(min(w) < 0 < max(w) for w, _ in system.constraints)
        assert min(*seen.values(), mixed) >= 100, (seen, mixed)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_property(self, data):
        rank = data.draw(st.integers(2, 4))
        box = tuple((lo, lo + d) for lo, d in data.draw(st.lists(
            st.tuples(st.sampled_from((0, -4)), st.integers(0, 20)), min_size=rank, max_size=rank)))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        _check_walk(_verify_shaped(rng, box, data.draw(st.integers(0, 2))), box)


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


def _graded_system(rng, rank):
    """A random rank-``rank`` system for slicing: rows of one head at several
    multiples and last entries, which merge after the gcd division with
    thresholds whose order flips with k; zero-head rows (0,..,0, s; t) of
    both signs of s, infeasible at some k only; free rows; and sometimes the
    infeasible flag."""
    rows = []
    head = tuple(rng.randint(-2, 2) for _ in range(rank - 1))
    if any(head):
        for _ in range(rng.randint(0, 3)):
            c = rng.randint(1, 3)
            rows.append((tuple(c * e for e in head) + (rng.randint(-4, 4),), rng.randint(-8, 8)))
    for _ in range(rng.randint(0, 2)):
        rows.append(((0,) * (rank - 1) + (rng.choice((-2, -1, 1, 2)),), rng.randint(-8, 8)))
    for _ in range(rng.randint(0, 3)):
        w = tuple(rng.randint(-3, 3) for _ in range(rank))
        if any(w):
            rows.append((w, rng.randint(-8, 8)))
    return ThresholdSystem(rank, tuple(rows), rng.random() < 0.1)


def _crossing(system, levels):
    """True when two rows of ``system`` slice to one primitive head, and no one
    of them is the strongest at every level: the merge depends on k."""
    groups = {}
    for w, t in system.constraints:
        if any(w[:-1]):
            g = math.gcd(*w[:-1])
            groups.setdefault(primitive(w[:-1]), []).append((g, w[-1], t))
    for rows in groups.values():
        strongest = set(range(len(rows)))
        for k in levels:
            tops = [-((s * k - t) // g) for g, s, t in rows]
            strongest &= {j for j, top in enumerate(tops) if top == max(tops)}
        if not strongest:
            return True
    return False


class TestSliceMemo:
    """``substitute_last`` is memoised on (system, k) once k is checked; every
    slice equals the unmemoised reference, cold and on a hit, and a bad k or a
    rank-1 system is refused on a warm key too."""

    LEVELS = range(-6, 9)

    def test_against_the_reference(self):
        rng = random.Random(3200)
        seen = dict.fromkeys(("crossing", "zero_head_pos", "zero_head_neg", "flag",
                              "infeasible_at_some_k"), 0)
        for trial in range(2000):
            system = _graded_system(rng, 2 + trial % 4)
            polyhedra._slice.cache_clear()
            cold = {k: system.substitute_last(k) for k in self.LEVELS}
            assert polyhedra._slice.cache_info().misses == len(self.LEVELS)
            equal = ThresholdSystem(system.rank, [(list(w), t) for w, t in system.constraints],
                                    system.infeasible)
            for k in self.LEVELS:
                want = substitute_last_reference(system, k)
                assert cold[k] == want and equal.substitute_last(k) is cold[k], (system, k)
            assert polyhedra._slice.cache_info().hits == len(self.LEVELS)
            zero_heads = [w[-1] for w, _ in system.constraints if not any(w[:-1])]
            seen["crossing"] += _crossing(system, self.LEVELS)
            seen["zero_head_pos"] += any(s > 0 for s in zero_heads)
            seen["zero_head_neg"] += any(s < 0 for s in zero_heads)
            seen["flag"] += system.infeasible
            seen["infeasible_at_some_k"] += any(cold[k].infeasible for k in self.LEVELS) \
                and not all(cold[k].infeasible for k in self.LEVELS)
        assert min(seen.values()) >= 100, seen

    def test_refusals_on_a_warm_key(self):
        system = ThresholdSystem(3, (((1, 1, -2), 1), ((1, 0, 0), 1)))
        piece = system.substitute_last(1)  # (system, 1) is now a warm key
        for k in (Fraction(1, 2), Fraction(1), 1.0, "1"):
            with pytest.raises(DomainError, match="not an integer"):
                system.substitute_last(k)
        assert system.substitute_last(True) is piece
        rank1 = piece.substitute_last(0)
        for k in (0, 1, True):
            with pytest.raises(DomainError, match="^cannot substitute in a rank-1 system$"):
                rank1.substitute_last(k)


def _unit_heavy_system(rng, rank):
    """A system whose rows are often unit rows, nonnegative rows near the
    bound the unit rows give, or rows with a negative entry."""
    rows = [(tuple(int(i == j) for j in range(rank)), rng.randint(-2, 2))
            for i in range(rank) if rng.random() < 0.8]
    for _ in range(rng.randint(0, 4)):
        w = [rng.randint(0, 2) for _ in range(rank)]
        if rng.random() < 0.4:
            w[rng.randrange(rank)] = rng.randint(-2, -1)
        if any(w):
            rows.append((tuple(w), rng.randint(-4, 4)))
    return ThresholdSystem(rank, tuple(rows))


class TestReduced:
    """The reduction ``_reduced_fields`` (``reduced_system``) drops only rows
    the unit rows imply, so equal reduced systems are equal sets of the whole
    lattice."""

    def test_drops_rows_at_the_unit_bound(self):
        omega = ThresholdSystem(2, (((1, 0), 1), ((0, 1), 1)))
        assert reduced_system(ThresholdSystem(2, omega.constraints + (((1, 1), 2),))) == omega
        assert reduced_system(ThresholdSystem(2, omega.constraints + (((1, 2), 3),))) == omega
        above = ThresholdSystem(2, omega.constraints + (((1, 1), 3),))
        assert reduced_system(above) == above

    def test_keeps_rows_the_units_do_not_imply(self):
        for rows in (
            (((1, 0), 0), ((0, 1), 0), ((1, -1), -5)),  # a negative entry
            (((1, 0), 0), ((1, 1), 0)),  # no unit row for m_2
            (((1, 0), 0), ((0, 1), 0)),  # the unit rows themselves
        ):
            system = ThresholdSystem(2, rows)
            assert reduced_system(system) == system
        infeasible = ThresholdSystem(1, (((1,), 0), ((0,), 1)))
        assert reduced_system(infeasible).infeasible

    def test_same_points_as_original(self):
        rng = random.Random(4100)
        dropped = 0
        for _ in range(400):
            rank = rng.randint(1, 3)
            system = _unit_heavy_system(rng, rank)
            reduced = reduced_system(system)
            dropped += len(system.constraints) - len(reduced.constraints)
            box = cube(rank, -3, 4)
            assert brute_lattice_points(reduced, box) == brute_lattice_points(system, box), system
        assert dropped >= 50

    def test_equals_the_constructed_system(self):
        # the reduction keeps a subset of canonical rows; on the same 400 systems,
        # and on an infeasible one, it is the constructor's value for them
        rng = random.Random(4100)
        systems = [_unit_heavy_system(rng, rng.randint(1, 3)) for _ in range(400)]
        systems.append(ThresholdSystem(2, (((1, 0), 0), ((0, 1), 1), ((0, 0), 1))))
        for system in systems:
            reduced = reduced_system(system)
            built = ThresholdSystem(system.rank, reduced.constraints, system.infeasible)
            assert type(reduced) is ThresholdSystem
            assert (reduced.rank, reduced.constraints, reduced.infeasible) == (
                built.rank, built.constraints, built.infeasible), system
            assert reduced == built and hash(reduced) == hash(built)

    def test_differing_systems_never_certified(self):
        # the second system is the first with one row more, often one a
        # flawed reduction would drop, or with thresholds moved by one
        rng = random.Random(4200)
        certified = 0
        for _ in range(600):
            rank = rng.randint(1, 3)
            s1 = _unit_heavy_system(rng, rank)
            extra = _unit_heavy_system(rng, rank).constraints[-1:]
            s2 = ThresholdSystem(rank, s1.constraints + extra)
            for s2 in (s2, _shifted(rng, s1)):
                if reduced_system(s1) == reduced_system(s2):
                    certified += s1 != s2
                    box = cube(rank, -3, 4)
                    assert brute_lattice_points(s1, box) == brute_lattice_points(s2, box), (s1, s2)
        assert certified >= 50


class TestReducedFieldsMemo:
    """``_reduced_fields`` is memoised on the system; its fields equal the
    unmemoised reference, cold and on a hit from an equal system, and
    ``reduced_system`` is the system they give."""

    def test_against_the_reference(self):
        rng = random.Random(3400)
        seen = dict.fromkeys(("zero_head", "unit", "flag", "dropped"), 0)
        for trial in range(2000):
            rank = 2 + trial % 4
            system = (_graded_system if trial % 2 else _unit_heavy_system)(rng, rank)
            rank_, kept, infeasible = reduced_fields_reference(system)
            want = (rank_, tuple(kept), infeasible)
            polyhedra._reduced_fields.cache_clear()
            cold = polyhedra._reduced_fields(system)
            assert cold == want and polyhedra._reduced_fields.cache_info().misses == 1, system
            equal = ThresholdSystem(rank, [(list(w), t) for w, t in system.constraints],
                                    system.infeasible)
            assert polyhedra._reduced_fields(equal) is cold
            assert polyhedra._reduced_fields.cache_info().hits == 1
            assert reduced_system(system) == ThresholdSystem(rank, kept, infeasible)
            seen["zero_head"] += any(not any(w[:-1]) for w, _ in system.constraints)
            seen["unit"] += any(min(w) >= 0 and sum(w) == 1 for w, _ in system.constraints)
            seen["flag"] += system.infeasible
            seen["dropped"] += len(kept) < len(system.constraints)
        assert min(seen.values()) >= 100, seen


def _implied_row(rng, system):
    """A nonnegative non-unit row the unit rows m_i >= u_i of ``system`` imply,
    or None when it has fewer than two of them."""
    units = {w.index(1): t for w, t in system.constraints if min(w) >= 0 and sum(w) == 1}
    if len(units) < 2:
        return None
    w = [rng.randint(1, 2) if i in units else 0 for i in range(system.rank)]
    return tuple(w), sum(e * units[i] for i, e in enumerate(w) if e) - rng.randint(0, 2)


class TestCompareSystemsDecision:
    """``compare_systems`` counts a pair alone exactly when ``lhs == rhs`` or
    ``reduced_system(lhs) == reduced_system(rhs)``, and decides it without building a
    ``ThresholdSystem``."""

    def test_decision_matches_reduced_equality(self, monkeypatch):
        rng = random.Random(4300)
        pairs = []
        for _ in range(500):
            rank = rng.randint(1, 3)
            s1 = _unit_heavy_system(rng, rank)
            flag = rng.random() < 0.2
            implied = _implied_row(rng, s1)
            if implied is not None:
                # differ only by an implied row, with the flag on both or on one
                pairs.append((ThresholdSystem(rank, s1.constraints, flag),
                              ThresholdSystem(rank, s1.constraints + (implied,), flag)))
                pairs.append((s1, ThresholdSystem(rank, s1.constraints + (implied,), True)))
            extra = _unit_heavy_system(rng, rank).constraints[-1:]
            pairs.append((s1, ThresholdSystem(rank, s1.constraints + extra)))
            pairs.append((s1, _shifted(rng, s1)))
        listed = []

        def listing(system, box):
            listed.append(system)
            return lattice_runs(system, box)

        monkeypatch.setattr(polyhedra, "lattice_runs", listing)
        kinds = {"equal": 0, "reduced": 0, "differ": 0, "infeasible": 0}
        for s1, s2 in pairs:
            box = cube(s1.rank, -3, 4)
            want = compare_runs(lattice_runs(s1, box), lattice_runs(s2, box))
            listed.clear()
            assert compare_systems(s1, s2, box) == want, (s1, s2)
            certified = s1 == s2 or reduced_system(s1) == reduced_system(s2)
            assert (listed == []) == certified, (s1, s2)
            kinds["equal" if s1 == s2 else "reduced" if certified else "differ"] += 1
            kinds["infeasible"] += s1.infeasible or s2.infeasible
        assert min(kinds.values()) >= 50, kinds

    def test_no_system_built(self, monkeypatch):
        omega = ThresholdSystem(2, (((1, 0), 1), ((0, 1), 1)))
        implied = omega.constraints + (((1, 1), 2),)
        # two pairs that differ only by an implied row, certified by their
        # reduced systems, and one whose flags differ, which is listed
        pairs = [(ThresholdSystem(2, implied), omega),
                 (ThresholdSystem(2, implied, True), ThresholdSystem(2, omega.constraints, True)),
                 (ThresholdSystem(2, implied, True), omega)]
        box = cube(2, -1, 6)
        want = [compare_runs(lattice_runs(s1, box), lattice_runs(s2, box)) for s1, s2 in pairs]
        assert want == [(36, 36, None), (0, 0, None), (0, 36, (1, 1))]
        built = []
        init = ThresholdSystem.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ThresholdSystem, "__init__", counting)
        assert [compare_systems(s1, s2, box) for s1, s2 in pairs] == want
        assert built == []


class TestVertexCheck:
    """The integer vertex test of ``Polyhedron`` against ``<normal, v> >= threshold``,
    on vertices exactly on a facet and 1/q inside or outside it."""

    def test_against_holds(self):
        rng = random.Random(4300)
        seen = {True: 0, False: 0}
        for _ in range(600):
            rank = rng.randint(1, 4)
            w = [rng.randint(-3, 3) for _ in range(rank)]
            j = rng.randrange(rank)
            w[j] = rng.choice((-3, -2, -1, 1, 2, 3))
            t = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
            h = HalfSpace(w, t)
            v = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rank)]
            q = rng.randint(1, 7)
            for offset in (Fraction(0), Fraction(1, q), Fraction(-1, q)):
                # <w, v> = t + offset
                v[j] = (t + offset - dot(w, v[:j] + [0] + v[j + 1:])) / w[j]
                other = HalfSpace(unit_vectors(rank)[j], v[j] - rng.randint(0, 1))
                ok = dot(h.normal, v) >= h.threshold
                seen[ok] += 1
                try:
                    Polyhedron(rank, (other, h), vertices=(tuple(v),))
                    assert ok, (h, v)
                except DomainError:
                    assert not ok, (h, v)
        assert min(seen.values()) >= 300, seen


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
                if dot(removed.normal, x) < removed.threshold and all(
                    dot(h.normal, x) >= h.threshold for h in others
                ):
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
        if is_pointed(c) == pointed:
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
            assert is_pointed(c) == fm_strongly_convex(c)
            got, want = dual_cone(c), fm_dual_cone(c)
            assert got.rays == want.rays, c.rays
            assert facet_pairs(got) == facet_pairs(want), c.rays
            assert is_pointed(got) == fm_strongly_convex(got)

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
            if not fm_full_dimensional(p):
                with pytest.raises(DomainError):
                    irredundant_facets(p)
                continue
            assert facet_pairs(irredundant_facets(p)) == facet_pairs(
                fm_irredundant_facets(p)
            ), facet_pairs(p)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_property_newton_from_points(self, data):
        rank = data.draw(st.integers(2, 5))
        point = st.tuples(*[st.integers(0, 6)] * rank)
        pts = data.draw(st.lists(point, min_size=1, max_size=4))
        assert facet_pairs(newton_from_points(pts, rank)) == facet_pairs(
            fm_newton_from_points(pts, rank)
        )

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_property_pointed_dual_cone(self, data):
        rank = data.draw(st.integers(2, 5))
        ray = st.tuples(*[st.integers(-4, 4)] * rank).filter(any)
        c = Cone(rank, tuple(data.draw(st.lists(ray, min_size=1, max_size=rank + 2))))
        assume(is_pointed(c))
        got, want = dual_cone(c), fm_dual_cone(c)
        assert got.rays == want.rays
        assert facet_pairs(got) == facet_pairs(want)

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
            assert all(dot(h.normal, pt) >= h.threshold for pt in pts)


def random_row_set(rng, rank):
    """Nonzero integer rows from a random subspace, so that some cones
    {x : <a, x> >= 0} have lineality, plus at times the negated sum of a
    few rows, which confines the cone to a hyperplane."""
    basis = []
    for _ in range(rng.randint(1, rank)):
        v = [rng.randint(-3, 3) for _ in range(rank)]
        v[rng.randrange(rank)] = rng.choice((-3, -2, -1, 1, 2, 3))
        basis.append(v)
    while True:
        rows = []
        for _ in range(rng.randint(1, rank + 3)):
            coeffs = [rng.randint(-2, 2) for _ in basis]
            row = tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(rank))
            if any(row):
                rows.append(row)
        if rows:
            break
    if rng.random() < 0.3:
        picked = rng.sample(rows, rng.randint(1, len(rows)))
        neg = tuple(-sum(col) for col in zip(*picked))
        if any(neg):
            rows.append(neg)
    return rows


def random_dd_rows(rng):
    """A rank in 1..7 and 1..10 rows with entries in -3..3: plain random
    rows, or rows drawn from fewer than ``rank`` base rows (a rank-deficient
    set, so the cone has lineality), with zero rows, repeated rows and signed
    unit rows mixed in."""
    rank = rng.randint(1, 7)
    count = rng.randint(1, 10)
    if rank > 1 and rng.random() < 0.4:
        base = [tuple(rng.randint(-3, 3) for _ in range(rank))
                for _ in range(rng.randint(1, rank - 1))]
        rows = [tuple(rng.choice((1, -1)) * e for e in rng.choice(base)) for _ in range(count)]
    else:
        rows = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(count)]
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(("zero", "repeat", "unit"))
        if kind == "zero":
            row = (0,) * rank
        elif kind == "repeat":
            row = rng.choice(rows)
        else:
            row = tuple(rng.choice((1, -1)) * e for e in unit_vectors(rank)[rng.randrange(rank)])
        rows.insert(rng.randint(0, len(rows)), row)
    return rows[:10], rank


class TestDoubleDescriptionAgainstReference:
    """``_dd`` keeps a vector the pivot row vanishes on as it is; the
    reference combines every one.  Vectors are primitive, so both give the
    same lineality basis, rays and zero sets, in the same order."""

    def test_random_rows(self):
        rng = random.Random(17000)
        seen = set()
        for _ in range(2400):
            rows, rank = random_dd_rows(rng)
            got = polyhedra._dd(rows, rank)
            assert got == dd_reference(rows, rank), (rows, rank)
            seen.add(rank)
            seen.add("lineality" if got[0] else "pointed")
            seen.update(name for name, hit in (
                ("zero row", not all(map(any, rows))),
                ("repeated row", len(set(rows)) < len(rows)),
                ("unit row", any(sorted(map(abs, r))[-2:] == [0, 1] for r in rows if len(r) > 1)),
                ("rank-deficient", matrix_rank(rows) < rank),
            ) if hit)
        assert seen == {*range(1, 8), "lineality", "pointed", "zero row", "repeated row",
                        "unit row", "rank-deficient"}

    def test_points_plus_cone_rows(self):
        # the orthant rows come first and pair to 0 with all but their pivot
        rng = random.Random(17001)
        for _ in range(200):
            rank = rng.randint(1, 5)
            rows = [u + (0,) for u in unit_vectors(rank)] + [
                tuple(rng.randint(-3, 3) for _ in range(rank)) + (rng.randint(-3, 3),)
                for _ in range(rng.randint(1, 6))]
            assert polyhedra._dd(rows, rank + 1) == dd_reference(rows, rank + 1), rows

    def test_rays_of_pointed_cones_and_their_duals(self):
        # ``dual_cone`` feeds ``_dd`` a cone's sorted primitive rays; a double
        # dual feeds it the rays of the dual
        rng = random.Random(17200)
        seen = {rank: 0 for rank in range(3, 6)}
        while min(seen.values()) < 60:
            rank = rng.randint(3, 5)
            # every generator pairs > 0 with (1, ..., 1), so the cone is pointed
            gens = [g for g in (tuple(rng.randint(-2, 3) for _ in range(rank))
                                for _ in range(rng.randint(rank, rank + 5))) if sum(g) > 0]
            if matrix_rank(gens) < rank:
                continue
            c = Cone(rank, gens)
            d = dual_cone(c)
            for rays in (c.rays, d.rays):
                got = polyhedra._dd(rays, rank)
                assert got == dd_reference(rays, rank), (rays, rank)
                assert not got[0] and got[1]  # pointed, full-dimensional dual
            seen[rank] += 1

    def test_rows_in_every_order(self):
        # every order of up to five rows, zero, repeated and rank-deficient
        # rows (lineality) among them
        rng = random.Random(17300)
        seen = {"lineality": 0, "pointed": 0}
        for _ in range(60):
            rows, rank = random_dd_rows(rng)
            for order in itertools.permutations(rows[:5]):
                got = polyhedra._dd(order, rank)
                assert got == dd_reference(order, rank), (order, rank)
                seen["lineality" if got[0] else "pointed"] += 1
        assert min(seen.values()) >= 500, seen

    @pytest.mark.parametrize("limit", (2, 4, 8))
    def test_ray_guard_same_as_reference(self, limit, monkeypatch):
        monkeypatch.setattr(polyhedra, "MAX_DD_RAYS", limit)
        rng = random.Random(17100 + limit)
        outcomes = set()
        for _ in range(300):
            rows, rank = random_dd_rows(rng)
            results = []
            for dd in (polyhedra._dd, dd_reference):
                try:
                    results.append(dd(rows, rank))
                except ResourceLimitError:
                    results.append("guard")
            assert results[0] == results[1], (rows, rank)
            outcomes.add(results[0] == "guard")
        assert outcomes == {True, False}


def test_unit_vectors_fresh_list_each_call():
    # callers mutate the list (``_dd`` pops its pivots from it)
    for rank in range(1, 8):
        first = unit_vectors(rank)
        want = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        assert type(first) is list and first == want
        assert all(type(u) is tuple for u in first)
        first.pop(0)
        first.append((9,) * rank)
        second = unit_vectors(rank)
        assert type(second) is list and second == want and second is not first


class TestZeroSetFacets:
    """``_facet_rows`` reads facets and full-dimensionality off the zero sets
    of the double description; the reference is the rank test it replaced."""

    def test_random_row_sets(self):
        rng = random.Random(7700)
        seen = {"lineality": 0, "not full-dimensional": 0, "facets": 0}
        for _ in range(2000):
            rank = rng.randint(1, 5)
            rows = random_row_set(rng, rank)
            got = polyhedra._facet_rows(rows, rank)
            assert got == facet_rows_by_rank(rows, rank), (rank, rows)
            seen["lineality"] += matrix_rank(rows) < rank
            seen["not full-dimensional"] += got is None
            seen["facets"] += bool(got)
        assert min(seen.values()) >= 500, seen

    def test_same_as_reference_body(self):
        # the same 2000 row sets, with the zero sets passed in and left out
        rng = random.Random(7700)
        for _ in range(2000):
            rank = rng.randint(1, 5)
            rows = random_row_set(rng, rank)
            zeros = polyhedra._dd(rows, rank)[2]
            want = facet_rows_reference(rows, rank)
            assert polyhedra._facet_rows(rows, rank) == want, (rank, rows)
            assert polyhedra._facet_rows(rows, rank, zeros) == want, (rank, rows)
            assert facet_rows_reference(rows, rank, zeros) == want, (rank, rows)

    def test_many_rows_same_as_reference_body(self):
        # 70 or more rows, so the zero masks take more than one 30-bit digit
        rng = random.Random(7800)
        seen = {"not full-dimensional": 0, "facets": 0, "multi-digit masks": 0}
        for kind in ("free", "pointed dual", "flat") * 15:
            rank = rng.randint(2, 4)
            rows = [r for r in (tuple(rng.randint(-3, 3) for _ in range(rank))
                                for _ in range(rng.randint(70, 90)))
                    if any(r) and (kind == "free" or sum(r) > 0)]
            # rows pairing > 0 with (1, ..., 1) keep it interior
            rows += [tuple(rng.randint(1, 3) for _ in range(rank)) for _ in range(70 - len(rows))]
            if kind == "flat":
                # the negated sum of a few rows confines the cone to a hyperplane
                rows.append(tuple(-sum(col) for col in zip(*rng.sample(rows, 3))))
            zeros = polyhedra._dd(rows, rank)[2]
            want = facet_rows_reference(rows, rank)
            assert polyhedra._facet_rows(rows, rank) == want, (rank, rows)
            assert polyhedra._facet_rows(rows, rank, zeros) == want, (rank, rows)
            seen["not full-dimensional" if want is None else "facets"] += 1
            seen["multi-digit masks"] += max(zeros, default=0).bit_length() > 30
        assert min(seen.values()) >= 10, seen

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_property_against_rank_test(self, data):
        rank = data.draw(st.integers(1, 5))
        row = st.tuples(*[st.integers(-3, 3)] * rank).filter(any)
        rows = data.draw(st.lists(row, min_size=1, max_size=rank + 3))
        assert polyhedra._facet_rows(rows, rank) == facet_rows_by_rank(rows, rank)


def lineality_basis(rows, rank):
    """``_dd``'s lineality basis as ``homogeneous_rays`` uses it: each
    vector's first nonzero entry made positive, nothing else changed."""
    lin = polyhedra._dd(rows, rank)[0]
    free = [c for c in range(rank) if c not in oracles._rref(rows)[1]]
    # one vector per free column, in column order: positive there, 0 on the
    # other free columns and right of it
    assert len(lin) == len(free), (rank, rows, lin)
    for l, f in zip(lin, free):
        assert l[f] > 0 and not any(l[f + 1:]), (rank, rows, lin)
        assert all(l[g] == 0 for g in free if g != f), (rank, rows, lin)
    return [l if next(e for e in l if e) > 0 else tuple(-e for e in l) for l in lin]


class TestLinealityBasis:
    """``_dd``'s own lineality basis, signed, against the ``Fraction`` row
    reduction's kernel basis, vector for vector; ``lineality_basis`` also
    checks the free-column invariant ``_dd``'s docstring states."""

    def test_random_matrices(self):
        rng = random.Random(8800)
        seen = {r: 0 for r in range(1, 7)}
        for _ in range(2400):
            rank = rng.randint(1, 6)
            want_rank = rng.randint(1, rank)
            while True:
                base = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(want_rank)]
                if matrix_rank(base) == want_rank:
                    break
            # duplicates and integer combinations of the rows keep the rank
            rows = list(base)
            for _ in range(rng.randint(0, 4)):
                if rng.random() < 0.4:
                    rows.append(rng.choice(rows))
                else:
                    u, v = rng.choice(base), rng.choice(base)
                    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                    rows.append(tuple(a * x + b * y for x, y in zip(u, v)))
            rng.shuffle(rows)
            assert lineality_basis(rows, rank) == kernel_basis(rows, rank), (rank, rows)
            seen[want_rank] += 1
        assert min(seen.values()) >= 50, seen

    @pytest.mark.parametrize("rank", range(1, 7))
    def test_empty_and_zero_rows_give_units(self, rank):
        units = unit_vectors(rank)
        assert lineality_basis([], rank) == kernel_basis([], rank) == units
        zero = (0,) * rank
        assert lineality_basis([zero, zero], rank) == kernel_basis([zero, zero], rank) == units

    def test_free_columns_are_last_nonzero_positions(self):
        # free columns 1 and 2; each vector's first nonzero entry is positive
        assert lineality_basis([(1, 1, 1)], 3) == [(1, -1, 0), (1, 0, -1)]
        assert lineality_basis([(2, 0, -3), (2, 0, -3)], 3) == [(0, 1, 0), (3, 0, 2)]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_property_against_kernel_basis(self, data):
        rank = data.draw(st.integers(1, 6))
        row = st.tuples(*[st.integers(-4, 4)] * rank)
        rows = data.draw(st.lists(row, max_size=rank + 2))
        assert lineality_basis(rows, rank) == kernel_basis(rows, rank)

    def test_second_run_gets_the_kernel_basis_rows(self, monkeypatch):
        # the signs keep the rows of the second run, and their order, as
        # they were with the kernel basis, so ``MAX_DD_RAYS`` trips alike
        runs, dd = [], polyhedra._dd

        def recording_dd(rows, rank):
            runs.append(list(rows))
            return dd(rows, rank)

        monkeypatch.setattr(polyhedra, "_dd", recording_dd)
        monkeypatch.setattr(oracles, "_dd", recording_dd)
        rng = random.Random(8850)
        checked = 0
        while checked < 300:
            rank = rng.randint(1, 6)
            rows = random_row_set(rng, rank)
            if matrix_rank(rows) == rank:
                continue
            homogeneous_rays(rows, rank)
            homogeneous_rays_by_kernel_basis(rows, rank)
            assert runs[0] == rows and runs[1] == runs[2], rows
            runs.clear()
            checked += 1


def facet_normals(c):
    return [h.normal for h in c.facets]


@pytest.fixture
def dd_calls(monkeypatch):
    """The number of ``_dd`` runs made so far, by the library or an oracle,
    as a one-element list."""
    calls, dd = [0], polyhedra._dd

    def counting_dd(*args):
        calls[0] += 1
        return dd(*args)

    monkeypatch.setattr(polyhedra, "_dd", counting_dd)
    monkeypatch.setattr(oracles, "_dd", counting_dd)
    return calls


@pytest.fixture
def dd_calls_per_ray_listing(monkeypatch, dd_calls):
    """The ``_dd`` calls each ``homogeneous_rays`` call makes, in order."""
    per_listing, listing = [], polyhedra.homogeneous_rays

    def counting_listing(*args):
        before = dd_calls[0]
        out = listing(*args)
        per_listing.append(dd_calls[0] - before)
        return out

    monkeypatch.setattr(polyhedra, "homogeneous_rays", counting_listing)
    return per_listing


def _cones_with_and_without_lineality(rng, count):
    """Cones whose rays span or do not span (a dual with lineality), pointed
    or not (a lower-dimensional dual)."""
    for _ in range(count):
        rank = rng.randint(1, 5)
        if rng.random() < 0.5:
            yield Cone(rank, tuple(random_row_set(rng, rank)))
        else:
            yield random_cone(rng, rank, pointed=rng.random() < 0.5)


class TestOneDoubleDescription:
    """``dual_cone`` runs ``_dd`` once on a pointed full-dimensional cone and
    takes its dual's rays from that run whenever the dual is pointed;
    ``homogeneous_rays`` runs ``_dd`` once on a pointed cone, and a second
    time only to cut a nonzero lineality space off."""

    @pytest.mark.parametrize("rank", (3, 4, 5))
    def test_double_dual_of_pointed_cone(self, rank, dd_calls, dd_calls_per_ray_listing):
        rng = random.Random(8900 + rank)
        for _ in range(15):
            c = random_pointed_cone(rng, rank)
            before = dd_calls[0]
            d1 = dual_cone(c)
            assert dd_calls[0] - before == 1
            d2 = dual_cone(d1)
            assert dd_calls[0] - before == 2
            assert dd_calls_per_ray_listing == []
            assert d1 == dual_cone_by_two_runs(c)
            assert d2 == dual_cone_by_two_runs(d1)
            assert d1.rays == homogeneous_rays_by_kernel_basis(facet_normals(d1), rank)
            assert d2.rays == homogeneous_rays_by_kernel_basis(facet_normals(d2), rank)

    def test_dual_cone_as_with_two_runs(self, dd_calls):
        # one run fewer exactly when the dual is pointed (c's rays span)
        rng = random.Random(8920)
        seen = set()
        for c in _cones_with_and_without_lineality(rng, 300):
            before = dd_calls[0]
            got = dual_cone(c)
            runs, before = dd_calls[0] - before, dd_calls[0]
            want = dual_cone_by_two_runs(c)
            pointed_dual = matrix_rank(c.rays) == c.rank
            assert runs == dd_calls[0] - before - pointed_dual, c
            assert got == want, c
            seen.add((pointed_dual, is_pointed(c)))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_lineality_takes_a_second_run(self, dd_calls_per_ray_listing):
        rng = random.Random(8950)
        checked = 0
        while checked < 100:
            rank = rng.randint(1, 4)
            rows = random_row_set(rng, rank)
            if matrix_rank(rows) == rank:
                continue
            got = polyhedra.homogeneous_rays(rows, rank)
            assert dd_calls_per_ray_listing == [2], rows
            dd_calls_per_ray_listing.clear()
            assert got == subset_homogeneous_rays(rows, rank), rows
            checked += 1
        assert polyhedra.homogeneous_rays([], 3) == subset_homogeneous_rays([], 3)
        assert dd_calls_per_ray_listing == [2]

    @pytest.mark.parametrize("limit", (2, 4, 8))
    def test_dual_cone_guard_where_it_was_raised(self, limit, monkeypatch):
        cones = list(_cones_with_and_without_lineality(random.Random(9100 + limit), 300))
        monkeypatch.setattr(polyhedra, "MAX_DD_RAYS", limit)
        outcomes = set()
        for c in cones:
            results = []
            for dual in (dual_cone, dual_cone_by_two_runs):
                try:
                    results.append(dual(c))
                except ResourceLimitError:
                    results.append("guard")
            assert results[0] == results[1], c
            outcomes.add(results[0] == "guard")
        assert outcomes == {True, False}

    @pytest.mark.parametrize("limit", (2, 4, 8))
    def test_ray_guard_where_it_was_raised(self, limit, monkeypatch):
        # the first run is a prefix of the second: no listing stops sooner
        monkeypatch.setattr(polyhedra, "MAX_DD_RAYS", limit)
        rng = random.Random(9000 + limit)
        outcomes = set()
        for _ in range(300):
            rank = rng.randint(2, 5)
            rows = random_row_set(rng, rank) if rng.random() < 0.5 else [
                tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rank + 3)]
            results = []
            for listing in (homogeneous_rays, homogeneous_rays_by_kernel_basis):
                try:
                    results.append(listing(rows, rank))
                except ResourceLimitError:
                    results.append("guard")
            assert results[0] == results[1], rows
            outcomes.add(results[0] == "guard")
        assert outcomes == {True, False}
