"""Monomial ideals: closure, normality, multiplier ideals/modules, jumps, lct."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reesmult.ideals
from reesmult.errors import DomainError, ResourceLimitError
from reesmult.ideals import (
    MonomialIdeal,
    default_box,
    integral_closure,
    is_normal,
    jumping_numbers,
    lct,
    minimalize,
    first_non_closed_power,
    module_contains,
    multiplier_ideal,
    multiplier_module,
    newton,
    newton_positive_facets,
    omega_module,
    power,
)
from reesmult.polyhedra import cube, dot, lattice_points, lattice_runs

from oracles import (
    first_non_closed_power_by_closure,
    first_non_closed_power_by_runs,
    in_hull_plus_orthant,
    in_ideal,
    integral_closure_by_minimalize,
    jumping_numbers_by_box,
    jumping_numbers_by_candidates,
    lct_by_scan,
    minimal_generators_reference,
    minimalize_reference,
    power_runs,
    scale,
    strict_interior_points,
    strict_interior_system,
)

M_XY = minimalize([(1, 0), (0, 1)])
M_X2Y3 = minimalize([(2, 0), (0, 3)])
M_XY2 = minimalize([(2, 0), (1, 1), (0, 2)])
UNIT2 = minimalize([(0, 0)])


def random_ideal(rng, nvars, max_entry=5, max_gens=4):
    gens = [
        tuple(rng.randint(0, max_entry) for _ in range(nvars))
        for _ in range(rng.randint(1, max_gens))
    ]
    return minimalize(gens, nvars)


class TestMinimalize:
    def test_divisible_removed(self):
        assert minimalize([(2, 0), (2, 1), (0, 3)]).generators == ((0, 3), (2, 0))

    def test_single(self):
        assert minimalize([(1, 1)]).generators == ((1, 1),)

    def test_diagonal(self):
        assert minimalize([(4, 0), (1, 1), (0, 4), (2, 2)]).generators == (
            (0, 4), (1, 1), (4, 0),
        )

    def test_zero_ideal(self):
        with pytest.raises(DomainError, match="zero ideal"):
            minimalize([])

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(20):
            a = random_ideal(rng, rng.choice((1, 2, 3)))
            assert minimalize(a.generators, a.nvars) == a

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference(self, seed):
        # the former two-filter body, kept in oracles, on inputs with duplicates
        rng = random.Random(6100 + seed)
        for _ in range(250):
            nvars = rng.randint(1, 5)
            gens = [
                tuple(rng.randint(0, 4) for _ in range(nvars))
                for _ in range(rng.randint(1, 30))
            ]
            gens += rng.choices(gens, k=rng.randint(0, 5))
            rng.shuffle(gens)
            assert minimalize(gens, nvars) == minimalize_reference(gens, nvars), gens

    def test_constructor_keeps_minimal_generators(self):
        assert MonomialIdeal(2, ((1, 0), (1, 1))).generators == ((1, 0),)

    @pytest.mark.parametrize("seed", range(4))
    def test_constructor_matches_reference(self, seed):
        # the two-filter reference on minimal lists and on lists with a
        # multiple of a generator or an exact duplicate added
        rng = random.Random(6200 + seed)
        outcomes = set()
        for _ in range(300):
            nvars = rng.randint(1, 5)
            gens = [
                tuple(rng.randint(0, 4) for _ in range(nvars))
                for _ in range(rng.randint(1, 12))
            ]
            if rng.random() < 0.5:
                gens = list(minimalize(gens, nvars).generators)
                if rng.random() < 0.5:
                    g = rng.choice(gens)
                    gens.append(tuple(e + rng.randint(0, 1) for e in g))
            rng.shuffle(gens)
            expected = minimalize_reference(gens, nvars)
            outcomes.add(len(gens) == len(expected.generators))
            assert MonomialIdeal(nvars, gens) == expected, gens
        assert outcomes == {True, False}

    @pytest.mark.parametrize("seed", range(3))
    def test_degree_filter_against_reference(self, seed):
        # 1000 sets per seed, rank 1-6, entries up to 10^5: with repeats,
        # zero vectors, multiples of members and equigenerated sets, whose
        # minimality scan the degree filter skips
        rng = random.Random(6300 + seed)
        outcomes = {"dropped": 0, "all_kept": 0, "unit": 0, "equigenerated": 0}
        for trial in range(1000):
            nvars = rng.randint(1, 6)
            top = rng.choice((3, 10, 10 ** 5))
            size = rng.randint(1, 15)
            if trial % 4 == 0:
                # one total degree: points of the simplex of side `degree`
                degree = rng.randint(0, top)
                gens = []
                for _ in range(size):
                    cuts = sorted(rng.randint(0, degree) for _ in range(nvars - 1))
                    gens.append(tuple(b - a for a, b in zip([0] + cuts, cuts + [degree])))
                outcomes["equigenerated"] += 1
            else:
                gens = [tuple(rng.randint(0, top) for _ in range(nvars)) for _ in range(size)]
                gens += [tuple(e + rng.randint(0, 2) for e in g)
                         for g in rng.choices(gens, k=rng.randint(0, 4))]
            gens += rng.choices(gens, k=rng.randint(0, 3))
            if rng.random() < 0.05:
                gens.append((0,) * nvars)
            rng.shuffle(gens)
            want = minimal_generators_reference(gens)
            assert MonomialIdeal(nvars, gens).generators == want, gens
            outcomes["unit" if want == ((0,) * nvars,) else
                     "all_kept" if len(want) == len(set(gens)) else "dropped"] += 1
        assert min(outcomes.values()) >= 40, outcomes

    def test_longer_generator_refused(self):
        # the divisor (1, 0) must not hide that (1, 0, 5) has three entries
        with pytest.raises(DomainError, match=r"^generator length does not match nvars$"):
            minimalize([(1, 0), (1, 0, 5)], 2)

    def test_shape_checks_come_before_minimality(self):
        with pytest.raises(DomainError, match="length does not match"):
            MonomialIdeal(2, ((1, 0), (1, 1, 0)))
        with pytest.raises(DomainError, match="must be nonnegative"):
            MonomialIdeal(2, ((1, 0), (1, 1), (0, -1)))


class TestNewton:
    def test_x2_y3(self):
        assert [(h.normal, h.threshold) for h in newton(M_X2Y3).facets] == [
            ((0, 1), 0), ((1, 0), 0), ((3, 2), 6),
        ]

    def test_maximal_ideal(self):
        assert ((1, 1), 1) in [(h.normal, h.threshold) for h in newton(M_XY).facets]

    def test_unit(self):
        assert [h.normal for h in newton(UNIT2).facets] == [(0, 1), (1, 0)]


class TestPower:
    def test_square_of_maximal(self):
        assert power(M_XY, 2).generators == ((0, 2), (1, 1), (2, 0))

    def test_square_diagonal(self):
        assert power(M_X2Y3, 2).generators == ((0, 6), (2, 3), (4, 0))

    def test_identity(self):
        assert power(M_X2Y3, 1) is M_X2Y3

    def test_nonpositive(self):
        with pytest.raises(DomainError):
            power(M_XY, 0)

    @pytest.mark.parametrize("k", (2.0, Fraction(2), Fraction(3, 2)),
                             ids=("float", "fraction", "non_integral_fraction"))
    def test_non_integer_exponent_refused(self, k):
        with pytest.raises(DomainError, match="not an integer"):
            power(M_XY, k)

    def test_bool_exponent_is_an_int(self):
        assert power(M_X2Y3, True) is M_X2Y3
        with pytest.raises(DomainError, match="must be positive"):
            power(M_XY, False)

    def test_newton_scaling(self):
        # Newt(a^k) = k * Newt(a) as facet systems
        rng = random.Random(77)
        for _ in range(10):
            a = random_ideal(rng, rng.choice((2, 3)), max_entry=4)
            k = rng.randint(2, 3)
            lhs = [(h.normal, h.threshold) for h in newton(power(a, k)).facets]
            rhs = [(h.normal, h.threshold) for h in scale(newton(a), k).facets]
            assert lhs == rhs


class TestIntegralClosure:
    def test_x2_y3(self):
        assert integral_closure(M_X2Y3).generators == ((0, 3), (1, 2), (2, 0))

    def test_closed_square(self):
        assert integral_closure(M_XY2) == M_XY2

    def test_x4_y4_xy(self):
        a = minimalize([(4, 0), (1, 1), (0, 4)])
        assert integral_closure(a) == a

    def test_against_membership_oracle(self):
        rng = random.Random(41)
        for _ in range(12):
            a = random_ideal(rng, rng.choice((2, 3)), max_entry=4)
            closure = integral_closure(a)
            hi = a.max_entry() + 2
            for m in itertools.product(range(hi + 1), repeat=a.nvars):
                assert in_ideal(closure, m) == in_hull_plus_orthant(
                    m, a.generators
                ), (a, m)

    def test_matches_minimalized_run_starts(self):
        # the unit ideal, then 240 random ideals of rank 1-4, principal included
        rng = random.Random(19)
        ideals = [UNIT2] + [random_ideal(rng, rng.randint(1, 4), rng.choice((3, 6)), max_gens=6)
                            for _ in range(240)]
        for a in ideals:
            assert integral_closure(a) == integral_closure_by_minimalize(a), a

    def test_extensive_idempotent(self):
        rng = random.Random(42)
        for _ in range(15):
            a = random_ideal(rng, rng.choice((1, 2, 3)))
            c = integral_closure(a)
            assert all(in_ideal(c, g) for g in a.generators)
            assert integral_closure(c) == c


class TestIsNormal:
    def test_square_of_maximal(self):
        assert is_normal(M_XY2)

    def test_x2_y3_not(self):
        assert not is_normal(M_X2Y3)

    def test_maximal(self):
        assert is_normal(M_XY)

    def test_bound_override(self):
        assert is_normal(M_XY, bound=4)

    @pytest.mark.parametrize("bound", (3.0, Fraction(3), Fraction(3, 2)),
                             ids=("float", "fraction", "non_integral_fraction"))
    def test_non_integer_bound_refused(self, bound):
        for scan in (is_normal, first_non_closed_power):
            with pytest.raises(DomainError, match="not an integer"):
                scan(M_XY, bound)

    def test_bool_bound_is_an_int(self):
        # closed, but its square is not: a bound of True scans k = 1 only
        a = minimalize([(0, 3, 3), (1, 0, 3), (1, 2, 2), (2, 1, 0)])
        assert first_non_closed_power(a, 2) == 2
        assert first_non_closed_power(a, True) is None and is_normal(a, True)
        assert first_non_closed_power(a, False) is None

    def test_principal_ideals_are_not_scanned(self, monkeypatch):
        # (g)^k = (kg) is principal, so closed: no closure is listed, even where
        # the scan's box of k times the generator would exceed the guard
        def unlisted(a, k):
            raise AssertionError("closure points listed")

        monkeypatch.setattr(reesmult.ideals, "_closure_points", unlisted)
        for a in (UNIT2, minimalize([(0,)]), minimalize([(3,)]), minimalize([(2, 0, 5)]),
                  minimalize([(20,) * 6])):
            for bound in (None, 1, 5, 40):
                assert first_non_closed_power(a, bound) is None, (a, bound)
                assert is_normal(a, bound), (a, bound)
        with pytest.raises(DomainError, match="not an integer"):
            first_non_closed_power(minimalize([(3,)]), 1.5)

    def test_matches_closure_oracle(self):
        rng = random.Random(5)
        # closed, but its square is not
        square_not_closed = minimalize([(0, 3, 3), (1, 0, 3), (1, 2, 2), (2, 1, 0)])
        ideals = [UNIT2, M_X2Y3, minimalize([(0,)]), minimalize([(0, 0, 0, 0)]),
                  square_not_closed]
        for _ in range(500):
            a = random_ideal(rng, rng.randint(1, 4), max_entry=3)
            # closures are where a higher power can be the first to fail
            ideals.append(integral_closure(a) if rng.random() < 0.5 else a)
        seen = set()
        for a in ideals:
            for bound in (None, 3):
                want = first_non_closed_power_by_closure(a, bound)
                assert first_non_closed_power(a, bound) == want, (a, bound)
                assert is_normal(a, bound) == (want is None)
                seen.add((a.nvars, want))
        # every rank, and non-normal ideals at more than one power
        assert {n for n, _ in seen} == {1, 2, 3, 4}
        assert {k for _, k in seen} >= {None, 1, 2}


def scan_bounds(a):
    return (None, 1, 3, max(a.nvars - 1, 3))


def expected_at(first, a, bound):
    """The run-list scan's answer at ``bound``, read off one scan up to a
    larger bound: the scan stops at the first non-closed power."""
    top = max(a.nvars - 1, 1) if bound is None else bound
    return first if first is not None and first <= top else None


@st.composite
def scanned_ideals(draw):
    n = draw(st.integers(1, 5))
    exponents = st.tuples(*[st.integers(0, 2 if n == 5 else 3)] * n)
    a = minimalize(draw(st.lists(exponents, min_size=1, max_size=4)), n)
    return integral_closure(a) if draw(st.booleans()) else a


class TestClosedPowerScan:
    def test_matches_run_list_scan(self):
        # 1000 ideals of rank 1-5, every second one a closure
        rng = random.Random(20)
        seen = set()
        for i in range(1000):
            n = 1 + i % 5
            a = random_ideal(rng, n, max_entry=(5, 5, 4, 3, 2)[n - 1], max_gens=3 if n == 5 else 4)
            if i % 2:
                a = integral_closure(a)
            first = first_non_closed_power_by_runs(a, max(n - 1, 3))
            # closed powers up to n - 1 imply normality: a larger bound finds nothing more
            assert first_non_closed_power(a) == first_non_closed_power(a, max(n - 1, 3)), a
            for bound in scan_bounds(a):
                want = expected_at(first, a, bound)
                assert first_non_closed_power(a, bound) == want, (a, bound)
                seen.add(want)
        assert seen == {None, 1, 2}

    @settings(max_examples=150, deadline=None)
    @given(scanned_ideals(), st.data())
    def test_matches_run_list_scan_on_any_ideal(self, a, data):
        bound = data.draw(st.sampled_from(scan_bounds(a)))
        assert first_non_closed_power(a, bound) == first_non_closed_power_by_runs(a, bound)


class TestPowerRuns:
    def test_matches_brute_force(self):
        rng = random.Random(8)
        for _ in range(60):
            a = random_ideal(rng, rng.randint(1, 4), max_entry=3)
            box = tuple((0, rng.randint(0, 5)) for _ in range(a.nvars))
            everything = itertools.product(*(range(hi + 1) for _, hi in box))
            everything = list(everything)
            for k in range(-2, 4):
                want = everything if k <= 0 else [
                    m for m in everything if in_ideal(power(a, k), m)
                ]
                got = [
                    p + (v,) for p, lo, hi in power_runs(a, k, box)
                    for v in range(lo, hi + 1)
                ]
                assert got == want, (a, k, box)


class TestMultiplierModule:
    def test_x2y3_at_5_6(self):
        mm = multiplier_module(M_X2Y3, Fraction(5, 6))
        assert mm.system.constraints == (((0, 1), 1), ((1, 0), 1), ((3, 2), 6))
        # cross-check by brute-force strict membership in int((5/6) Newt)
        box = cube(2, 0, 8)
        scaled = scale(newton(M_X2Y3), Fraction(5, 6))
        brute = strict_interior_points(
            [(h.normal, h.threshold) for h in scaled.facets], box
        )
        assert lattice_points(mm.system, box) == brute

    def test_lambda_zero_is_omega(self):
        rng = random.Random(12)
        for _ in range(10):
            a = random_ideal(rng, rng.choice((1, 2, 3)))
            assert multiplier_module(a, 0).system == omega_module(a.nvars).system

    def test_maximal_at_two(self):
        mm = multiplier_module(M_XY, 2)
        assert mm.system.constraints == (((0, 1), 1), ((1, 0), 1), ((1, 1), 3))
        box = cube(2, 0, 8)
        scaled = scale(newton(M_XY), 2)
        assert lattice_points(mm.system, box) == strict_interior_points(
            [(h.normal, h.threshold) for h in scaled.facets], box
        )

    def test_rejects_negative_and_float(self):
        with pytest.raises(DomainError):
            multiplier_module(M_XY, -1)
        with pytest.raises(DomainError):
            multiplier_module(M_XY, 0.5)

    def test_checked_before_the_cache(self):
        # 0.5 hashes like the cached Fraction(1, 2) and is still refused
        multiplier_module(M_XY, Fraction(1, 2))
        for _ in range(2):
            with pytest.raises(DomainError):
                multiplier_module(M_XY, 0.5)
            with pytest.raises(DomainError):
                multiplier_module(M_XY, -1)

    def test_equal_exponents_share_one_module(self):
        module = multiplier_module(M_XY, 1)
        assert multiplier_module(M_XY, Fraction(1)) is module
        assert multiplier_module(M_XY, "1") is module
        assert multiplier_module(minimalize([(0, 1), (1, 0)]), "2/2") is module

    def test_ambient_omega_implies_ones(self):
        rng = random.Random(13)
        box = cube(2, 0, 9)
        for _ in range(8):
            a = random_ideal(rng, 2)
            lam = Fraction(rng.randint(0, 12), rng.randint(1, 6))
            for m in lattice_points(multiplier_module(a, lam).system, box):
                assert all(e >= 1 for e in m)


class TestMultiplierModuleAgainstScaledNewton:
    """The thresholds read off the Newton facets against the strict interior
    of the scaled polyhedron, which checks irredundancy afresh."""

    GRID = (0, Fraction(1, 7), Fraction(1, 2), Fraction(5, 6), 1, Fraction(7, 3), 4)

    def test_random_ideals(self):
        rng = random.Random(8300)
        ideals = [minimalize([(1, 1)]), minimalize([(1, 0)])]
        ideals += [random_ideal(rng, rng.randint(1, 4)) for _ in range(520)]
        assert {a.nvars for a in ideals} == {1, 2, 3, 4}
        for a in ideals:
            for lam in self.GRID:
                want = strict_interior_system(scale(newton(a), lam))
                assert multiplier_module(a, lam).system == want, (a, lam)


class TestMultiplierIdeal:
    def test_x2y3_at_5_6(self):
        mi = multiplier_ideal(M_X2Y3, Fraction(5, 6))
        assert mi.system.constraints == (((0, 1), 0), ((1, 0), 0), ((3, 2), 1))

    def test_lambda_zero_full_ring(self):
        assert multiplier_ideal(M_XY, 0).is_full_ring()

    def test_maximal_at_integers(self):
        # J((x,y)^n) = (x,y)^(n-1): brute-force over the box via the shift,
        # m is in J iff m + (1,1) is strictly inside n * Newt
        box = cube(2, 0, 10)
        for n in (1, 2, 3):
            mi = multiplier_ideal(M_XY, n)
            brute = [
                m
                for m in itertools.product(range(11), repeat=2)
                if all(
                    dot(h.normal, tuple(e + 1 for e in m)) > n * h.threshold
                    for h in newton(M_XY).facets
                )
            ]
            assert lattice_points(mi.system, box) == brute
            want = [m for m in itertools.product(range(11), repeat=2) if sum(m) >= n - 1]
            assert lattice_points(mi.system, box) == want
            assert mi.is_full_ring() == (n == 1)

    def test_shift_identity(self):
        rng = random.Random(14)
        for _ in range(10):
            a = random_ideal(rng, rng.choice((2, 3)))
            lam = Fraction(rng.randint(0, 10), rng.randint(1, 5))
            box_i = tuple((0, 7) for _ in range(a.nvars))
            box_m = tuple((1, 8) for _ in range(a.nvars))
            ideal_pts = lattice_points(multiplier_ideal(a, lam).system, box_i)
            module_pts = lattice_points(multiplier_module(a, lam).system, box_m)
            shifted = [tuple(e + 1 for e in m) for m in ideal_pts]
            assert shifted == module_pts


class TestModuleContains:
    def test_reflexive(self):
        mm = multiplier_module(M_X2Y3, Fraction(1, 2))
        assert module_contains(mm, mm, cube(2, 0, 10))

    def test_monotone(self):
        big = multiplier_module(M_X2Y3, Fraction(1, 2))
        small = multiplier_module(M_X2Y3, Fraction(5, 6))
        assert module_contains(big, small, cube(2, 0, 10))

    def test_omega_contains_all(self):
        rng = random.Random(15)
        for _ in range(10):
            a = random_ideal(rng, 2)
            lam = Fraction(rng.randint(0, 16), rng.randint(1, 4))
            assert module_contains(
                omega_module(2), multiplier_module(a, lam), cube(2, 0, 10)
            )

    def test_monotone_random(self):
        rng = random.Random(16)
        for _ in range(12):
            a = random_ideal(rng, rng.choice((2, 3)))
            l1 = Fraction(rng.randint(0, 16), 4)
            l2 = l1 + Fraction(rng.randint(0, 8), 4)
            box = tuple((0, 10) for _ in range(a.nvars))
            assert module_contains(
                multiplier_module(a, l1), multiplier_module(a, l2), box
            )

    def test_rank_mismatch(self):
        with pytest.raises(DomainError, match="mismatched rank"):
            module_contains(omega_module(2), omega_module(3), cube(2, 0, 3))


def independent_jump_scan(a, lam_max, box):
    """Jump oracle with strict rational comparisons and no floor arithmetic:
    a candidate jumps iff some box point is strictly inside lam' Newt(a)
    for all lam' < cand (tested just below) but not at cand."""
    facets = [
        (h.normal, h.threshold) for h in newton(a).facets if h.threshold > 0
    ]
    cands = sorted(
        {
            Fraction(t, int(c))
            for _, c in facets
            for t in range(1, int(lam_max * c) + 1)
        }
    )
    all_facets = [(h.normal, h.threshold) for h in newton(a).facets]
    jumps = []
    for cand in cands:
        eps = Fraction(1, 2 * max(int(c) for _, c in facets) * cand.denominator)
        before = strict_interior_points(
            [(w, (cand - eps) * c) for w, c in all_facets], box
        )
        at = strict_interior_points([(w, cand * c) for w, c in all_facets], box)
        if before != at:
            jumps.append(cand)
    return jumps


class TestJumpingNumbers:
    def test_x2y3_to_one(self):
        # the full enumeration oracle gives {5/6} on (0, 1]
        report = jumping_numbers(M_X2Y3, 1)
        assert report.jumps == (Fraction(5, 6),)
        assert report.warnings == ()

    def test_x2y3_to_two_against_oracle(self):
        report = jumping_numbers(M_X2Y3, 2)
        oracle = independent_jump_scan(M_X2Y3, 2, report.box)
        assert list(report.jumps) == oracle
        assert report.jumps == (
            Fraction(5, 6), Fraction(7, 6), Fraction(4, 3), Fraction(3, 2),
            Fraction(5, 3), Fraction(11, 6), Fraction(2),
        )

    def test_maximal_to_two(self):
        report = jumping_numbers(M_XY, 2)
        assert report.jumps == (Fraction(2),)

    def test_unit_no_jumps(self):
        assert jumping_numbers(UNIT2, 2).jumps == ()

    def test_random_against_oracle(self):
        rng = random.Random(17)
        for _ in range(6):
            a = random_ideal(rng, 2, max_entry=4, max_gens=3)
            if a.is_unit:
                continue
            report = jumping_numbers(a, 2)
            assert list(report.jumps) == independent_jump_scan(a, 2, report.box)

    def test_right_continuity_at_non_jumps(self):
        report = jumping_numbers(M_X2Y3, 2)
        non_jumps = [c for c in report.candidates if c not in report.jumps]
        gap = min(
            b - c for b, c in zip(report.candidates[1:], report.candidates)
        ) / 2
        for cand in non_jumps:
            below, at, above = (
                lattice_points(multiplier_module(M_X2Y3, lam).system, report.box)
                for lam in (cand - gap, cand, cand + gap)
            )
            assert below == at == above

    def test_periodicity(self):
        # a module jump at lam implies one at lam + 1, within range; on the
        # hand examples and 300 seeded random ideals of rank 1-4
        rng = random.Random(4040)
        ideals = [M_X2Y3, M_XY, M_XY2] + [random_ideal(rng, rng.randint(1, 4)) for _ in range(300)]
        for a in ideals:
            report = jumping_numbers(a, 3)
            for j in report.jumps:
                if j + 1 <= 3:
                    assert j + 1 in report.jumps, (a, j)

    def test_nonpositive_max(self):
        with pytest.raises(DomainError):
            jumping_numbers(M_XY, 0)

    def test_exact_where_box_scan_warned(self):
        # the box scan warned "box may be too small" once on the first and
        # 29 times on the second; a 3x box confirms the exact jumps
        for gens, lam_max, warned in (
            ([(1, 3), (4, 2)], Fraction(5, 2), 1),
            ([(0, 3), (3, 2)], 6, 29),
        ):
            a = minimalize(gens)
            report = jumping_numbers(a, lam_max)
            assert report.warnings == ()
            assert len(jumping_numbers_by_box(a, lam_max).warnings) == warned
            wide = cube(2, 0, 3 * report.box[0][1])
            assert report.jumps == jumping_numbers_by_box(a, lam_max, wide).jumps

    def test_matches_box_scan(self):
        # 320 random ideals of rank 1-4 against the scan on its default box;
        # 32 of rank 1 and 2 also on a 3x box
        rng = random.Random(2026)
        lam_top = {1: 6, 2: 4, 3: 2, 4: 1}
        warned = 0
        for i in range(320):
            n = 1 + i % 4
            a = random_ideal(rng, n, max_entry=6 - n)
            lam_max = Fraction(rng.randint(1, 2 * lam_top[n]), 2)
            report = jumping_numbers(a, lam_max)
            oracle = jumping_numbers_by_box(a, lam_max)
            warned += bool(oracle.warnings)
            assert report.warnings == ()
            assert (report.jumps, report.candidates, report.box) == (
                oracle.jumps, oracle.candidates, oracle.box
            ), (a, lam_max)
            if i % 20 < 2:
                wide = cube(n, 0, 3 * report.box[0][1])
                assert report.jumps == jumping_numbers_by_box(a, lam_max, wide).jumps
        assert warned

    def test_matches_candidate_search(self, monkeypatch):
        # 320 random ideals of rank 1-4, lam_max <= 8, against the former
        # per-candidate search: equal reports, or equal guard refusals
        monkeypatch.setenv("REESMULT_MAX_POINTS", "3000")

        def outcome(search, a, lam_max):
            try:
                return search(a, lam_max)
            except ResourceLimitError as exc:
                return str(exc)

        rng = random.Random(18)
        refused = 0
        for i in range(320):
            n = 1 + i % 4
            a = UNIT2 if i == 0 else random_ideal(rng, n, max_entry=7 - n)
            q = rng.randint(1, 3)
            lam_max = Fraction(rng.randint(1, 8 * q), q)
            new = outcome(jumping_numbers, a, lam_max)
            assert new == outcome(jumping_numbers_by_candidates, a, lam_max), (a, lam_max)
            refused += isinstance(new, str)
        assert 0 < refused < 100

    def test_matches_box_scan_where_it_does_not_warn(self):
        rng = random.Random(41)
        compared = 0
        while compared < 40:
            n = 1 + compared % 3
            a = random_ideal(rng, n, max_entry=5 - n)
            lam_max = Fraction(rng.randint(1, 8), rng.randint(1, 2))
            oracle = jumping_numbers_by_box(a, lam_max)
            if not oracle.warnings:
                assert jumping_numbers(a, lam_max).jumps == oracle.jumps, (a, lam_max)
                compared += 1

    def test_one_run_listing_per_positive_facet(self, monkeypatch):
        # the per-candidate search listed 596 times on (x^2, y^3) up to 100
        calls = []

        def counted(system, box):
            calls.append(box)
            return lattice_runs(system, box)

        monkeypatch.setattr(reesmult.ideals, "lattice_runs", counted)
        x2y3z5 = minimalize([(2, 0, 0), (0, 3, 0), (0, 0, 5)])
        for a, lam_max in ((M_X2Y3, 100), (M_XY2, 7), (x2y3z5, 12),
                           (minimalize([(1, 3), (4, 2)]), Fraction(5, 2)), (UNIT2, 3)):
            calls.clear()
            jumping_numbers(a, lam_max)
            assert len(calls) <= len(newton_positive_facets(a)), (a, lam_max)

    def test_skoda_periodicity(self):
        # for lam > n, lam is a jump iff lam - 1 is (Ein, Lazarsfeld, Smith
        # and Varolin 2004); at lam = n it fails: for (x, y^2), 2 jumps, 1 not
        report = jumping_numbers(minimalize([(1, 0), (0, 2)]), 2)
        assert 1 in report.candidates and 1 not in report.jumps and 2 in report.jumps
        rng = random.Random(29)
        for i in range(300):
            n = 1 + i % 4
            a = random_ideal(rng, n, max_entry=3)
            report = jumping_numbers(a, n + 1)
            for lam in report.candidates:
                if lam > n:
                    assert (lam in report.jumps) == (lam - 1 in report.jumps), (a, lam)


class TestLct:
    def test_x2y3(self):
        assert lct(M_X2Y3) == Fraction(5, 6)

    def test_maximal_ideals(self):
        assert lct(M_XY) == 2
        assert lct(minimalize([(1, 0, 0), (0, 1, 0), (0, 0, 1)])) == 3

    def test_principal_one_var(self):
        assert lct(minimalize([(1,)])) == 1

    def test_unit(self):
        with pytest.raises(DomainError, match="lct undefined for unit ideal"):
            lct(UNIT2)

    @pytest.mark.parametrize("seed", range(2))
    def test_two_calls_match_scan(self, seed):
        # 250 seeded ideals of rank 1-4 per seed against the former scan
        rng = random.Random(7100 + seed)
        checked = 0
        while checked < 250:
            a = random_ideal(rng, rng.randint(1, 4), max_entry=7, max_gens=5)
            if a.is_unit:
                continue
            assert lct(a) == lct_by_scan(a), a
            checked += 1

    def test_shifted_threshold_raises(self, monkeypatch):
        # (x^2, y^3) has the one positive facet 3u + 2v >= 6: at 7 the formula
        # reads 5/7, where the zero exponent is still in the multiplier ideal
        assert newton_positive_facets(M_X2Y3) == [((3, 2), 6)]
        monkeypatch.setattr(reesmult.ideals, "newton_positive_facets", lambda a: [((3, 2), 7)])
        with pytest.raises(AssertionError, match=r"^lct computations disagree: formula 5/7"):
            lct(M_X2Y3)

    @pytest.mark.parametrize("seed", range(2))
    def test_shifted_threshold_against_scan(self, seed, monkeypatch):
        # one threshold moved by one in the formula's facets but not in the
        # multiplier ideal: the two calls refuse exactly when the scan's first
        # candidate differs from the formula
        rng = random.Random(7200 + seed)
        true_facets = newton_positive_facets
        outcomes = {True: 0, False: 0}
        for _ in range(150):
            a = random_ideal(rng, rng.randint(1, 4), max_entry=7, max_gens=5)
            if a.is_unit:
                continue
            facets = list(true_facets(a))
            i = rng.randrange(len(facets))
            w, c = facets[i]
            facets[i] = (w, c + 1 if c == 1 or rng.random() < 0.5 else c - 1)
            formula = min(Fraction(sum(w), c) for w, c in facets)
            disagree = lct_by_scan(a, facets) != formula
            monkeypatch.setattr(reesmult.ideals, "newton_positive_facets", lambda a: facets)
            try:
                lct(a)
                raised = False
            except AssertionError:
                raised = True
            monkeypatch.undo()
            assert raised == disagree, (a, facets)
            outcomes[raised] += 1
        assert min(outcomes.values()) >= 20, outcomes

    def test_large_exponents_answer_fast(self):
        # the scan built every candidate below the formula: past 30 s here
        a = minimalize([(1009, 0, 0), (0, 1013, 0), (0, 0, 1019)])
        start = time.perf_counter()
        assert lct(a) == Fraction(1, 1009) + Fraction(1, 1013) + Fraction(1, 1019)
        assert time.perf_counter() - start < 1.0

    def test_first_ideal_jump(self):
        # lct is the first jump of the ideal version
        for a in (M_X2Y3, M_XY, M_XY2):
            value = lct(a)
            box = default_box(a, value + 1)
            assert lattice_points(multiplier_ideal(a, value).system, box) != lattice_points(
                multiplier_ideal(a, value - Fraction(1, 840)).system, box
            )
