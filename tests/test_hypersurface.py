"""Local hypersurface model: divisors, sections, regrading, local identity."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reesmult.errors import DomainError
from reesmult.hypersurface import (
    LocalHypersurfaceModel,
    LocalMonomial,
    divisor_data,
    is_section,
    monomial_pairings,
    normal_form,
    regrade,
    snc_multiplier_section,
    verify_local_decomposition,
)
from reesmult.ideals import minimalize
from reesmult import polyhedra
from reesmult.polyhedra import (
    POINT_GUARD_ENV,
    ThresholdSystem,
    dot,
    interior_threshold,
    unit_vectors,
)
from reesmult.rees import extended_rees_cone
from reesmult.serialize import dumps_canonical

from oracles import local_decomposition_by_points, verify_local_decomposition_by_runs

M23 = LocalHypersurfaceModel(2, 2, (2, 3))
M11 = LocalHypersurfaceModel(1, 1, (1,))
M12 = LocalHypersurfaceModel(1, 1, (2,))
M321 = LocalHypersurfaceModel(3, 2, (1, 1))


class TestModelValidation:
    def test_m_range(self):
        with pytest.raises(DomainError):
            LocalHypersurfaceModel(2, 3, (1, 1, 1))
        with pytest.raises(DomainError):
            LocalHypersurfaceModel(2, 0, ())

    def test_positive_exponents(self):
        with pytest.raises(DomainError):
            LocalHypersurfaceModel(2, 2, (2, 0))


class TestNormalForm:
    def test_rewrites(self):
        mono = normal_form(M23, 3, 1, (0, 0))
        assert (mono.a, mono.b, mono.c) == (2, 0, (2, 3))

    def test_already_normal(self):
        mono = normal_form(M23, 0, 4, (1, 0))
        assert (mono.a, mono.b, mono.c) == (0, 4, (1, 0))

    def test_constructor_rejects_mixed(self):
        with pytest.raises(DomainError):
            LocalMonomial(1, 1, (0, 0))

    @pytest.mark.parametrize("a, b", [(0.0, 2), (2, 0.0), (Fraction(1), 0), ("1", 0)])
    def test_constructor_refuses_non_integer_exponents(self, a, b):
        with pytest.raises(DomainError, match="not an integer"):
            LocalMonomial(a, b, (1,))

    def test_bool_stored_as_int(self):
        mono = LocalMonomial(True, False, (1,))
        assert (type(mono.a), type(mono.b)) == (int, int)
        assert mono == LocalMonomial(1, 0, (1,))


class TestDivisorData:
    def test_two_two(self):
        dd = divisor_data(M23)
        assert dd.labels == ("D_x,1", "D_x,2", "D_y,1", "D_y,2")
        assert dd.canonical == (-1, -1, -1, -1)
        assert dd.div_x == (2, 3, 0, 0)
        assert dd.div_y == (0, 0, 2, 3)

    def test_smooth(self):
        dd = divisor_data(M11)
        assert dd.labels == ("D_x,1", "D_y,1")
        assert dd.canonical == (-1, -1)

    def test_extra_variable(self):
        dd = divisor_data(M321)
        assert dd.labels == ("D_x,1", "D_x,2", "D_y,1", "D_y,2", "D_3")
        assert len(dd.labels) == 2 * 2 + (3 - 2)


class TestIsSection:
    def test_positive_case(self):
        assert is_section(M12, LocalMonomial(1, 0, (1,)), 0)

    def test_fails_first_condition(self):
        assert not is_section(M12, LocalMonomial(0, 1, (0,)), 0)

    def test_two_two_half(self):
        assert is_section(M23, LocalMonomial(0, 1, (1, 1)), Fraction(1, 2))

    def test_rejects_float(self):
        with pytest.raises(DomainError):
            is_section(M12, LocalMonomial(1, 0, (1,)), 0.5)


class TestRegrade:
    def test_x_in_quadric(self):
        assert regrade(M12, LocalMonomial(1, 0, (0,))) == ((2,), 1)

    def test_pure_y(self):
        assert regrade(M23, LocalMonomial(0, 3, (1, 1))) == ((1, 1), -3)

    def test_x_squared(self):
        assert regrade(M23, LocalMonomial(2, 0, (0, 1))) == ((4, 7), 2)

    def test_injective_on_normal_forms(self):
        seen = {}
        for k in range(-3, 4):
            a, b = max(k, 0), max(-k, 0)
            for c in itertools.product(range(4), repeat=2):
                mono = LocalMonomial(a, b, c)
                image = regrade(M23, mono)
                assert image not in seen, (mono, seen[image])
                seen[image] = mono


class TestSncSection:
    def test_floor_boundary(self):
        assert not snc_multiplier_section(M12, (2,), 1)
        assert snc_multiplier_section(M12, (3,), 1)

    def test_nonpositive_exponent_case(self):
        assert snc_multiplier_section(M23, (1, 1), Fraction(-5, 2))
        assert not snc_multiplier_section(M23, (1, 0), Fraction(-5, 2))


class TestExponentLength:
    """A vector of s-exponents has one entry per s-variable of the model; a
    shorter or longer one is refused with one ``DomainError``, never read in
    part or padded."""

    CALLS = {
        "normal_form": lambda model, c: normal_form(model, 1, 1, c),
        "is_section": lambda model, c: is_section(model, LocalMonomial(1, 0, c), 0),
        "monomial_pairings": lambda model, c: monomial_pairings(model, LocalMonomial(1, 0, c)),
        "regrade": lambda model, c: regrade(model, LocalMonomial(1, 0, c)),
        "snc_positive": lambda model, c: snc_multiplier_section(model, c, 1),
        "snc_nonpositive": lambda model, c: snc_multiplier_section(model, c, 0),
    }

    @pytest.mark.parametrize("name", CALLS)
    @pytest.mark.parametrize("model, c", [
        (M23, (0,)), (M23, (0, 0, 5)), (M23, ()),
        # n = 3 > m = 2: m entries are short too
        (M321, (1, 1)), (M321, (1, 1, 1, 1)),
    ], ids=("short", "long", "empty", "m_entries", "long_past_m"))
    def test_refused(self, name, model, c):
        with pytest.raises(DomainError, match="^s-exponent length does not match model n$"):
            self.CALLS[name](model, c)

    @pytest.mark.parametrize("name", CALLS)
    def test_full_length_accepted(self, name):
        self.CALLS[name](M23, (1, 1))
        self.CALLS[name](M321, (1, 1, 1))

    def test_values_unchanged(self):
        # what the loops over range(m) and range(n) gave at full length
        assert normal_form(M321, 2, 1, (0, 1, 2)).c == (1, 2, 2)
        assert monomial_pairings(M321, LocalMonomial(2, 0, (0, 1, 3))) == (2, 3, 0, 1, 3)
        assert regrade(M321, LocalMonomial(2, 0, (0, 1, 3))) == ((2, 3, 3), 2)
        assert regrade(M321, LocalMonomial(0, 2, (0, 1, 3))) == ((0, 1, 3), -2)
        assert is_section(M321, LocalMonomial(0, 1, (1, 1, 1)), 0)
        assert not is_section(M321, LocalMonomial(0, 1, (1, 1, 0)), 0)
        assert not is_section(M321, LocalMonomial(0, 1, (0, 1, 1)), 0)
        assert not is_section(M321, LocalMonomial(1, 0, (0, 0, 1)), Fraction(1, 2))


class TestSectionSncEquivalence:
    @pytest.mark.parametrize("lam", [0, Fraction(1, 2), Fraction(5, 6), 1])
    def test_pointwise(self, lam):
        # the two inequality systems agree monomial by monomial
        for k in range(-4, 5):
            a, b = max(k, 0), max(-k, 0)
            for c in itertools.product(range(8), repeat=2):
                mono = LocalMonomial(a, b, c)
                cprime, kk = regrade(M23, mono)
                assert kk == k
                assert is_section(M23, mono, lam) == snc_multiplier_section(
                    M23, cprime, k + lam
                )


class TestLatticeConsistency:
    """The model is the extended Rees cone of the principal monomial ideal
    (s^a): ray pairings of the regraded monomial reproduce is_section."""

    @pytest.mark.parametrize(
        "model",
        [M11, M12, M23, LocalHypersurfaceModel(3, 2, (1, 2))],
    )
    def test_pairings_reproduce_sections(self, model):
        exps = list(model.exps) + [0] * (model.n - model.m)
        gen = tuple(exps)
        alg = extended_rees_cone(minimalize([gen], model.n))
        dd = divisor_data(model)
        rng = random.Random(2024)
        for _ in range(100):
            k = rng.randint(-4, 4)
            c = tuple(rng.randint(0, 6) for _ in range(model.n))
            mono = LocalMonomial(max(k, 0), max(-k, 0), c)
            point = regrade(model, mono)[0] + (k,)
            # monomial exponents land inside the cone
            assert alg.cone.satisfies(point)
            # its vanishing orders match the divisor pairing data
            orders = monomial_pairings(model, mono)
            lam = Fraction(rng.randint(0, 8), rng.randint(1, 5))
            dy = dd.div_y
            by_orders = all(
                orders[i] >= 1 + (lam * dy[i]).__floor__()
                for i in range(len(orders))
            )
            assert by_orders == is_section(model, mono, lam)

    def test_cone_pairings_equal_divisor_orders(self):
        # rays of the principal-ideal cone pair with the regraded exponent
        # exactly as the x-side / y-side / extra-variable vanishing orders
        model = M23
        alg = extended_rees_cone(minimalize([(2, 3)], 2))
        for k in range(-3, 4):
            for c in itertools.product(range(5), repeat=2):
                mono = LocalMonomial(max(k, 0), max(-k, 0), c)
                point = regrade(model, mono)[0] + (k,)
                orders = set(monomial_pairings(model, mono))
                pairings = {dot(point, ray) for ray in alg.rays}
                assert pairings <= orders


class TestVerifyLocal:
    def test_two_two_zero(self):
        report = verify_local_decomposition(M23, 0, box_deg=6, box_c=14)
        assert report.overall
        assert report.details["inconclusive"] == []

    def test_smooth_case(self):
        report = verify_local_decomposition(M11, 0)
        assert report.overall

    def test_two_two_five_sixths(self):
        assert verify_local_decomposition(M23, Fraction(5, 6), box_deg=6, box_c=14).overall

    def test_inconclusive_degrees_flagged(self):
        report = verify_local_decomposition(M12, 0, box_deg=2, k_range=(-4, 4))
        assert report.details["inconclusive"] == [-4, -3, 3, 4]
        assert all(abs(p.k) <= 2 for p in report.per_k)
        assert report.overall  # conclusive degrees all pass

    def test_unit_rows_fold_at_the_root(self, monkeypatch):
        # every row of a local level is a unit row, so the walk folds each
        # into the box with one narrowing and counts the box at its root; the
        # box 21^7 is over the default guard, which is the only bound left.
        # Counts are memoised across calls, so only distinct level systems
        # are walked: at lambda = 0 the levels k <= 0 are one system and box
        monkeypatch.setenv(POINT_GUARD_ENV, str(10 ** 12))
        polyhedra._count.cache_clear()
        calls, counted = [], []
        narrow, count = polyhedra._narrow, polyhedra.lattice_count

        def narrowing(*args):
            calls.append(None)
            return narrow(*args)

        def counting(system, box):
            counted.append((system, tuple(box)))
            return count(system, box)

        monkeypatch.setattr(polyhedra, "_narrow", narrowing)
        monkeypatch.setattr(polyhedra, "lattice_count", counting)
        report = verify_local_decomposition(LocalHypersurfaceModel(7, 1, (3,)), 0)
        assert report.overall and len(report.per_k) == len(counted) == 9
        assert len(set(counted)) == 5
        assert len(calls) == 7 * len(set(counted))



class TestGradedSections:
    """The section side of each local level is the slice at t = k of one
    graded system per call, and equals the unit system the verifier built
    level by level before: c'_i >= max(1, floor(lam a_i) + 1 + k a_i) for
    i <= m, c'_i >= 1 past m."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_slices_are_the_unit_systems(self, n, monkeypatch):
        sliced, slice_ = [], polyhedra._slice

        def recording(system, k):
            sliced.append((system, k, slice_(system, k)))
            return sliced[-1][2]

        monkeypatch.setattr(polyhedra, "_slice", recording)
        rng = random.Random(3300 + n)
        units = unit_vectors(n)
        for m in range(1, n + 1):
            for _ in range(3):
                exps = tuple(rng.randint(1, 5) for _ in range(m))
                # lambda in [0, 2] at every breakpoint t / a_i and every midpoint
                steps = sorted({Fraction(t, e) for e in exps for t in range(2 * e + 1)})
                model = LocalHypersurfaceModel(n, m, exps)
                for lam in steps + [(a + b) / 2 for a, b in zip(steps, steps[1:])]:
                    sliced.clear()
                    verify_local_decomposition(model, lam, box_deg=8, box_c=1, k_range=(-8, 8))
                    assert [k for _, k, _ in sliced] == list(range(-8, 9))
                    assert len({system for system, _, _ in sliced}) == 1
                    for _, k, got in sliced:
                        need = [max(1, interior_threshold(lam, e) + k * e) for e in exps]
                        want = ThresholdSystem(n, tuple(zip(units, need + [1] * (n - m))))
                        assert got == want, (model, lam, k)


def _same_report(model, lam, box_deg, box_c, k_range):
    args = (model, lam, box_deg, box_c, k_range)
    got = dumps_canonical(verify_local_decomposition(*args).to_json())
    assert got == dumps_canonical(local_decomposition_by_points(*args).to_json()), args


class TestVerifyLocalAgainstPoints:
    """Reports of the run-form verifier against the former point-by-point
    verifier in ``oracles``, byte for byte."""

    @pytest.mark.parametrize(
        "n,m", [(n, m) for n in range(1, 5) for m in range(1, n + 1)]
    )
    def test_grid(self, n, m):
        rng = random.Random(7300 + 10 * n + m)
        box_deg = 2 if n <= 2 else 1
        cycled = tuple(1 + (i + n) % 4 for i in range(m))
        for exps in (cycled, tuple(rng.randint(1, 4) for _ in range(m))):
            model = LocalHypersurfaceModel(n, m, exps)
            for lam in (0, 1, 2, Fraction(5, 6)):
                for box_c in (0, 1, None):
                    # |k| > box_deg: inconclusive degrees on both sides
                    _same_report(model, lam, box_deg, box_c, (-box_deg - 2, box_deg + 1))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_property(self, data):
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, n))
        exps = tuple(data.draw(st.lists(st.integers(1, 4), min_size=m, max_size=m)))
        lam = Fraction(data.draw(st.integers(0, 12)), data.draw(st.integers(1, 6)))
        box_deg = data.draw(st.integers(0, 3 if n <= 2 else 1))
        box_c = data.draw(st.sampled_from((0, 1, 2, None)))
        lo = data.draw(st.integers(-5, 0))
        k_range = (lo, lo + data.draw(st.integers(0, 8)))
        _same_report(LocalHypersurfaceModel(n, m, exps), lam, box_deg, box_c, k_range)


class TestVerifyLocalAgainstRuns:
    """Reports of the counting verifier against the former two-listing
    verifier in ``oracles``, byte for byte; the verifier lists nothing."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_grid(self, n, monkeypatch):
        def listing(*args, **kwargs):
            raise AssertionError("lattice_runs called")

        # the oracle keeps its own binding of lattice_runs
        monkeypatch.setattr("reesmult.polyhedra.lattice_runs", listing)
        rng = random.Random(7400 + n)
        for m in range(1, n + 1):
            model = LocalHypersurfaceModel(n, m, tuple(rng.randint(1, 4) for _ in range(m)))
            for box_deg in range(5):
                box_c = rng.choice((0, 2, 5, None))
                for lam in (0, Fraction(1, 3), 1, Fraction(7, 4), 3):
                    # |k| > box_deg: inconclusive degrees on both sides
                    args = (model, lam, box_deg, box_c, (-5, 5))
                    got = dumps_canonical(verify_local_decomposition(*args).to_json())
                    want = dumps_canonical(verify_local_decomposition_by_runs(*args).to_json())
                    assert got == want, args
