"""Toric cone models of Rees-type algebras and the decomposition verifiers."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reesmult.hypersurface
import reesmult.rees
from reesmult import polyhedra
from reesmult.errors import DomainError, NotNormalError, ParseError, ResourceLimitError
from reesmult.hypersurface import LocalHypersurfaceModel, verify_local_decomposition
from reesmult.ideals import (
    _multiplier_module,
    first_non_closed_power,
    integral_closure,
    minimalize,
    multiplier_module,
    newton,
    omega_module,
    power,
)
from reesmult.polyhedra import (
    POINT_GUARD_ENV,
    ThresholdSystem,
    as_fraction,
    compare_runs,
    compare_systems,
    cube,
    dot,
    dual_cone,
    lattice_count,
    lattice_points,
    lattice_runs,
    orthant,
)
from reesmult.rees import (
    EXTENDED_REES,
    REES,
    GradedToricAlgebra,
    _graded_newton,
    _multiplier_module_general,
    _validate_slices,
    canonical_module,
    decomposition_rhs_S,
    decomposition_rhs_T,
    extended_rees_cone,
    graded_piece,
    is_pair_rational,
    multiplier_module_general,
    multiplier_module_principal,
    principal_divisor_pairings,
    rees_cone,
    rees_ideal_generators,
    verify_theoremA,
    verify_theoremB_S,
    verify_theoremB_T,
)

from oracles import (
    cone_by_irredundant_facets,
    first_mismatch,
    in_ideal,
    multiplier_module_principal_by_pairings,
    pair_rational_by_box,
    scale,
    strict_interior_system,
    validate_slices_by_runs,
    validate_slices_reference,
    verify_theoremB_S_by_runs,
    verify_theoremB_T_by_runs,
)
from test_acceptance import GRID, LAMBDAS_B

M_XY = minimalize([(1, 0), (0, 1)])
M_XY2 = minimalize([(2, 0), (1, 1), (0, 2)])
M_X2Y3 = minimalize([(2, 0), (0, 3)])
UNIT2 = minimalize([(0, 0)])
M_XYZ = minimalize([(1, 0, 0), (0, 1, 0), (0, 0, 1)])


class TestConeConstruction:
    def test_extended_square(self):
        alg = extended_rees_cone(M_XY2)
        assert alg.cone.constraints == (
            ((0, 1, 0), 0), ((1, 0, 0), 0), ((1, 1, -2), 0),
        )
        assert alg.rays == ((0, 1, 0), (1, 0, 0), (1, 1, -2))
        assert alg.kind == EXTENDED_REES

    def test_extended_maximal(self):
        assert extended_rees_cone(M_XY).cone.constraints == (
            ((0, 1, 0), 0), ((1, 0, 0), 0), ((1, 1, -1), 0),
        )

    def test_non_normal_rejected(self):
        with pytest.raises(DomainError, match="not normal .closure differs at power 1."):
            extended_rees_cone(M_X2Y3)

    @pytest.mark.parametrize("build", (extended_rees_cone, rees_cone))
    def test_non_normal_is_its_own_type(self, build):
        # callers such as ``verify --closure`` catch the type, not the text
        assert issubclass(NotNormalError, DomainError)
        with pytest.raises(NotNormalError) as exc:
            build(M_X2Y3)
        assert str(exc.value) == (
            "extended Rees algebra is not toric: ideal not normal (closure differs at power 1)")

    def test_rees_square(self):
        assert rees_cone(M_XY2).cone.constraints == (
            ((0, 0, 1), 0), ((0, 1, 0), 0), ((1, 0, 0), 0), ((1, 1, -2), 0),
        )

    def test_rees_maximal(self):
        assert rees_cone(M_XY).cone.constraints == (
            ((0, 0, 1), 0), ((0, 1, 0), 0), ((1, 0, 0), 0), ((1, 1, -1), 0),
        )

    def test_rees_unit(self):
        assert rees_cone(UNIT2).cone.constraints == (
            ((0, 0, 1), 0), ((0, 1, 0), 0), ((1, 0, 0), 0),
        )

    def test_principal_prunes_coordinate_row(self):
        # for a = (x^2) the row X >= 0 is implied by X >= 2k, k >= 0
        alg = rees_cone(minimalize([(2,)]))
        assert alg.cone.constraints == (((0, 1), 0), ((1, -2), 0))


class TestSliceOracle:
    """Level-k lattice points against plain generator domination."""

    @pytest.mark.parametrize(
        "ideal", [M_XY, M_XY2, UNIT2, M_XYZ, minimalize([(3, 0), (2, 1), (1, 2), (0, 3)])]
    )
    def test_extended_slices(self, ideal):
        alg = extended_rees_cone(ideal)
        box = cube(ideal.nvars, 0, ideal.max_entry() * 3 + 2)
        everything = lattice_points(ThresholdSystem(ideal.nvars, ()), box)
        for k in range(-2, 4):
            got = lattice_points(alg.cone.substitute_last(k), box)
            if k <= 0:
                assert got == everything
            else:
                ak = power(ideal, k)
                assert got == [m for m in everything if in_ideal(ak, m)]

    @pytest.mark.parametrize("ideal", [M_XY, M_XY2, M_XYZ])
    def test_rees_slices(self, ideal):
        alg = rees_cone(ideal)
        box = cube(ideal.nvars, 0, ideal.max_entry() * 3 + 2)
        everything = lattice_points(ThresholdSystem(ideal.nvars, ()), box)
        for k in range(0, 4):
            got = lattice_points(alg.cone.substitute_last(k), box)
            if k == 0:
                assert got == everything
            else:
                ak = power(ideal, k)
                assert got == [m for m in everything if in_ideal(ak, m)]
        # below the grading the Rees cone is empty
        assert lattice_points(alg.cone.substitute_last(-1), box) == []

    @pytest.mark.parametrize("build", [extended_rees_cone, rees_cone])
    @pytest.mark.parametrize("ideal", [M_XY, M_XY2, M_XYZ])
    def test_shifted_threshold_raises(self, build, ideal):
        alg = build(ideal)
        _validate_slices(alg)
        rows = alg.cone.constraints
        n = ideal.nvars
        # every row raised by 1, and each row m_i >= 0 lowered to m_i >= -1,
        # which the points of a box starting at 0 cannot show: in the cones
        # of (x, y)^2 it admits the level-1 point (-1, 3)
        units = {tuple(int(i == j) for j in range(n + 1)) for i in range(n)}
        coordinate = [i for i, (w, _) in enumerate(rows) if w in units]
        assert len(coordinate) == n
        shifts = [(i, 1) for i in range(len(rows))] + [(i, -1) for i in coordinate]
        for i, step in shifts:
            w, t = rows[i]
            shifted = rows[:i] + ((w, t + step),) + rows[i + 1:]
            bad = GradedToricAlgebra(alg.nvars, alg.kind, ThresholdSystem(alg.ambient_rank, shifted),
                                     alg.rays, alg.source)
            with pytest.raises(AssertionError, match="does not match a\\^"):
                _validate_slices(bad)

    def test_matches_reference_check(self):
        # the symbolic check, the former run check and the generator check
        # agree on every cone and on every cone with one threshold raised by
        # 1; lowered by 1, the symbolic check raises wherever the run check does
        rng = random.Random(13)
        checked = 0
        while checked < 25:
            n = rng.randint(1, 4)
            gens = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 3))]
            a = minimalize(gens, n)
            try:
                algs = [extended_rees_cone(a), rees_cone(a)]
            except DomainError:
                continue
            checked += 1
            for alg in algs:
                validate_slices_reference(alg)
                validate_slices_by_runs(alg)
                rows = alg.cone.constraints
                for (i, (w, t)), step in itertools.product(enumerate(rows), (1, -1)):
                    shifted = rows[:i] + ((w, t + step),) + rows[i + 1:]
                    bad = GradedToricAlgebra(alg.nvars, alg.kind,
                                             ThresholdSystem(alg.ambient_rank, shifted),
                                             alg.rays, alg.source)
                    checks = (_validate_slices, validate_slices_by_runs, validate_slices_reference)
                    verdicts = []
                    for check in checks if step == 1 else checks[:2]:
                        try:
                            check(bad)
                            verdicts.append(None)
                        except AssertionError as exc:
                            verdicts.append(str(exc))
                    if step == 1:
                        assert verdicts[0] == verdicts[1] == verdicts[2], (a, alg.kind, i)
                    else:
                        assert verdicts[0] is not None or verdicts[1] is None, (a, alg.kind, i)


class TestCaches:
    def test_bounded(self):
        for cached in (newton, extended_rees_cone, rees_cone, _graded_newton,
                       _multiplier_module, _multiplier_module_general, polyhedra._count,
                       polyhedra._slice):
            assert cached.cache_info().maxsize == polyhedra.CACHE_SIZE > 0


class TestMemoisedModules:
    """The graded module builders make their arguments canonical before the
    cache: lists give the module of the tuples, and a bad argument raises on
    every call, after a hit on an equal good one too."""

    def test_principal_takes_a_list(self):
        alg = extended_rees_cone(M_XY2)
        u = alg.t_inverse()
        for lam in (0, Fraction(1, 2), "3/2"):
            module = multiplier_module_principal(alg, u, lam)
            assert multiplier_module_principal(alg, list(u), lam) is module
            assert multiplier_module_principal(alg, u, as_fraction(lam)) is module

    def test_general_takes_lists(self):
        alg = rees_cone(M_XY2)
        gens = rees_ideal_generators(M_XY2)
        shuffled = [list(g) for g in reversed(gens)] + [list(gens[0])]
        for lam in (0, 1, Fraction(7, 3)):
            module = multiplier_module_general(alg, gens, lam)
            assert multiplier_module_general(alg, shuffled, lam) is module
            assert multiplier_module_general(alg, gens, str(lam)) is module

    def test_bad_arguments_raise_after_a_hit(self):
        ext, rees = extended_rees_cone(M_XY2), rees_cone(M_XY2)
        u, gens = ext.t_inverse(), rees_ideal_generators(M_XY2)
        multiplier_module_principal(ext, u, Fraction(1, 2))
        multiplier_module_general(rees, gens, Fraction(1, 2))
        for _ in range(2):
            for lam in (0.5, -1):
                with pytest.raises(DomainError):
                    multiplier_module_principal(ext, u, lam)
                with pytest.raises(DomainError):
                    multiplier_module_general(rees, gens, lam)
            with pytest.raises(DomainError, match="not a vector of integers"):
                multiplier_module_principal(ext, (0, 0, -1.0), Fraction(1, 2))
            with pytest.raises(DomainError, match="not a monomial of the algebra"):
                multiplier_module_principal(ext, (-1, 0, 0), Fraction(1, 2))
            with pytest.raises(DomainError, match="not a vector of integers"):
                multiplier_module_general(rees, [[0, 0, 0.0]], Fraction(1, 2))
            with pytest.raises(DomainError, match="generator outside cone"):
                multiplier_module_general(rees, [(0, 0, -1)], Fraction(1, 2))


class TestCanonicalModule:
    def test_extended_square(self):
        can = canonical_module(extended_rees_cone(M_XY2))
        assert can.system.constraints == (
            ((0, 1, 0), 1), ((1, 0, 0), 1), ((1, 1, -2), 1),
        )
        assert can.description == "OMEGA_T"

    def test_rees_maximal(self):
        can = canonical_module(rees_cone(M_XY))
        assert can.system.constraints == (
            ((0, 0, 1), 1), ((0, 1, 0), 1), ((1, 0, 0), 1), ((1, 1, -1), 1),
        )

    def test_deep_negative_piece_is_omega(self):
        box = cube(2, 0, 9)
        for a in (M_XY, M_XY2):
            can = canonical_module(extended_rees_cone(a))
            piece = graded_piece(can, -5)
            assert lattice_points(piece.system, box) == lattice_points(omega_module(2).system, box)

    def test_rees_omega_pieces(self):
        # degree 0 empty; degree k >= 1 is {m >= 1, <w, m> >= c k + 1}
        can = canonical_module(rees_cone(M_XY2))
        box = cube(2, 0, 12)
        assert lattice_points(graded_piece(can, 0).system, box) == []
        for k in (1, 2, 3):
            want = ThresholdSystem(
                2, (((1, 0), 1), ((0, 1), 1), ((1, 1), 2 * k + 1))
            )
            assert lattice_points(graded_piece(can, k).system, box) == lattice_points(want, box)


class TestPairings:
    def test_t_inverse(self):
        alg = extended_rees_cone(M_XY)
        assert principal_divisor_pairings(alg, (0, 0, -1)) == [0, 0, 1]

    def test_unit_monomial(self):
        alg = extended_rees_cone(M_XY2)
        assert principal_divisor_pairings(alg, (0, 0, 0)) == [0, 0, 0]

    def test_x_times_t(self):
        alg = rees_cone(M_XY)
        assert all(p >= 0 for p in principal_divisor_pairings(alg, (1, 0, 1)))

    def test_outside_cone(self):
        alg = rees_cone(M_XY)
        with pytest.raises(DomainError, match="not a monomial of the algebra"):
            principal_divisor_pairings(alg, (0, 0, -1))


class TestMultiplierModulePrincipal:
    def test_lambda_zero_is_canonical(self):
        for a in (M_XY, M_XY2, UNIT2):
            alg = extended_rees_cone(a)
            mm = multiplier_module_principal(alg, alg.t_inverse(), 0)
            assert mm.system == canonical_module(alg).system

    def test_square_half(self):
        alg = extended_rees_cone(M_XY2)
        mm = multiplier_module_principal(alg, alg.t_inverse(), Fraction(1, 2))
        assert mm.system.constraints == (
            ((0, 1, 0), 1), ((1, 0, 0), 1), ((1, 1, -2), 2),
        )

    def test_square_one(self):
        alg = extended_rees_cone(M_XY2)
        mm = multiplier_module_principal(alg, alg.t_inverse(), 1)
        assert mm.system.constraints == (
            ((0, 1, 0), 1), ((1, 0, 0), 1), ((1, 1, -2), 3),
        )

    def test_strict_pairing_oracle(self):
        # brute force: (m, k) is in the module iff <v, ray> > lam * <u, ray>
        # for every ray, with exact rational comparison
        alg = extended_rees_cone(M_XY2)
        u = alg.t_inverse()
        for lam in (Fraction(1, 2), Fraction(2, 3), Fraction(3, 2)):
            mm = multiplier_module_principal(alg, u, lam)
            for point in itertools.product(range(0, 7), range(0, 7), range(-3, 4)):
                brute = all(
                    dot(point, ray) > lam * dot(u, ray) for ray in alg.rays
                )
                assert brute == mm.system.satisfies(point)


class TestMultiplierModuleGeneral:
    def test_unit_monomial_gives_canonical(self):
        for a in (M_XY, M_XY2):
            alg = rees_cone(a)
            zero = (0,) * alg.ambient_rank
            for lam in (0, 1, Fraction(7, 3)):
                mm = multiplier_module_general(alg, (zero,), lam)
                assert mm.system == canonical_module(alg).system

    def test_rees_maximal_lambda_one(self):
        alg = rees_cone(M_XY)
        mm = multiplier_module_general(alg, rees_ideal_generators(M_XY), 1)
        assert mm.system.constraints == (
            ((0, 0, 1), 1), ((0, 1, 0), 1), ((1, 0, 0), 1), ((1, 1, -1), 2),
        )

    def test_agrees_with_principal_on_t_inverse(self):
        # the principal pair's direct formula: multiplier_module_principal is
        # now this very builder
        for a in (M_XY, M_XY2):
            alg = extended_rees_cone(a)
            u = alg.t_inverse()
            for lam in (0, Fraction(1, 2), Fraction(5, 6), 2):
                general = multiplier_module_general(alg, (u,), lam)
                assert general == multiplier_module_principal_by_pairings(alg, u, lam)

    def test_generator_outside_cone(self):
        alg = rees_cone(M_XY)
        with pytest.raises(DomainError, match="generator outside cone"):
            multiplier_module_general(alg, ((0, 0, -1),), 1)


LAMBDAS_PAIR = tuple(map(Fraction, ("0", "1/3", "1/2", "5/6", "1", "3/2", "7/3")))


def _cone_monomials(alg, rng, count):
    """``count`` random monomials of the algebra: lattice points of its cone,
    with base exponents up to 4 and t-degree from -3 to 3."""
    found = []
    while len(found) < count:
        u = tuple(rng.randint(0, 4) for _ in range(alg.nvars)) + (rng.randint(-3, 3),)
        if alg.cone.satisfies(u):
            found.append(u)
    return found


def _assert_principal_by_pairings(alg, u, lam):
    want = multiplier_module_principal_by_pairings(alg, u, lam)
    assert multiplier_module_principal(alg, u, lam) == want, (alg.source, alg.kind, u, lam)
    assert multiplier_module_general(alg, (u,), lam) == want, (alg.source, alg.kind, u, lam)


class TestPrincipalPairByPairings:
    """The principal pair, built as the one-generator general pair, against
    its direct formula floor(lam * <u, v_i>) + 1 per cone facet."""

    def test_random_normal_ideals(self):
        rng = random.Random(32)
        ideals = _random_normal_ideals(32, 300, (1, 2, 3, 4), lambda n: 3 if n < 4 else 2)
        assert {a.nvars for a in ideals} == {1, 2, 3, 4}
        for a in ideals:
            ext, rees = extended_rees_cone(a), rees_cone(a)
            pairs = [(ext, ext.t_inverse())]
            pairs += [(alg, u) for alg in (ext, rees) for u in _cone_monomials(alg, rng, 2)]
            for alg, u in pairs:
                for lam in LAMBDAS_PAIR:
                    _assert_principal_by_pairings(alg, u, lam)

    def test_unit_ideal_cone_has_lineality(self):
        # the extended cone of the unit ideal holds t and t^-1: a line
        rng = random.Random(33)
        for n in range(1, 5):
            ext = extended_rees_cone(minimalize([(0,) * n]))
            t = (0,) * n + (1,)
            assert ext.cone.satisfies(t) and ext.cone.satisfies(ext.t_inverse())
            for u in [ext.t_inverse(), t] + _cone_monomials(ext, rng, 4):
                for lam in LAMBDAS_PAIR:
                    _assert_principal_by_pairings(ext, u, lam)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_property(self, data):
        n = data.draw(st.integers(1, 3))
        gens = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=3))
        a = integral_closure(minimalize(gens, n))
        try:
            ext = extended_rees_cone(a)
        except DomainError:
            assume(False)
        alg = data.draw(st.sampled_from((ext, rees_cone(a))))
        u = data.draw(st.tuples(*[st.integers(0, 4)] * n, st.integers(-3, 3)))
        assume(alg.cone.satisfies(u))
        _assert_principal_by_pairings(alg, u, data.draw(st.sampled_from(LAMBDAS_PAIR)))


class TestGradedPiece:
    def test_canonical_at_zero(self):
        alg = extended_rees_cone(M_XY2)
        mm = multiplier_module_principal(alg, alg.t_inverse(), Fraction(1, 2))
        assert graded_piece(mm, 0).system.constraints == (
            ((0, 1), 1), ((1, 0), 1), ((1, 1), 2),
        )

    def test_no_k_coefficient_unchanged(self):
        sys = ThresholdSystem(3, (((1, 0, 0), 1), ((0, 1, 0), 1)))
        from reesmult.rees import GradedModuleSpec

        spec = GradedModuleSpec(3, sys, "test")
        for k in (-4, 0, 7):
            assert graded_piece(spec, k).system.constraints == (
                ((0, 1), 1), ((1, 0), 1),
            )


class TestDecompositionRhs:
    def test_T_positive(self):
        assert decomposition_rhs_T(M_XY2, 0, 2).system.constraints == (
            ((0, 1), 1), ((1, 0), 1), ((1, 1), 5),
        )

    def test_T_convention(self):
        for k in (-1, -5):
            assert decomposition_rhs_T(M_XY2, 0, k).system == omega_module(2).system
        assert decomposition_rhs_T(M_XY2, Fraction(1, 2), -1).system == omega_module(2).system

    def test_T_half(self):
        assert decomposition_rhs_T(M_XY2, Fraction(1, 2), 1).system.constraints == (
            ((0, 1), 1), ((1, 0), 1), ((1, 1), 4),
        )

    def test_S_first(self):
        assert decomposition_rhs_S(M_XY, 0, 0).system.constraints == (
            ((0, 1), 1), ((1, 0), 1), ((1, 1), 2),
        )

    def test_S_half(self):
        assert decomposition_rhs_S(M_XY2, Fraction(1, 2), 0).system.constraints == (
            ((0, 1), 1), ((1, 0), 1), ((1, 1), 4),
        )

    def test_S_unit(self):
        for n in (0, 3):
            assert decomposition_rhs_S(UNIT2, Fraction(1, 3), n).system == omega_module(2).system

    def test_S_negative_index(self):
        with pytest.raises(DomainError):
            decomposition_rhs_S(M_XY, 0, -1)

    def test_T_at_or_below_zero_is_the_memoised_omega(self):
        for lam, k in ((0, 0), (0, -3), (Fraction(1, 2), -1), (Fraction(5, 2), -4)):
            assert decomposition_rhs_T(M_XY2, lam, k) is multiplier_module(M_XY2, 0)

    def test_negative_lambda_is_refused(self):
        # k + lambda >= 0 here, and the module at k + lambda may be cached
        for warm in (False, True):
            _multiplier_module.cache_clear()
            if warm:
                for lam in (Fraction(5, 2), 0, 1, 3):
                    multiplier_module(M_XY2, lam)
            for rhs, lam, k in ((decomposition_rhs_T, Fraction(-1, 2), 3),
                                (decomposition_rhs_T, -1, 1), (decomposition_rhs_T, "-1/2", 0),
                                (decomposition_rhs_S, -3, 0), (decomposition_rhs_S, -1, 2)):
                with pytest.raises(DomainError, match="^lambda must be nonnegative$"):
                    rhs(M_XY2, lam, k)


class TestVerifyTheoremB:
    def test_T_square_lambda_zero(self):
        report = verify_theoremB_T(M_XY2, 0, (-3, 6), cube(2, 0, 14))
        assert report.overall
        assert report.details["thresholdsIdentical"]
        assert len(report.per_k) == 10

    def test_T_maximal_third(self):
        report = verify_theoremB_T(M_XY, Fraction(1, 3), (-2, 5))
        assert report.overall

    def test_T_non_normal_raises_but_rhs_standalone(self):
        with pytest.raises(DomainError):
            verify_theoremB_T(M_X2Y3, 0)
        rhs = decomposition_rhs_T(M_X2Y3, Fraction(1, 2), 1)
        assert rhs.system.constraints == (((0, 1), 1), ((1, 0), 1), ((3, 2), 10))

    def test_level_counts_and_witness_from_points(self):
        # off-by-one levels differ: the runs give the point-list counts and witness
        a, lam, box = M_XY2, Fraction(1, 2), cube(2, 0, 10)
        module = multiplier_module_principal(extended_rees_cone(a), (0, 0, -1), lam)
        for k in range(-2, 4):
            for rhs_k in (k, k + 1):
                lhs = graded_piece(module, k).system
                rhs = decomposition_rhs_T(a, lam, rhs_k).system
                pts_l, pts_r = lattice_points(lhs, box), lattice_points(rhs, box)
                assert compare_runs(lattice_runs(lhs, box), lattice_runs(rhs, box)) == (
                    len(pts_l), len(pts_r), first_mismatch(pts_l, pts_r)
                )

    def test_S_maximal(self):
        report = verify_theoremB_S(M_XY, 0, (0, 5))
        assert report.overall
        assert report.details["degreeZeroEmpty"]

    def test_S_square_half(self):
        assert verify_theoremB_S(M_XY2, Fraction(1, 2)).overall

    def test_S_unit(self):
        report = verify_theoremB_S(UNIT2, 0)
        assert report.overall
        box = cube(2, 0, 6)
        module = multiplier_module_general(
            rees_cone(UNIT2), rees_ideal_generators(UNIT2), 0
        )
        omega = lattice_points(omega_module(2).system, box)
        for k in (1, 2):
            assert lattice_points(graded_piece(module, k).system, box) == omega

    def test_three_variables(self):
        assert verify_theoremB_T(M_XYZ, Fraction(1, 2), (-2, 4)).overall
        assert verify_theoremB_S(M_XYZ, Fraction(1, 2), (0, 3)).overall


class TestDefaultBoxes:
    @pytest.mark.parametrize("lam", [Fraction(0), Fraction(1, 2), Fraction(7, 3)])
    @pytest.mark.parametrize("hi", [-2, 0, 3])
    def test_graded_boxes(self, lam, hi):
        # the graded box formula: max_entry * (max(k_max, 0) + ceil(lam) + 2) + 2
        def graded(k_max):
            return cube(2, 0, 2 * (max(k_max, 0) + math.ceil(lam) + 2) + 2)

        assert verify_theoremB_T(M_XY2, lam, (hi - 1, hi)).box == graded(hi)
        if hi >= 0:
            assert verify_theoremB_S(M_XY2, lam, (0, hi)).box == graded(hi + 1)


class TestVerifierBoxes:
    """A, B.1 and B.2 check a given box as the lattice walk does, and with its
    messages: A only records its box, yet refuses what B.1 and B.2 refuse."""

    @pytest.mark.parametrize("verify", [verify_theoremA, verify_theoremB_S, verify_theoremB_T])
    @pytest.mark.parametrize("box, message", [
        (((0.5, 2), (0, 1)), "not a vector of integers"),
        (((Fraction(1, 2), 2), (0, 1)), "not a vector of integers"),
        (((0, 3),), "box length does not match system rank"),
        (((0, 3), (0, 3), (0, 3)), "box length does not match system rank"),
        (((0, 3), (2, 1)), "box lower bound exceeds upper bound"),
        (((0, 3), (0, 1, 2)), r"range must be two integers \(lo, hi\)"),
    ], ids=["float", "Fraction", "short", "long", "empty", "triple"])
    def test_refused(self, verify, box, message):
        with pytest.raises(DomainError, match=message):
            verify(M_XY2, Fraction(1, 2), box=box)

    def test_recorded_as_int_pairs(self):
        for verify in (verify_theoremA, verify_theoremB_S, verify_theoremB_T):
            assert verify(M_XY2, Fraction(1, 2), box=[[0, 4], [1, 4]]).box == ((0, 4), (1, 4))


class TestVerifierRanges:
    """B.1, B.2 and local read their level range through one check: two ints,
    where lo > hi is the empty range."""

    VERIFIERS = {
        "B1": lambda r: verify_theoremB_S(M_XY2, 0, n_range=r),
        "B2": lambda r: verify_theoremB_T(M_XY2, 0, k_range=r),
        "local": lambda r: verify_local_decomposition(LocalHypersurfaceModel(1, 1, (2,)), 0,
                                                      k_range=r),
    }

    @pytest.mark.parametrize("name", VERIFIERS)
    @pytest.mark.parametrize("bounds", [(1,), (0, 1, 2)], ids=["one", "three"])
    def test_refused(self, name, bounds):
        with pytest.raises(DomainError, match=r"^range must be two integers \(lo, hi\)$"):
            self.VERIFIERS[name](bounds)

    @pytest.mark.parametrize("name", VERIFIERS)
    def test_empty_range_allowed(self, name):
        report = self.VERIFIERS[name]((2, 1))
        assert report.k_range == (2, 1) and report.per_k == () and report.overall


class TestPairRationality:
    def test_lambda_zero_always(self):
        for a in (M_XY, M_XY2, UNIT2):
            alg = extended_rees_cone(a)
            assert is_pair_rational(alg, alg.t_inverse(), 0)

    def test_square_half_false(self):
        alg = extended_rees_cone(M_XY2)
        assert not is_pair_rational(alg, alg.t_inverse(), Fraction(1, 2))

    def test_square_below_half_true(self):
        alg = extended_rees_cone(M_XY2)
        for lam in (Fraction(1, 4), Fraction(2, 5), Fraction(49, 100)):
            assert is_pair_rational(alg, alg.t_inverse(), lam)


class TestVerifyTheoremA:
    def test_square_lambda_zero(self):
        report = verify_theoremA(M_XY2, 0)
        assert report.overall
        d = report.details
        assert (d["rationalR"], d["rationalS"], d["rationalT"]) == (True, True, True)

    def test_square_half(self):
        report = verify_theoremA(M_XY2, Fraction(1, 2))
        d = report.details
        assert not d["rationalT"]
        assert not (d["rationalR"] and d["rationalS"])
        assert report.overall

    def test_maximal_quarter(self):
        report = verify_theoremA(M_XY, Fraction(1, 4))
        d = report.details
        assert (d["rationalR"], d["rationalS"], d["rationalT"]) == (True, True, True)
        assert report.overall

    def test_maximal_one(self):
        # thresholds differ on the graded side but the base pair stays
        # rational; the biconditional still holds
        report = verify_theoremA(M_XY, 1)
        d = report.details
        assert d["rationalR"] and not d["rationalS"] and not d["rationalT"]
        assert report.overall


def _random_normal_ideals(seed, count, ranks, top):
    """``count`` random normal ideals with ranks from ``ranks`` and
    exponents up to ``top(n)``, as the cone builds accept them."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        n = rng.choice(ranks)
        gens = [tuple(rng.randint(0, top(n)) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        a = minimalize(gens, n)
        try:
            extended_rees_cone(a)
        except DomainError:
            continue
        found.append(a)
    return found


def test_cone_records_hold_ints():
    """Every threshold of the cone models, of their graded Newton polyhedra
    and of the dual orthant is an int, and so is every vertex entry."""
    def ints(values):
        return all(type(x) is int for x in values)

    for a in _random_normal_ideals(26, 60, (1, 2, 3, 4), lambda n: 3):
        for alg in (extended_rees_cone(a), rees_cone(a)):
            assert ints(t for _, t in alg.cone.constraints), (a, alg.kind)
            newt = _graded_newton(alg, rees_ideal_generators(a))
            assert ints(h.threshold for h in newt.facets), (a, alg.kind)
            assert ints(e for v in newt.vertices for e in v), (a, alg.kind)
        assert ints(h.threshold for h in dual_cone(orthant(a.nvars)).facets), a


class TestOneBuildPath:
    """The Rees cone is the extended cone cut by k >= 0: one build path, one
    normality scan per ideal, the same records as the two former builds."""

    def test_matches_two_builds_in_either_order(self):
        ideals = _random_normal_ideals(24, 300, (1, 2, 3, 4), lambda n: 2)
        ideals += [minimalize([(0,) * n]) for n in range(1, 5)]
        assert {a.nvars for a in ideals} == {1, 2, 3, 4}
        for a in ideals:
            want = (cone_by_irredundant_facets(a, EXTENDED_REES), cone_by_irredundant_facets(a, REES))
            for first in (extended_rees_cone, rees_cone):
                extended_rees_cone.cache_clear()
                rees_cone.cache_clear()
                first(a)
                assert (extended_rees_cone(a), rees_cone(a)) == want, (a, first)

    def test_non_normal_same_error(self):
        rng = random.Random(25)
        found = 0
        while found < 40:
            n = rng.randint(2, 4)
            gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(2, 4))]
            a = minimalize(gens, n)
            try:
                cone_by_irredundant_facets(a, REES)
                continue
            except DomainError as exc:
                want = str(exc)
            found += 1
            for build in (rees_cone, extended_rees_cone):
                with pytest.raises(DomainError) as exc:
                    build(a)
                assert str(exc.value) == want, (a, build)

    def test_normality_scanned_once(self, monkeypatch):
        calls = []

        def counting(a, bound=None):
            calls.append(a)
            return first_non_closed_power(a, bound)

        monkeypatch.setattr("reesmult.rees.first_non_closed_power", counting)
        a = power(minimalize([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]), 2)
        extended_rees_cone.cache_clear()
        rees_cone.cache_clear()
        verify_theoremA(a, 1)
        assert calls == [a]
        rees_cone.cache_clear()
        rees_cone(a)
        assert calls == [a]


class TestPairRationalityAgainstBox:
    def test_matches_box_test(self):
        # rank-3 boxes are kept small: the reference lists every pair box
        ideals = _random_normal_ideals(21, 300, (1, 2, 3), lambda n: 3 if n < 3 else 1)
        assert {a.nvars for a in ideals} == {1, 2, 3}
        for a in ideals:
            for lam in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 2)):
                d = verify_theoremA(a, lam).details
                assert (d["rationalT"], d["rationalS"]) == pair_rational_by_box(a, lam), (a, lam)

    def test_module_normals_are_cone_normals(self):
        # the premise of deciding rationality on the systems
        for a in _random_normal_ideals(22, 500, (1, 2, 3, 4), lambda n: 2):
            ext, rees = extended_rees_cone(a), rees_cone(a)
            for lam in (0, Fraction(1, 2), Fraction(5, 3)):
                principal = multiplier_module_principal(ext, ext.t_inverse(), lam)
                general = multiplier_module_general(rees, rees_ideal_generators(a), lam)
                assert principal.system.normals() == ext.cone.normals(), (a, lam)
                assert general.system.normals() == rees.cone.normals(), (a, lam)


class TestMultiplierModuleGeneralAgainstScaledNewton:
    def test_random_normal_ideals(self):
        # the thresholds read off the facets, and the canonical module at 0,
        # against the strict interior of the scaled polyhedron
        ideals = _random_normal_ideals(23, 300, (1, 2, 3, 4), lambda n: 2)
        for a in ideals:
            degree_one = tuple(g + (1,) for g in a.generators)
            for alg in (extended_rees_cone(a), rees_cone(a)):
                gen_sets = [rees_ideal_generators(a), degree_one]
                if alg.kind == EXTENDED_REES:
                    gen_sets.append((alg.t_inverse(),))
                for gens in gen_sets:
                    for lam in (0, Fraction(1, 3), 1, Fraction(5, 2)):
                        want = strict_interior_system(scale(_graded_newton(alg, gens), lam))
                        got = multiplier_module_general(alg, gens, lam).system
                        assert got == want, (a, alg.kind, gens, lam)


def test_decisions_list_no_runs(monkeypatch):
    # theorem A and the cone builds (with their slice check) answer from
    # the threshold systems alone
    def listing(*args, **kwargs):
        raise AssertionError("lattice_runs called")

    # rees.py imports no lattice_runs now; patch it in case it comes back
    monkeypatch.setattr("reesmult.rees.lattice_runs", listing, raising=False)
    monkeypatch.setattr("reesmult.polyhedra.lattice_runs", listing)
    for a in (M_XY, M_XY2, M_XYZ, minimalize([(3, 0), (1, 1), (0, 2)])):
        for build in (extended_rees_cone, rees_cone):
            build.cache_clear()
            _validate_slices(build(a))
        for lam in (0, Fraction(1, 2), 1, Fraction(5, 2)):
            assert verify_theoremA(a, lam).overall
            alg = extended_rees_cone(a)
            is_pair_rational(alg, alg.t_inverse(), lam)


def _record_walks(monkeypatch):
    """Patch ``lattice_runs``, where ``compare_systems`` calls it, and
    ``lattice_count``, where the verifiers and ``compare_systems`` call it,
    to record the systems they list and count."""
    listed, counted = [], []

    def listing(system, box):
        listed.append(system)
        return lattice_runs(system, box)

    def counting(system, box):
        counted.append(system)
        return lattice_count(system, box)

    monkeypatch.setattr("reesmult.polyhedra.lattice_runs", listing)
    monkeypatch.setattr("reesmult.polyhedra.lattice_count", counting)
    monkeypatch.setattr("reesmult.rees.lattice_count", counting)
    return listed, counted


class TestCompareLevel:
    BOX = cube(2, -1, 6)
    OMEGA = ThresholdSystem(2, (((1, 0), 1), ((0, 1), 1)))

    def test_certified_level_counts_once(self, monkeypatch):
        implied = ThresholdSystem(2, self.OMEGA.constraints + (((1, 1), 2),))
        want = compare_runs(lattice_runs(implied, self.BOX), lattice_runs(self.OMEGA, self.BOX))
        listed, counted = _record_walks(monkeypatch)
        assert compare_systems(implied, self.OMEGA, self.BOX) == want == (36, 36, None)
        assert listed == []
        assert counted == [implied]

    def test_same_set_not_certified_lists_both(self, monkeypatch):
        # both are the orthant without 0, but the unit rows m_i >= 0 imply
        # none of the rows with threshold 1, so the reduction proves nothing
        units = (((1, 0), 0), ((0, 1), 0))
        s1 = ThresholdSystem(2, units + (((1, 1), 1),))
        s2 = ThresholdSystem(2, units + (((2, 1), 1), ((1, 2), 1)))
        assert s1.reduced() != s2.reduced()
        want = compare_runs(lattice_runs(s1, self.BOX), lattice_runs(s2, self.BOX))
        listed, counted = _record_walks(monkeypatch)
        assert compare_systems(s1, s2, self.BOX) == want == (48, 48, None)
        assert listed == [s1, s2]
        assert counted == []

    def test_differing_levels_keep_counts_and_witness(self):
        rng = random.Random(25)
        differ = 0
        for _ in range(200):
            s1 = ThresholdSystem(2, tuple(
                ((rng.randint(-1, 2), rng.randint(-1, 2)), rng.randint(-2, 3)) for _ in range(3)))
            s2 = ThresholdSystem(2, s1.constraints[1:] + (((1, 1), rng.randint(0, 4)),))
            box = cube(2, -2, 5)
            pts1, pts2 = lattice_points(s1, box), lattice_points(s2, box)
            got = compare_systems(s1, s2, box)
            assert got == (len(pts1), len(pts2), first_mismatch(pts1, pts2)), (s1, s2)
            differ += got[2] is not None
        assert differ >= 100


class TestTheoremBAgainstTwoListings:
    def test_reports_match(self):
        # k + lam <= 0 on the lowest B.2 levels for every lam in the grid
        grid = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(5, 3))
        rng = random.Random(26)
        ideals = _random_normal_ideals(27, 500, (1, 2, 3, 4), lambda n: 2 if n < 4 else 1)
        assert {a.nvars for a in ideals} == {1, 2, 3, 4}
        for a in ideals:
            lam = rng.choice(grid)
            got, want = verify_theoremB_T(a, lam, (-2, 2)), verify_theoremB_T_by_runs(a, lam, (-2, 2))
            assert got.to_json() == want.to_json(), (a, lam)
            got, want = verify_theoremB_S(a, lam, (0, 2)), verify_theoremB_S_by_runs(a, lam, (0, 2))
            assert got.to_json() == want.to_json(), (a, lam)

    def test_acceptance_cases_count_once_per_level(self, monkeypatch):
        # every level of acceptance criteria 2 and 3 is certified: its left
        # side is counted once, B.1's degree-zero piece is counted, and
        # nothing is listed
        listed, counted = _record_walks(monkeypatch)
        for a in GRID:
            for lam in LAMBDAS_B:
                alg = extended_rees_cone(a)
                ext = multiplier_module_principal(alg, alg.t_inverse(), lam)
                rees = multiplier_module_general(rees_cone(a), rees_ideal_generators(a), lam)
                listed.clear()
                counted.clear()
                assert len(verify_theoremB_T(a, lam, (-3, 6)).per_k) == 10
                assert listed == []
                assert counted == [graded_piece(ext, k).system for k in range(-3, 7)]
                listed.clear()
                counted.clear()
                assert len(verify_theoremB_S(a, lam, (0, 5)).per_k) == 6
                assert listed == []
                assert counted == [graded_piece(rees, k).system for k in range(1, 7)] + [
                    graded_piece(rees, 0).system]


class TestSymbolicThresholdIdentity:
    def test_identity_per_facet(self):
        # c*k + floor(lam*c) + 1 == floor((k + lam)*c) + 1 for integer c, k
        rng = random.Random(99)
        for _ in range(200):
            c = rng.randint(1, 40)
            k = rng.randint(-30, 30)
            lam = Fraction(rng.randint(0, 200), rng.randint(1, 50))
            import math

            assert c * k + math.floor(lam * c) + 1 == math.floor((k + lam) * c) + 1

    def test_report_flag(self):
        for a in (M_XY, M_XY2, M_XYZ):
            for lam in (0, Fraction(1, 3), Fraction(3, 2)):
                report = verify_theoremB_T(a, lam, (-2, 4))
                assert report.details["thresholdsIdentical"]


M23 = LocalHypersurfaceModel(2, 2, (2, 3))


class TestWhereChecksRun:
    """A verifier reads the guard once and bounds its level range by it
    before it builds a level; each distinct level box is checked once, on
    first use, so an empty range checks no box.  The cones are built first:
    their normality scans walk boxes of their own."""

    @pytest.fixture(autouse=True)
    def cones(self):
        for a in (M_XY, M_XY2):
            rees_cone(a)

    def test_empty_range_checks_nothing(self, monkeypatch):
        # an over-guard box, then no readable guard at all
        for guard in ("10", "x"):
            monkeypatch.setenv(POINT_GUARD_ENV, guard)
            report = verify_theoremB_T(M_XY, 0, (1, 0), cube(2, 0, 10 ** 6))
            assert (report.per_k, report.overall) == ((), True)
            report = verify_local_decomposition(M23, 0, box_deg=2, box_c=10 ** 6, k_range=(1, 0))
            assert (report.per_k, report.details["inconclusive"], report.overall) == ((), [], True)

    def test_degree_zero_count_checks_its_box(self, monkeypatch):
        # B.1 counts its degree-zero piece on an empty range too, as before
        monkeypatch.setenv(POINT_GUARD_ENV, "10")
        with pytest.raises(ResourceLimitError, match=r"^box volume 16 exceeds enumeration guard 10$"):
            verify_theoremB_S(M_XY, 0, (1, 0), cube(2, 0, 3))
        monkeypatch.setenv(POINT_GUARD_ENV, "x")
        with pytest.raises(ParseError):
            verify_theoremB_S(M_XY, 0, (1, 0), cube(2, 0, 3))

    def test_inconclusive_range_reads_the_guard_only(self, monkeypatch):
        monkeypatch.setenv(POINT_GUARD_ENV, "10")
        report = verify_local_decomposition(M23, 0, box_deg=2, box_c=10 ** 6, k_range=(5, 9))
        assert report.per_k == () and report.details["inconclusive"] == [5, 6, 7, 8, 9]
        monkeypatch.setenv(POINT_GUARD_ENV, "4")
        with pytest.raises(ResourceLimitError,
                           match=r"^level range of 5 levels exceeds enumeration guard 4$"):
            verify_local_decomposition(M23, 0, box_deg=2, box_c=10 ** 6, k_range=(5, 9))

    def test_level_range_bound(self, monkeypatch):
        # a box of 9 points under a guard of 10: ten levels run, eleven are
        # refused before a level is built, whatever the box
        monkeypatch.setenv(POINT_GUARD_ENV, "10")
        box = cube(2, 0, 2)
        assert len(verify_theoremB_T(M_XY, 0, (0, 9), box).per_k) == 10
        assert len(verify_theoremB_S(M_XY, 0, (0, 9), box).per_k) == 10
        assert len(verify_local_decomposition(M23, 0, 5, 2, (-5, 4)).per_k) == 10

        def unbuilt(*args):
            raise AssertionError("level built")

        monkeypatch.setattr(reesmult.rees, "graded_piece", unbuilt)
        monkeypatch.setattr(reesmult.hypersurface, "ThresholdSystem", unbuilt)
        # B.1 and B.2 slice their module directly, and local its graded system
        polyhedra._slice.cache_clear()
        monkeypatch.setattr(polyhedra, "_slice", unbuilt)
        message = r"^level range of 11 levels exceeds enumeration guard 10$"
        for verify in (lambda: verify_theoremB_T(M_XY, 0, (0, 10), cube(2, 0, 10 ** 6)),
                       lambda: verify_theoremB_S(M_XY, 0, (0, 10), cube(2, 0, 10 ** 6)),
                       lambda: verify_local_decomposition(M23, 0, 5, 10 ** 6, (-5, 5)),
                       lambda: verify_local_decomposition(M23, 0, 0, 2, (-5, 5))):
            with pytest.raises(ResourceLimitError, match=message):
                verify()

    def test_guard_read_once_and_each_box_checked_once(self, monkeypatch):
        reads, boxes = [], []
        point_guard, as_box = polyhedra.point_guard, polyhedra.as_box

        def reading():
            reads.append(None)
            return point_guard()

        def checking(box, rank):
            boxes.append(tuple(box))
            return as_box(box, rank)

        for module in (polyhedra, reesmult.rees):
            monkeypatch.setattr(module, "point_guard", reading)
        monkeypatch.setattr(polyhedra, "as_box", checking)
        for verify, distinct in ((lambda: verify_theoremB_T(M_XY2, Fraction(1, 2), (-3, 6)), 1),
                                 (lambda: verify_theoremB_S(M_XY2, Fraction(1, 2), (0, 5)), 1),
                                 # one reach box for k <= 0, one per k > 0
                                 (lambda: verify_local_decomposition(M23, 1, 4), 5)):
            verify()  # the modules are built and cached
            reads.clear()
            boxes.clear()
            verify()
            assert len(reads) == 1
            assert len(boxes) == len(set(boxes)) == distinct


class TestReportSerialization:
    def test_json_shape(self):
        report = verify_theoremB_T(M_XY2, Fraction(1, 2), (-2, 3))
        data = report.to_json()
        assert data["theorem"] == "B.2"
        assert data["lambda"] == "1/2"
        assert data["kRange"] == [-2, 3]
        assert data["overall"] is True
        assert all(
            set(p) == {"k", "lhsCount", "rhsCount", "equal", "witness"}
            for p in data["perK"]
        )
