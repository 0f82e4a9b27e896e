"""Toric cone models of Rees and extended Rees algebras of a normal
monomial ideal.

The extended Rees algebra R[at, t^-1] of a normal monomial ideal is the
semigroup algebra of the cone in rank n+1 (last coordinate = t-degree)
that the exponents of its generators x_i, g t (g in a) and t^-1 span;
the Rees algebra R[at] drops t^-1.  On these models the canonical module
is the strict interior of the cone, a pair's multiplier module that of
lam * (conv(gens) + cone), each read off one double description of
generators, and the graded decomposition of both multiplier modules
reduces to an identity of integer threshold systems that this module
verifies level by level against the base-ring Newton computation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, NotNormalError, ResourceLimitError
from .ideals import (
    OMEGA,
    MonomialIdeal,
    MonomialModule,
    _default_box,
    _multiplier_module,
    first_non_closed_power,
    multiplier_module,
    newton,
)
from .polyhedra import (
    CACHE_SIZE,
    ThresholdSystem,
    _dd,
    as_box,
    as_exponent,
    as_fraction,
    as_int,
    as_ints,
    as_range,
    checked_box,
    compare_systems,
    dot,
    interior_threshold,
    lattice_count,
    point_guard,
    unit_vectors,
)
from .serialize import Record, frac_str

REES = "REES"
EXTENDED_REES = "EXTENDED_REES"


class GradedToricAlgebra(Record):
    """Cone model of a Rees-type algebra, graded by the last coordinate.

    ``cone`` is the H-representation (all thresholds 0, irredundant) of the
    cone that the exponents of the algebra's generators span, which ``source``
    and ``kind`` give (``_algebra_generators``); ``rays`` are the primitive
    generators of its dual cone, i.e. exactly the facet normals, in order.
    """

    __slots__ = ("nvars", "kind", "cone", "rays", "source")

    def __init__(self, nvars: int, kind: str, cone: ThresholdSystem, rays, source: MonomialIdeal):
        self._set(nvars, kind, cone, rays, source)

    @property
    def ambient_rank(self) -> int:
        return self.nvars + 1

    def t_inverse(self):
        return (0,) * self.nvars + (-1,)

    def to_json(self):
        data = self.cone.to_json()
        data["kind"] = self.kind
        data["rays"] = [list(r) for r in self.rays]
        data["ideal"] = self.source.to_json()
        return data


class GradedModuleSpec(Record):
    """Graded monomial submodule over a Rees-type algebra."""

    __slots__ = ("ambient_rank", "system", "description")

    def __init__(self, ambient_rank: int, system: ThresholdSystem, description: str):
        self._set(ambient_rank, system, description)

    def to_json(self):
        data = self.system.to_json()
        data["description"] = self.description
        return data


class PerLevel(Record):
    __slots__ = ("k", "lhs_count", "rhs_count", "equal", "witness")

    def __init__(self, k: int, lhs_count: int, rhs_count: int, equal: bool, witness):
        self._set(k, lhs_count, rhs_count, equal, witness)

    def to_json(self):
        return {
            "k": self.k,
            "lhsCount": self.lhs_count,
            "rhsCount": self.rhs_count,
            "equal": self.equal,
            "witness": list(self.witness) if self.witness is not None else None,
        }


class VerificationReport(Record):
    """Per-level comparison of two independently computed graded modules."""

    __slots__ = ("theorem", "subject", "lam", "k_range", "box", "per_k", "overall", "details")

    def __init__(self, theorem: str, subject: dict, lam: Fraction, k_range, box, per_k,
                 overall: bool, details: dict):
        self._set(theorem, subject, lam, k_range, box, per_k, overall, details)

    def to_json(self):
        data = {
            "theorem": self.theorem,
            "lambda": frac_str(self.lam),
            "kRange": list(self.k_range),
            "box": [list(b) for b in self.box],
            "perK": [p.to_json() for p in self.per_k],
            "overall": self.overall,
            # strict interior conditions use floor(lambda*c) + 1 throughout
            "convention": "floor",
        }
        data.update(self.subject)
        data.update(sorted(self.details.items()))
        return data


def _level_report(theorem, subject, a, lam, k_range, box, levels, details, required=()):
    """Decide each ``(k, lhs, box)`` of ``levels`` against its right side, the
    base-ring multiplier module of ``a`` at k + lam (``_rhs_T``), by
    ``compare_systems``; then call ``details(count, sides)`` with ``count``
    ``lattice_count`` and ``sides`` the compared ``(lhs, rhs)`` per level: the
    check holds iff every level is equal and every detail named in
    ``required`` is true.  A range of more levels than ``point_guard()`` is
    refused first; the guard is read once, and each distinct box checked once."""
    size, checked = k_range[1] - k_range[0] + 1, {}
    guard = point_guard() if size > 0 else None
    if size > 0 and size > guard:
        raise ResourceLimitError(f"level range of {size} levels exceeds enumeration guard {guard}")

    def bounds(box, rank):
        return checked.get(box) or checked.setdefault(box, checked_box(box, rank, guard))

    p, q = lam.numerator, lam.denominator
    sides = [(k, lhs, _rhs_T(a, p, q, k).system, bounds(level_box, lhs.rank))
             for k, lhs, level_box in levels]
    compared = [(k, *compare_systems(lhs, rhs, b)) for k, lhs, rhs, b in sides]
    per_k = tuple(PerLevel(k, nl, nr, w is None, w) for k, nl, nr, w in compared)
    details = details(lambda system, box: lattice_count(system, bounds(box, system.rank)),
                      [(lhs, rhs) for _, lhs, rhs, _ in sides])
    return VerificationReport(
        theorem=theorem,
        subject=subject,
        lam=lam,
        k_range=k_range,
        box=box,
        per_k=per_k,
        overall=all(p.equal for p in per_k) and all(details[key] for key in required),
        details=details,
    )


def _validate_slices(alg: GradedToricAlgebra):
    """The cone must be cut out by (w, -c) per Newton facet (w, c) of a, with
    (e_i, 0) per i (extended) or (0, ..., 0, 1) (Rees): so every level k >= 0
    is k Newt(a), and k < 0 the orthant (extended) or empty (Rees).  The
    Newton facets are a route independent of the generators."""
    a, n = alg.source, alg.nvars
    units = unit_vectors(n + 1)
    rows = [h.normal + (-h.threshold,) for h in newton(a).facets]
    rows += units[:n] if alg.kind == EXTENDED_REES else units[n:]
    if alg.cone != ThresholdSystem(n + 1, tuple((w, 0) for w in rows)):
        raise AssertionError(
            f"internal: the {alg.kind} cone of {a.to_json()} does not match a^k at every level k"
        )


def _algebra_generators(a: MonomialIdeal, kind: str):
    """Exponents of the algebra's generators: x_i as (e_i, 0), g t as (g, 1)
    per generator g of a, and t^-1 as (0, ..., 0, -1) for the extended kind."""
    gens = [u + (0,) for u in unit_vectors(a.nvars)] + [g + (1,) for g in a.generators]
    return gens + [(0,) * a.nvars + (-1,)] if kind == EXTENDED_REES else gens


def _cone_model(a: MonomialIdeal, kind: str) -> GradedToricAlgebra:
    """The model of a on the cone its algebra generators span: its facet
    normals are the extreme rays of one ``_dd`` of them (no lineality, as
    they span), then checked at every level against the Newton facets of a:
    level k >= 0 of the cone is conv(k g) + orthant = k Newt(a)."""
    _, rays, _ = _dd(_algebra_generators(a, kind), a.nvars + 1)
    system = ThresholdSystem(a.nvars + 1, tuple((r, 0) for r in rays))
    alg = GradedToricAlgebra(a.nvars, kind, system, system.normals(), a)
    _validate_slices(alg)
    return alg


@lru_cache(maxsize=CACHE_SIZE)
def extended_rees_cone(a: MonomialIdeal) -> GradedToricAlgebra:
    """Cone of R[at, t^-1]: spanned by (e_i, 0), (g, 1) and (0, -1)."""
    k = first_non_closed_power(a)
    if k is not None:
        raise NotNormalError(
            "extended Rees algebra is not toric: ideal not normal "
            f"(closure differs at power {k})"
        )
    return _cone_model(a, EXTENDED_REES)


@lru_cache(maxsize=CACHE_SIZE)
def rees_cone(a: MonomialIdeal) -> GradedToricAlgebra:
    """Cone of R[at]: spanned by (e_i, 0) and (g, 1); normality is the extended cone's check."""
    extended_rees_cone(a)
    return _cone_model(a, REES)


def canonical_module(alg: GradedToricAlgebra) -> GradedModuleSpec:
    """Strict interior of the cone: every facet threshold raised 0 -> 1."""
    system = ThresholdSystem(
        alg.ambient_rank, tuple((w, 1) for w, _ in alg.cone.constraints)
    )
    tag = "OMEGA_T" if alg.kind == EXTENDED_REES else "OMEGA_S"
    return GradedModuleSpec(alg.ambient_rank, system, tag)


def principal_divisor_pairings(alg: GradedToricAlgebra, u) -> list:
    """Pairings <u, v_i> over the rays v_i; the divisor of the monomial x^u."""
    u = as_ints(u)
    if len(u) != alg.ambient_rank:
        raise DomainError("exponent length does not match ambient rank")
    pairings = [dot(u, v) for v in alg.rays]
    if any(p < 0 for p in pairings):
        raise DomainError("not a monomial of the algebra")
    return pairings


def multiplier_module_principal(alg: GradedToricAlgebra, u, lam) -> GradedModuleSpec:
    """Multiplier module of a principal monomial pair on the cone model: the
    general pair of the one generator u, whose one ``_dd`` gives u + C the
    cone's facets, so ray i asks <m, v_i> >= 1 + floor(lam * <u, v_i>)."""
    lam = as_exponent(lam)
    principal_divisor_pairings(alg, u)
    return multiplier_module_general(alg, (u,), lam)


def multiplier_module_general(alg: GradedToricAlgebra, gens, lam) -> GradedModuleSpec:
    """Multiplier module of the pair cut out by monomials ``gens`` on the
    cone model: strict interior of lam * (conv(gens) + cone), that is
    floor(lam * c) + 1 per facet (w, c) for lam > 0 and the canonical
    module's system, the cone's strict interior, for lam = 0.  The facets
    are read from the generators of ``alg.source`` and ``alg.kind``, which
    span ``alg.cone`` for every algebra the two cone builders return.
    Memoised on ``(alg, gens, p, q)`` for canonical gens and lam = p/q in
    lowest terms, once lam is checked: a float equal to a cached lam is refused."""
    lam = as_exponent(lam)
    return _multiplier_module_general(alg, tuple(sorted({as_ints(g) for g in gens})),
                                      lam.numerator, lam.denominator)


@lru_cache(maxsize=CACHE_SIZE)
def _multiplier_module_general(alg: GradedToricAlgebra, gens, p: int, q: int) -> GradedModuleSpec:
    # checks that read only the key: an error is raised on every call, never cached
    for g in gens:
        if len(g) != alg.ambient_rank:
            raise DomainError("generator length does not match ambient rank")
        if not alg.cone.satisfies(g):
            raise DomainError("generator outside cone")
    if not gens:
        raise DomainError("no generating points")
    lam = Fraction(p, q)
    if p == 0:
        system = canonical_module(alg).system
    else:
        # facets (w, c), w != 0: rays of {<w, r> >= 0 per algebra generator r,
        # <w, g> >= c per g}; each holds a g, so w is primitive and c an int
        rows = [r + (0,) for r in _algebra_generators(alg.source, alg.kind)]
        _, rays, _ = _dd(rows + [g + (-1,) for g in gens], alg.ambient_rank + 1)
        system = ThresholdSystem(alg.ambient_rank, tuple(
            (r[:-1], interior_threshold(lam, r[-1])) for r in rays if any(r[:-1])))
    tail = "T" if alg.kind == EXTENDED_REES else "S"
    return GradedModuleSpec(alg.ambient_rank, system, f"MULT_{tail}({frac_str(lam)})")


def graded_piece(module: GradedModuleSpec, k: int) -> MonomialModule:
    """Slice at t-degree k, as a monomial set over the base ring."""
    return MonomialModule(
        module.ambient_rank - 1, module.system.substitute_last(k), OMEGA
    )


def _rhs_T(a: MonomialIdeal, p: int, q: int, k: int) -> MonomialModule:
    # lam = p/q in lowest terms, so k + lam = (kq + p)/q is in lowest terms too
    return _multiplier_module(a, k * q + p, q) if k * q + p > 0 else _multiplier_module(a, 0, 1)


def decomposition_rhs_T(a: MonomialIdeal, lam, k: int) -> MonomialModule:
    """Level-k term of the extended-Rees decomposition: the multiplier
    module at exponent max(k + lam, 0), so omega_R, the module at 0, when
    k + lam <= 0.  A negative lam is refused, as by every lam-taker."""
    k, lam = as_int(k), as_exponent(lam)
    return _rhs_T(a, lam.numerator, lam.denominator, k)


def decomposition_rhs_S(a: MonomialIdeal, lam, n: int) -> MonomialModule:
    """Term at t-degree n+1 of the Rees decomposition (the sum starts at t^1)."""
    if (n := as_int(n)) < 0:
        raise DomainError("decomposition index must be nonnegative")
    return decomposition_rhs_T(a, lam, n + 1)


def verify_theoremB_T(a: MonomialIdeal, lam, k_range=(-3, 6), box=None) -> VerificationReport:
    """Graded decomposition of the extended-Rees multiplier module.

    LHS: level-k piece of the cone-model multiplier module of t^-1, the
    general pair of the one generator t^-1.  RHS: the base-ring multiplier
    module at exponent k + lam, which ``_level_report`` looks up by the
    integer key (kq + p, q) for lam = p/q in lowest terms.  The two routes
    share no code past the Newton facets.  Each level is decided by
    ``compare_systems``: equal reduced systems decide it on all of Z^n and
    one count of the left side gives both counts, with nothing listed.
    The threshold identity c*k + floor(lam*c) + 1 = floor((k+lam)*c) + 1
    is checked per facet as thresholdsIdentical.
    """
    lam = as_fraction(lam)
    alg = extended_rees_cone(a)
    module = multiplier_module_general(alg, (alg.t_inverse(),), lam)
    lo, hi = as_range(k_range)
    p, q = lam.numerator, lam.denominator
    box = _default_box(a, p + max(hi, 0) * q, q) if box is None else as_box(box, a.nvars)

    def details(count, sides):  # per level: equal thresholds on the normals both sides have
        shared = [(dict(lhs.constraints), rhs.constraints) for lhs, rhs in sides]
        return {"thresholdsIdentical": all(lt.get(w, t) == t for lt, rows in shared
                                           for w, t in rows)}

    return _level_report("B.2", {"ideal": a.to_json()}, a, lam, (lo, hi), box,
                         ((k, module.system.substitute_last(k), box) for k in range(lo, hi + 1)),
                         details)


def rees_ideal_generators(a: MonomialIdeal):
    """Generators of a*S placed at t-degree 0 (they generate the same
    ideal; normality makes the degree-k pieces come out right)."""
    return tuple(g + (0,) for g in a.generators)


def verify_theoremB_S(a: MonomialIdeal, lam, n_range=(0, 5), box=None) -> VerificationReport:
    """Graded decomposition of the Rees multiplier module.

    LHS: level-(n+1) piece of the cone-model multiplier module of aS.  RHS:
    the base-ring multiplier module at n + 1 + lam, looked up and compared by
    ``_level_report`` as in ``verify_theoremB_T``.  Also asserts, by counting
    it, that the t-degree-0 piece is empty in the box: the sum starts at t^1.
    """
    lam = as_fraction(lam)
    alg = rees_cone(a)
    module = multiplier_module_general(alg, rees_ideal_generators(a), lam)
    lo, hi = as_range(n_range)
    if lo < 0:
        raise DomainError("decomposition index must be nonnegative")
    p, q = lam.numerator, lam.denominator
    box = _default_box(a, p + max(hi + 1, 0) * q, q) if box is None else as_box(box, a.nvars)
    levels = ((n + 1, module.system.substitute_last(n + 1), box) for n in range(lo, hi + 1))

    def details(count, sides):  # the degree-0 piece is counted after the levels
        return {"degreeZeroEmpty": count(module.system.substitute_last(0), box) == 0}

    return _level_report("B.1", {"ideal": a.to_json()}, a, lam, (lo, hi), box, levels, details,
                         ["degreeZeroEmpty"])


def is_pair_rational(alg: GradedToricAlgebra, u, lam) -> bool:
    """Multiplier module of the principal pair equals the canonical module.

    Both systems have the cone's facet normals (so does the Rees pair's,
    as conv(gens) + C = (C & {k >= 1}) - e_k), so their sets agree on all
    of Z^(n+1) iff the canonical systems do: if facet j has thresholds
    t < t', then N p + u, with p in its relative interior and <w_j, u> = t,
    lies in the first set only for large N.
    """
    return multiplier_module_principal(alg, u, lam).system == canonical_module(alg).system


def verify_theoremA(a: MonomialIdeal, lam, box=None) -> VerificationReport:
    """Pair-level rationality biconditional between the three models.

    The extended-Rees pair is rational iff the base pair and the Rees
    pair both are; all three sides are computed independently, on the
    whole lattice: the base pair by whether its upward-closed module holds
    the least point (1,..,1) of omega_R, the graded pairs as in
    ``is_pair_rational``.  ``box`` is only checked, as B.1 and B.2 check
    theirs, and recorded.
    """
    lam = as_fraction(lam)
    ext = extended_rees_cone(a)
    rees = rees_cone(a)
    # lam <= 0 takes the box at 1, which is the box at 1/q: ceil(1/q) = 1
    p, q = max(lam.numerator, 1), lam.denominator
    box = _default_box(a, p, q) if box is None else as_box(box, a.nvars)
    rational_r = multiplier_module(a, lam).system.satisfies((1,) * a.nvars)
    rational_t = is_pair_rational(ext, ext.t_inverse(), lam)
    s_module = multiplier_module_general(rees, rees_ideal_generators(a), lam)
    rational_s = s_module.system == canonical_module(rees).system
    details = {
        "rationalR": rational_r,
        "rationalS": rational_s,
        "rationalT": rational_t,
        "biconditional": rational_t == (rational_r and rational_s),
    }
    return _level_report("A", {"ideal": a.to_json()}, a, lam, (0, 0), box, (),
                         lambda count, sides: details, ["biconditional"])
