"""Toric cone models of Rees and extended Rees algebras of a normal
monomial ideal.

The extended Rees algebra R[at, t^-1] of a normal monomial ideal is the
semigroup algebra of a full-dimensional cone in rank n+1 (last
coordinate = t-degree); the Rees algebra adds the constraint k >= 0.
On these models the canonical module is the strict interior of the
cone, multiplier modules come from floor-threshold systems on the cone
facets, and the graded decomposition of both multiplier modules reduces
to an identity of integer threshold systems that this module verifies
level by level against the base-ring Newton computation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, NotNormalError, ResourceLimitError
from .ideals import (
    OMEGA,
    MonomialIdeal,
    MonomialModule,
    default_box,
    first_non_closed_power,
    multiplier_module,
    newton,
    newton_positive_facets,
)
from .polyhedra import (
    CACHE_SIZE,
    Cone,
    HalfSpace,
    Polyhedron,
    ThresholdSystem,
    _facet_rows,
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
    points_plus_cone,
    homogeneous_rays,
    unit_vectors,
)
from .serialize import Record, frac_str

REES = "REES"
EXTENDED_REES = "EXTENDED_REES"


class GradedToricAlgebra(Record):
    """Cone model of a Rees-type algebra, graded by the last coordinate.

    ``cone`` is the H-representation of the dual cone (all thresholds 0,
    irredundant); ``rays`` are the primitive generators of the primal
    cone, i.e. exactly the facet normals, in matching order.
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


def _level_report(theorem, subject, lam, k_range, box, levels, details, required=()):
    """Decide each ``(k, lhs, rhs, box)`` of ``levels`` by ``compare_systems``,
    then call ``details(count)`` with ``count`` ``lattice_count``: the check
    holds iff every level is equal and every detail named in ``required`` is
    true.  A range of more levels than ``point_guard()`` is refused first; the
    guard is read once, and each distinct box checked once."""
    size, checked = k_range[1] - k_range[0] + 1, {}
    guard = point_guard() if size > 0 else None
    if size > 0 and size > guard:
        raise ResourceLimitError(f"level range of {size} levels exceeds enumeration guard {guard}")

    def bounds(box, rank):
        return checked.get(box) or checked.setdefault(box, checked_box(box, rank, guard))

    compared = [(k, *compare_systems(lhs, rhs, bounds(level_box, lhs.rank)))
                for k, lhs, rhs, level_box in levels]
    per_k = tuple(PerLevel(k, nl, nr, w is None, w) for k, nl, nr, w in compared)
    details = details(lambda system, box: lattice_count(system, bounds(box, system.rank)))
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
    """Level k of the cone must cut out a^k on all of Z^n: its reduced system
    must be that of {<w, m> >= k c} over the Newton facets of a for k >= 1
    (``extended_rees_cone`` compared those points with a^k), of the orthant
    for k <= 0."""
    a, n = alg.source, alg.nvars
    facets = [(h.normal, h.threshold) for h in newton(a).facets]
    units = [(u, 0) for u in unit_vectors(n)]
    for k in range(-2 if alg.kind == EXTENDED_REES else 0, 4):
        want = ThresholdSystem(n, tuple([(w, k * c) for w, c in facets] if k >= 1 else units))
        if alg.cone.substitute_last(k).reduced() != want.reduced():
            raise AssertionError(
                f"internal: level-{k} slice of the {alg.kind} cone of "
                f"{a.to_json()} does not match a^{k}"
            )


def _cone_model(a: MonomialIdeal, kind: str, rows) -> GradedToricAlgebra:
    """The model of a on the full-dimensional cone {x : <r, x> >= 0 for r in
    rows}: its facet rows, read off one ``_dd``, then checked slice by slice."""
    rows = [rows[i] for i in _facet_rows(rows, a.nvars + 1)]
    system = ThresholdSystem(a.nvars + 1, tuple((w, 0) for w in rows))
    alg = GradedToricAlgebra(a.nvars, kind, system, system.normals(), a)
    _validate_slices(alg)
    return alg


@lru_cache(maxsize=CACHE_SIZE)
def extended_rees_cone(a: MonomialIdeal) -> GradedToricAlgebra:
    """Cone of R[at, t^-1]: {m >= 0} and <w_j, m> >= c_j k per Newton facet."""
    k = first_non_closed_power(a, max(a.nvars - 1, 3))  # and each power the slice check reads
    if k is not None:
        raise NotNormalError(
            "extended Rees algebra is not toric: ideal not normal "
            f"(closure differs at power {k})"
        )
    rows = [u + (0,) for u in unit_vectors(a.nvars)]
    rows += [w + (-c,) for w, c in newton_positive_facets(a)]
    return _cone_model(a, EXTENDED_REES, rows)


@lru_cache(maxsize=CACHE_SIZE)
def rees_cone(a: MonomialIdeal) -> GradedToricAlgebra:
    """Cone of R[at]: the extended cone intersected with {k >= 0}, so the
    extended cone's normality check covers it."""
    rows = list(extended_rees_cone(a).rays) + unit_vectors(a.nvars + 1)[-1:]
    return _cone_model(a, REES, rows)


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
    general pair of the one generator u, as u + C has the cone's facets with
    thresholds <u, v_i>, so facet/ray i asks <m, v_i> >= 1 + floor(lam * <u, v_i>)."""
    lam = as_exponent(lam)
    principal_divisor_pairings(alg, u)
    return multiplier_module_general(alg, (u,), lam)


@lru_cache(maxsize=CACHE_SIZE)
def _graded_newton(alg: GradedToricAlgebra, gens) -> Polyhedron:
    normals = alg.cone.normals()
    recession = Cone(
        alg.ambient_rank,
        homogeneous_rays(list(normals), alg.ambient_rank),
        tuple(HalfSpace(w, 0) for w in normals),
    )
    return points_plus_cone(gens, recession, alg.ambient_rank)


def multiplier_module_general(alg: GradedToricAlgebra, gens, lam) -> GradedModuleSpec:
    """Multiplier module of the pair cut out by monomials ``gens`` on the
    cone model: strict interior of lam * (conv(gens) + cone), that is
    floor(lam * c) + 1 per facet (w, c) for lam > 0 and the canonical
    module's system, the cone's strict interior, for lam = 0.  Memoised on
    ``(alg, gens, lam)`` once gens and lam are canonical."""
    lam = as_exponent(lam)
    return _multiplier_module_general(alg, tuple(sorted({as_ints(g) for g in gens})), lam)


@lru_cache(maxsize=CACHE_SIZE)
def _multiplier_module_general(alg: GradedToricAlgebra, gens, lam) -> GradedModuleSpec:
    # checks that read only the key: an error is raised on every call, never cached
    for g in gens:
        if len(g) != alg.ambient_rank:
            raise DomainError("generator length does not match ambient rank")
        if not alg.cone.satisfies(g):
            raise DomainError("generator outside cone")
    # built at lam = 0 too: it rejects an empty generator list
    newt = _graded_newton(alg, gens)
    if lam == 0:
        system = canonical_module(alg).system
    else:
        system = ThresholdSystem(alg.ambient_rank, tuple(
            (h.normal, interior_threshold(lam, h.threshold)) for h in newt.facets))
    tail = "T" if alg.kind == EXTENDED_REES else "S"
    return GradedModuleSpec(alg.ambient_rank, system, f"MULT_{tail}({frac_str(lam)})")


def graded_piece(module: GradedModuleSpec, k: int) -> MonomialModule:
    """Slice at t-degree k, as a monomial set over the base ring."""
    return MonomialModule(
        module.ambient_rank - 1, module.system.substitute_last(k), OMEGA
    )


def decomposition_rhs_T(a: MonomialIdeal, lam, k: int) -> MonomialModule:
    """Level-k term of the extended-Rees decomposition: the multiplier
    module at exponent max(k + lam, 0), so omega_R, the module at 0, when
    k + lam <= 0.  A negative lam is refused, as by every lam-taker."""
    return multiplier_module(a, max(as_int(k) + as_exponent(lam), 0))


def decomposition_rhs_S(a: MonomialIdeal, lam, n: int) -> MonomialModule:
    """Term at t-degree n+1 of the Rees decomposition (the sum starts at t^1)."""
    if (n := as_int(n)) < 0:
        raise DomainError("decomposition index must be nonnegative")
    return decomposition_rhs_T(a, lam, n + 1)


def verify_theoremB_T(a: MonomialIdeal, lam, k_range=(-3, 6), box=None) -> VerificationReport:
    """Graded decomposition of the extended-Rees multiplier module.

    LHS: level-k piece of the cone-model multiplier module of t^-1.
    RHS: the base-ring multiplier module at exponent k + lam.  The two
    routes share no code past the Newton facets.  Each level is decided
    by ``compare_systems``: equal reduced systems decide it on all of Z^n
    and one count of the left side gives both counts, with nothing listed.
    The threshold identity c*k + floor(lam*c) + 1 = floor((k+lam)*c) + 1
    is checked per facet as thresholdsIdentical.
    """
    lam = as_fraction(lam)
    alg = extended_rees_cone(a)
    module = multiplier_module_principal(alg, alg.t_inverse(), lam)
    lo, hi = as_range(k_range)
    box = default_box(a, lam + max(hi, 0)) if box is None else as_box(box, a.nvars)
    identical = []  # per level: equal thresholds on the normals both sides have

    def level(k):
        lhs, rhs = module.system.substitute_last(k), decomposition_rhs_T(a, lam, k).system
        thresholds = dict(lhs.constraints)
        identical.append(all(thresholds.get(w, t) == t for w, t in rhs.constraints))
        return k, lhs, rhs, box

    return _level_report("B.2", {"ideal": a.to_json()}, lam, (lo, hi), box,
                         map(level, range(lo, hi + 1)),
                         lambda count: {"thresholdsIdentical": all(identical)})


def rees_ideal_generators(a: MonomialIdeal):
    """Generators of a*S placed at t-degree 0 (they generate the same
    ideal; normality makes the degree-k pieces come out right)."""
    return tuple(g + (0,) for g in a.generators)


def verify_theoremB_S(a: MonomialIdeal, lam, n_range=(0, 5), box=None) -> VerificationReport:
    """Graded decomposition of the Rees multiplier module.

    Levels are decided by ``compare_systems``, as in ``verify_theoremB_T``.
    Also asserts, by counting it, that the t-degree-0 piece is empty in the
    box: the decomposition starts at t^1.
    """
    lam = as_fraction(lam)
    alg = rees_cone(a)
    module = multiplier_module_general(alg, rees_ideal_generators(a), lam)
    lo, hi = as_range(n_range)
    if lo < 0:
        raise DomainError("decomposition index must be nonnegative")
    box = default_box(a, lam + max(hi + 1, 0)) if box is None else as_box(box, a.nvars)
    levels = ((n + 1, module.system.substitute_last(n + 1), decomposition_rhs_S(a, lam, n).system,
               box) for n in range(lo, hi + 1))

    def details(count):  # the degree-0 piece is counted after the levels
        return {"degreeZeroEmpty": count(module.system.substitute_last(0), box) == 0}

    return _level_report("B.1", {"ideal": a.to_json()}, lam, (lo, hi), box, levels, details,
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
    box = default_box(a, lam if lam > 0 else 1) if box is None else as_box(box, a.nvars)
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
    return _level_report("A", {"ideal": a.to_json()}, lam, (0, 0), box, (), lambda count: details,
                         ["biconditional"])
