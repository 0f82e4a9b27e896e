"""Monomial ideals over a polynomial ring.

Newton polyhedra, powers, integral closure and normality, multiplier
ideals and multiplier modules (exact lattice conditions on the scaled
Newton polyhedron's interior, read off its facets), log canonical
threshold, and jumping numbers decided exactly on the threshold systems.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, ResourceLimitError
from .polyhedra import (
    CACHE_SIZE,
    Polyhedron,
    ThresholdSystem,
    as_exponent,
    as_fraction,
    as_int,
    as_ints,
    cube,
    dot,
    interior_threshold,
    lattice_runs,
    newton_from_points,
    point_guard,
    unit_vectors,
)
from .serialize import Record, frac_str

OMEGA = "OMEGA"
RING = "RING"


class MonomialIdeal(Record):
    """Finitely many minimal monomial generators, identified by exponents.

    The constructor keeps the minimal generators, sorted; the zero ideal
    is excluded.  The unit ideal (exponent zero) is representable but lies
    outside the usual positive-height hypotheses; callers that care check
    :attr:`is_unit`.
    """

    __slots__ = ("nvars", "generators")

    def __init__(self, nvars: int, generators):
        nvars = as_int(nvars)
        if nvars < 1:
            raise DomainError("need at least one variable")
        gens = sorted({as_ints(g) for g in generators})
        if not gens:
            raise DomainError("zero ideal")
        kept, least = [], math.inf
        for g in gens:
            if len(g) != nvars:
                raise DomainError("generator length does not match nvars")
            if min(g) < 0:
                raise DomainError("generator exponents must be nonnegative")
            # a proper divisor comes first in lex order and has a smaller degree
            if (degree := sum(g)) <= least or not any(all(map(operator.le, h, g)) for h in kept):
                kept.append(g)
                least = min(least, degree)
        self._set(nvars, tuple(kept))

    @property
    def is_unit(self) -> bool:
        return self.generators == ((0,) * self.nvars,)

    def max_entry(self) -> int:
        return max(e for g in self.generators for e in g)

    def to_json(self):
        return {"nvars": self.nvars, "generators": [list(g) for g in self.generators]}


def minimalize(gens, nvars=None) -> MonomialIdeal:
    """The ideal of ``gens``, whose constructor keeps the minimal generators."""
    gens = [as_ints(g) for g in gens]
    if not gens:
        raise DomainError("zero ideal")
    return MonomialIdeal(len(gens[0]) if nvars is None else nvars, gens)


@lru_cache(maxsize=CACHE_SIZE)
def newton(a: MonomialIdeal) -> Polyhedron:
    """Newton polyhedron conv(generators) + orthant, irredundant facets."""
    return newton_from_points(a.generators, a.nvars)


def newton_positive_facets(a: MonomialIdeal):
    """(normal, threshold) per Newton facet with positive integer threshold."""
    return [(h.normal, h.threshold) for h in newton(a).facets if h.threshold > 0]


def _sums(a: MonomialIdeal, k: int):
    """The k-fold sums of generators, which generate a^k."""
    combos = itertools.combinations_with_replacement(a.generators, k)
    return {tuple(map(sum, zip(*combo))) for combo in combos}


def power(a: MonomialIdeal, k: int) -> MonomialIdeal:
    """k-th power: minimalized k-fold sums of generators."""
    k = as_int(k)
    if k < 1:
        raise DomainError("power exponent must be positive")
    return a if k == 1 else minimalize(_sums(a, k), a.nvars)


def _closure_points(a: MonomialIdeal, k: int):
    """Minimal lattice points of k Newt(a), the minimal generators of the
    integral closure of a^k.  They lie in the box of k times the
    per-coordinate generator maxima.  The lattice points are upward closed:
    a run start ``p + (lo,)`` is minimal iff each line ``p - e_i``
    (``p_i > 0``) misses them or starts after lo.
    """
    bounds = tuple((0, k * max(column)) for column in zip(*a.generators))
    system = ThresholdSystem(a.nvars, [(h.normal, k * h.threshold) for h in newton(a).facets])
    start = {prefix: lo for prefix, lo, _ in lattice_runs(system, bounds)}
    return {
        p + (lo,) for p, lo in start.items()
        if all(start.get(p[:i] + (e - 1,) + p[i + 1:], lo + 1) > lo for i, e in enumerate(p) if e)
    }


def integral_closure(a: MonomialIdeal) -> MonomialIdeal:
    """Minimal generators of the monomials in Newt(a); extensive, idempotent."""
    return MonomialIdeal(a.nvars, _closure_points(a, 1))


def first_non_closed_power(a: MonomialIdeal, bound=None):
    """Smallest k <= bound with a^k not integrally closed, or None.

    The k-fold sums generate a^k, which lies in its closure, so a^k is
    closed iff each minimal point of k Newt(a) is a sum (if a^k is closed,
    the point is a minimal generator of a^k).  Closed powers up to nvars - 1
    imply normality (Reid, Roberts and Vitulli, Comm. Algebra 31, 2003),
    hence the default bound.
    """
    bound = max(a.nvars - 1, 1) if bound is None else as_int(bound)
    if len(a.generators) == 1:  # (g)^k = (kg) is principal, so integrally closed
        return None
    return next((k for k in range(1, bound + 1) if not _closure_points(a, k) <= _sums(a, k)), None)


def is_normal(a: MonomialIdeal, bound=None) -> bool:
    """All powers up to the bound integrally closed."""
    return first_non_closed_power(a, bound) is None


class MonomialModule(Record):
    """Monomial submodule of omega_R (all exponents >= 1) or of R (>= 0),
    cut out by a threshold system over the exponent lattice."""

    __slots__ = ("nvars", "system", "ambient")

    def __init__(self, nvars: int, system: ThresholdSystem, ambient: str):
        nvars = as_int(nvars)
        if ambient not in (OMEGA, RING):
            raise DomainError(f"unknown ambient {ambient!r}")
        if system.rank != nvars:
            raise DomainError("system rank does not match nvars")
        self._set(nvars, system, ambient)

    def is_full_ring(self) -> bool:
        """For RING ambient: the system is satisfied by the zero exponent.

        Sound because every constraint normal is nonnegative, so the
        monomial set is upward closed and contains 0 iff it is all of R.
        """
        if self.ambient != RING:
            raise DomainError("full-ring test only applies to RING ambient")
        return self.system.satisfies((0,) * self.nvars)

    def to_json(self):
        data = self.system.to_json()
        data["ambient"] = self.ambient
        return data


def omega_module(nvars: int) -> MonomialModule:
    """The canonical module omega_R = all exponents >= 1."""
    nvars = as_int(nvars)
    units = tuple((u, 1) for u in unit_vectors(nvars))
    return MonomialModule(nvars, ThresholdSystem(nvars, units), OMEGA)


def multiplier_module(a: MonomialIdeal, lam) -> MonomialModule:
    """Monomials in the interior of lam * Newt(a); a submodule of omega_R.

    For lam > 0, <w, m> >= floor(lam * c) + 1 per Newton facet (w, c):
    scaling by lam keeps the facets irredundant.  For lam = 0 the scaled
    polyhedron is the orthant, so the module is omega_R.  Memoised on
    ``(a, p, q)``, lam = p/q in lowest terms, once lam is checked: a float
    equal to a cached Fraction is still refused.
    """
    lam = as_exponent(lam)
    return _multiplier_module(a, lam.numerator, lam.denominator)


@lru_cache(maxsize=CACHE_SIZE)
def _multiplier_module(a: MonomialIdeal, p: int, q: int) -> MonomialModule:
    # the module at p/q >= 0 in lowest terms; every exponent <= 0 is keyed (0, 1)
    if p == 0:
        return omega_module(a.nvars)
    lam = Fraction(p, q)
    constraints = tuple(
        (h.normal, interior_threshold(lam, h.threshold)) for h in newton(a).facets
    )
    return MonomialModule(a.nvars, ThresholdSystem(a.nvars, constraints), OMEGA)


def multiplier_ideal(a: MonomialIdeal, lam) -> MonomialModule:
    """Multiplier ideal: m is in it iff m + (1,..,1) lies in the module version."""
    module = multiplier_module(a, lam)
    shifted = tuple(
        (w, t - sum(w)) for w, t in module.system.constraints
    )
    return MonomialModule(a.nvars, ThresholdSystem(a.nvars, shifted), RING)


def systems_equal(s1: ThresholdSystem, s2: ThresholdSystem, box) -> bool:
    """Set equality of two lattice systems: at once when the canonical
    systems coincide, otherwise by comparing their runs inside the box."""
    if s1.rank != s2.rank:
        raise DomainError("mismatched rank")
    if s1 == s2:
        return True
    return lattice_runs(s1, box) == lattice_runs(s2, box)


def module_contains(big: MonomialModule, small: MonomialModule, box) -> bool:
    """True iff every lattice point of ``small`` inside the box lies in
    ``big``: each run of ``small`` must lie in the run of ``big`` on the
    same line."""
    if big.nvars != small.nvars:
        raise DomainError("mismatched rank")
    if big.ambient != small.ambient:
        raise DomainError("mismatched ambient")
    lines = {prefix: range(lo, hi + 1) for prefix, lo, hi in lattice_runs(big.system, box)}
    runs = lattice_runs(small.system, box)
    return all(lo in lines.get(p, ()) and hi in lines[p] for p, lo, hi in runs)


def default_box(a: MonomialIdeal, lam_max):
    """Verification box: covers the minimal generators of every module
    compared at exponents up to lam_max."""
    lam_max = as_fraction(lam_max)
    return _default_box(a, lam_max.numerator, lam_max.denominator)


def _default_box(a: MonomialIdeal, p: int, q: int):
    # default_box at lam_max = p/q, q > 0, in ints: ceil(p/q) = -(-p // q)
    return cube(a.nvars, 0, a.max_entry() * (-(-p // q) + 2) + 2)


class JumpReport(Record):
    """Jumping numbers of a within (0, lam_max], with a box to reproduce them."""

    __slots__ = ("ideal", "lam_max", "jumps", "candidates", "box", "warnings")

    def __init__(self, ideal: MonomialIdeal, lam_max: Fraction, jumps, candidates, box, warnings):
        self._set(ideal, lam_max, jumps, candidates, box, warnings)

    def to_json(self):
        return {
            "ideal": self.ideal.to_json(),
            "lambdaMax": frac_str(self.lam_max),
            "jumps": [frac_str(j) for j in self.jumps],
            "candidates": [frac_str(c) for c in self.candidates],
            "box": [list(b) for b in self.box],
            "warnings": list(self.warnings),
        }


def jumping_numbers(a: MonomialIdeal, lam_max) -> JumpReport:
    """Values in (0, lam_max] where the multiplier module strictly shrinks.

    Candidates are t / c_j over the positive Newton facet thresholds c_j.
    Just below lam the module (the interior of lam Newt(a), Howald 2001) is
    {m >= 1, <w_j, m> >= lam c_j}, at lam {m >= 1, <w_j, m> > lam c_j}: lam
    jumps iff lam = nu(m) := min_j <w_j, m> / c_j for some m >= 1.  For a
    facet (w, c), the m with nu(m) = <w, m> / c <= lam_max are the points of
    {<c v - d w, m> >= 0 per facet (v, d), <w, m> <= floor(lam_max c)}; one
    run listing gives their values <w, m>.  Each m_i with w_i > 0 lies in
    [1, floor(lam_max c) // w_i]; any other m_i can be fixed at the largest
    ceil(lam_max d), which keeps <w, m> and meets each row (v, d) it enters
    (all normals are nonnegative).  The guard is checked first, on those
    boxes and on the candidate count.  The ideal version has the same jumps
    (shifting by (1,..,1) is a bijection).  The reported box only lets an
    enumeration reproduce the result; ``warnings`` is always empty.
    """
    lam_max = as_fraction(lam_max)
    if lam_max <= 0:
        raise DomainError("lambda_max must be positive")
    facets = newton_positive_facets(a)
    thresholds = sorted({c for _, c in facets})
    top = max((math.ceil(lam_max * d) for _, d in facets), default=1)
    boxes = [tuple((1, math.floor(lam_max * c) // e) if e else (top, top) for e in w)
             for w, c in facets]
    volume = max((math.prod(hi - lo + 1 for lo, hi in box) for box in boxes), default=0)
    count, guard = sum(math.floor(lam_max * c) for c in thresholds), point_guard()
    if volume > guard or count > guard:
        raise ResourceLimitError(f"jump box volume {volume} or candidate count "
                                 f"{count} exceeds enumeration guard {guard}")
    candidates = tuple(sorted({Fraction(t, c) for c in thresholds
                               for t in range(1, math.floor(lam_max * c) + 1)}))
    jumps = set()
    for (w, c), box in zip(facets, boxes):
        bound, step = math.floor(lam_max * c), w[-1]
        if bound >= sum(w):
            rows = [(tuple(c * x - d * y for x, y in zip(v, w)), 0) for v, d in facets]
            rows.append((tuple(-e for e in w), -bound))
            hit = bytearray(bound + 1)
            for prefix, lo, hi in lattice_runs(ThresholdSystem(a.nvars, rows), box):
                # the run's values of <w, m>: one, or n of them step apart from t
                t, n = dot(w[:-1], prefix) + step * lo, hi - lo + 1 if step else 1
                hit[t:t + step * (n - 1) + 1:step or 1] = b"\1" * n
            jumps.update(Fraction(t, c) for t in range(bound + 1) if hit[t])
    return JumpReport(a, lam_max, tuple(sorted(jumps)), candidates, default_box(a, lam_max), ())


def lct(a: MonomialIdeal) -> Fraction:
    """Log canonical threshold: smallest lam with multiplier ideal != R.

    Computed two ways, which must agree: the facet formula
    min <(1,..,1), w_j> / c_j, and the multiplier ideal, which only shrinks as
    lam grows and changes only at candidates t / c_j: it must lose the zero
    exponent (be != R) at the formula and keep it at the largest candidate below.
    """
    if a.is_unit:
        raise DomainError("lct undefined for unit ideal")
    facets = newton_positive_facets(a)
    assert facets, "proper monomial ideal must have a positive Newton facet"
    formula = min(Fraction(sum(w), c) for w, c in facets)
    below = max(Fraction(math.ceil(formula * c) - 1, c) for _, c in facets)
    if multiplier_ideal(a, formula).is_full_ring() or (
            below > 0 and not multiplier_ideal(a, below).is_full_ring()):
        raise AssertionError(f"lct computations disagree: formula {formula}, below {below}")
    return formula
