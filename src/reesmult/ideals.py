"""Monomial ideals over a polynomial ring.

Newton polyhedra, powers, integral closure and normality, multiplier
ideals and multiplier modules (exact lattice conditions on the scaled
Newton polyhedron's interior, read off its facets), log canonical
threshold, and jumping numbers decided exactly on the threshold systems.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, ResourceLimitError
from .polyhedra import (
    Polyhedron,
    ThresholdSystem,
    as_fraction,
    as_ints,
    cube,
    interior_threshold,
    lattice_points,
    lattice_runs,
    newton_from_points,
    point_guard,
    unit_vectors,
)
from .serialize import Record, frac_str

OMEGA = "OMEGA"
RING = "RING"

# lru_cache bound: room for the ideals and cones one computation reuses,
# while a long-running process keeps finitely many results alive
CACHE_SIZE = 256


class MonomialIdeal(Record):
    """Finitely many minimal monomial generators, identified by exponents.

    Generators are divisibility-minimal and sorted; the zero ideal is
    excluded.  The unit ideal (exponent zero) is representable but lies
    outside the usual positive-height hypotheses; callers that care
    check :attr:`is_unit`.
    """

    __slots__ = ("nvars", "generators")

    def __init__(self, nvars: int, generators):
        if nvars < 1:
            raise DomainError("need at least one variable")
        gens = tuple(sorted({as_ints(g) for g in generators}))
        if not gens:
            raise DomainError("zero ideal")
        for g in gens:
            if len(g) != nvars:
                raise DomainError("generator length does not match nvars")
            if any(e < 0 for e in g):
                raise DomainError("generator exponents must be nonnegative")
        # a proper divisor precedes its multiples in lex order
        if any(all(a <= b for a, b in zip(h, g)) for i, g in enumerate(gens) for h in gens[:i]):
            raise DomainError("generators not minimal; use minimalize()")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "generators", gens)

    @property
    def is_unit(self) -> bool:
        return self.generators == ((0,) * self.nvars,)

    def contains_exponent(self, m) -> bool:
        return any(all(e >= g for e, g in zip(m, gen)) for gen in self.generators)

    def max_entry(self) -> int:
        return max(e for g in self.generators for e in g)

    def to_json(self):
        return {"nvars": self.nvars, "generators": [list(g) for g in self.generators]}


def minimalize(gens, nvars=None) -> MonomialIdeal:
    """Drop divisible generators and build the ideal; idempotent."""
    gens = [as_ints(g) for g in gens]
    if not gens:
        raise DomainError("zero ideal")
    if nvars is None:
        nvars = len(gens[0])
    kept = []
    # a proper divisor precedes its multiples in lex order, so one pass suffices
    for g in sorted(set(gens)):
        if not any(all(a <= b for a, b in zip(h, g)) for h in kept):
            kept.append(g)
    return MonomialIdeal(nvars, tuple(kept))


@lru_cache(maxsize=CACHE_SIZE)
def newton(a: MonomialIdeal) -> Polyhedron:
    """Newton polyhedron conv(generators) + orthant, irredundant facets."""
    return newton_from_points(a.generators, a.nvars)


def newton_positive_facets(a: MonomialIdeal):
    """(normal, threshold) per Newton facet with positive integer threshold."""
    return [(h.normal, h.threshold) for h in newton(a).facets if h.threshold > 0]


def power(a: MonomialIdeal, k: int) -> MonomialIdeal:
    """k-th power: minimalized k-fold sums of generators."""
    if k < 1:
        raise DomainError("power exponent must be positive")
    if k == 1:
        return a
    sums = set()
    for combo in itertools.combinations_with_replacement(a.generators, k):
        sums.add(tuple(sum(es) for es in zip(*combo)))
    return minimalize(sums, a.nvars)


def integral_closure(a: MonomialIdeal) -> MonomialIdeal:
    """Minimal generators of the monomials in Newt(a); extensive, idempotent.

    Minimal lattice points of the Newton polyhedron have coordinates
    bounded by the per-coordinate maxima of the generators, so a finite
    box suffices.  Every other point of a run lies above its first, so
    only the first points are candidates.
    """
    bounds = tuple(
        (0, max(g[i] for g in a.generators)) for i in range(a.nvars)
    )
    system = ThresholdSystem(
        a.nvars,
        tuple((h.normal, h.threshold) for h in newton(a).facets),
    )
    starts = [prefix + (lo,) for prefix, lo, _ in lattice_runs(system, bounds)]
    return minimalize(starts, a.nvars)


def power_runs(a: MonomialIdeal, k: int, box):
    """Runs (as ``lattice_runs`` gives them) of the exponents of a^k, the unit
    ideal for k <= 0, in a box starting at 0.  A line starts at the least last
    exponent of a k-fold generator sum on it or of the lines one step below,
    which lex order visits first; that needs no minimal generators."""
    sums = {(0,) * a.nvars}
    for _ in range(k):
        sums = {tuple(x + y for x, y in zip(s, g)) for s in sums for g in a.generators}
    *head, (_, top) = box
    least = {}
    for s in sums:
        least[s[:-1]] = min(least.get(s[:-1], top + 1), s[-1])
    runs = []
    for p in itertools.product(*(range(hi + 1) for _, hi in head)):
        below = [least[p[:i] + (e - 1,) + p[i + 1:]] for i, e in enumerate(p) if e > 0]
        least[p] = min([least.get(p, top + 1)] + below)
        if least[p] <= top:
            runs.append((p, least[p], top))
    return runs


def first_non_closed_power(a: MonomialIdeal, bound=None):
    """Smallest k <= bound with a^k not integrally closed, or None.

    The lattice points of Newt(a^k) = k Newt(a) are compared with the
    exponents of a^k; both sets are upward closed with minimal points in
    the box of k times the per-coordinate generator maxima.  Closedness of
    the first nvars - 1 powers implies normality, hence the default bound.
    """
    if bound is None:
        bound = max(a.nvars - 1, 1)
    facets = [(h.normal, h.threshold) for h in newton(a).facets]
    for k in range(1, bound + 1):
        box = tuple((0, k * max(g[i] for g in a.generators)) for i in range(a.nvars))
        scaled = ThresholdSystem(a.nvars, tuple((w, k * c) for w, c in facets))
        if lattice_runs(scaled, box) != power_runs(a, k, box):
            return k
    return None


def is_normal(a: MonomialIdeal, bound=None) -> bool:
    """All powers up to the bound integrally closed."""
    return first_non_closed_power(a, bound) is None


class MonomialModule(Record):
    """Monomial submodule of omega_R (all exponents >= 1) or of R (>= 0),
    cut out by a threshold system over the exponent lattice."""

    __slots__ = ("nvars", "system", "ambient")

    def __init__(self, nvars: int, system: ThresholdSystem, ambient: str):
        if ambient not in (OMEGA, RING):
            raise DomainError(f"unknown ambient {ambient!r}")
        if system.rank != nvars:
            raise DomainError("system rank does not match nvars")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "ambient", ambient)

    def points(self, box):
        return lattice_points(self.system, box)

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
    units = tuple((u, 1) for u in unit_vectors(nvars))
    return MonomialModule(nvars, ThresholdSystem(nvars, units), OMEGA)


def multiplier_module(a: MonomialIdeal, lam) -> MonomialModule:
    """Monomials in the interior of lam * Newt(a); a submodule of omega_R.

    For lam > 0, <w, m> >= floor(lam * c) + 1 per Newton facet (w, c):
    scaling by lam keeps the facets irredundant.  For lam = 0 the scaled
    polyhedron is the orthant, so the module is omega_R.
    """
    lam = as_fraction(lam)
    if lam < 0:
        raise DomainError("lambda must be nonnegative")
    if lam == 0:
        return omega_module(a.nvars)
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
    upper = a.max_entry() * (math.ceil(lam_max) + 2) + 2
    return cube(a.nvars, 0, upper)


class JumpReport(Record):
    """Jumping numbers of a within (0, lam_max], with a box to reproduce them."""

    __slots__ = ("ideal", "lam_max", "jumps", "candidates", "box", "warnings")

    def __init__(self, ideal: MonomialIdeal, lam_max: Fraction, jumps, candidates, box, warnings):
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "lam_max", lam_max)
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "warnings", warnings)

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

    Candidates are exactly t / c_j over the positive Newton facet
    thresholds c_j: between consecutive candidates every floor(lam * c_j)
    is constant.  Just below lam the module (the interior of lam Newt(a),
    Howald 2001) is {<w, m> >= ceil(lam * c)}; at lam only the rows with
    lam * c_j an integer rise by one.  So lam jumps iff, for one such row,
    some m >= 1 of the module below has <w_j, m> <= lam * c_j.  There each
    m_i with w_ji > 0 lies in [1, lam * c_j // w_ji], and every other m_i
    can be fixed at the largest threshold, which meets each row it enters
    (all normals are nonnegative): one run listing of that derived box
    decides it on all of Z^n.  The guard is checked first, on the boxes at
    lam_max (the largest) and on the candidate count.  The module and ideal
    versions share the jumps (the diagonal shift is a bijection of lattice
    sets).  The reported box, ``default_box(a, lam_max)``, only lets an
    enumeration reproduce the result; ``warnings`` is always empty.
    """
    lam_max = as_fraction(lam_max)
    if lam_max <= 0:
        raise DomainError("lambda_max must be positive")
    facets = newton_positive_facets(a)
    thresholds = sorted({c for _, c in facets})
    volume = max((math.prod(math.floor(lam_max * c) // e if e else 1 for e in w)
                  for w, c in facets), default=0)
    count, guard = sum(math.floor(lam_max * c) for c in thresholds), point_guard()
    if volume > guard or count > guard:
        raise ResourceLimitError(f"jump box volume {volume} or candidate count "
                                 f"{count} exceeds enumeration guard {guard}")
    candidates = sorted(
        {Fraction(t, c) for c in thresholds for t in range(1, math.floor(lam_max * c) + 1)}
    )
    jumps = []
    for lam in candidates:
        below = [(w, math.ceil(lam * c)) for w, c in facets]
        top = max(t for _, t in below)
        for w, c in facets:
            bound = lam * c
            if bound.denominator == 1 and bound >= sum(w):
                rows = below + [(tuple(-e for e in w), -bound.numerator)]
                box = tuple((1, bound // e) if e else (top, top) for e in w)
                if lattice_runs(ThresholdSystem(a.nvars, rows), box):
                    jumps.append(lam)
                    break
    return JumpReport(a, lam_max, tuple(jumps), tuple(candidates), default_box(a, lam_max), ())


def lct(a: MonomialIdeal) -> Fraction:
    """Log canonical threshold: smallest lam with multiplier ideal != R.

    Computed two ways, which must agree: the facet formula
    min <(1,..,1), w_j> / c_j, and the first candidate at which the zero
    exponent leaves the multiplier ideal.
    """
    if a.is_unit:
        raise DomainError("lct undefined for unit ideal")
    facets = newton_positive_facets(a)
    assert facets, "proper monomial ideal must have a positive Newton facet"
    formula = min(Fraction(sum(w), c) for w, c in facets)
    # cross-check by candidate scan (the multiplier-ideal set is upward
    # closed, so J = R iff it contains the zero exponent)
    candidates = sorted(
        {Fraction(t, c) for _, c in facets for t in range(1, math.floor(formula * c) + 1)}
    )
    first = None
    for cand in candidates:
        if not multiplier_ideal(a, cand).is_full_ring():
            first = cand
            break
    if first is None or first != formula:
        raise AssertionError(
            f"lct computations disagree: formula {formula}, scan {first}"
        )
    return formula
