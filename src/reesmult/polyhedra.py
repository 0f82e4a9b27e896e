"""Exact rational polyhedral kernel.

Cones, dual cones, polyhedra of the shape ``conv(points) + recession
cone``, irredundant facet systems, threshold systems over the integer
lattice with the strict-interior threshold ``interior_threshold``, and
their points inside a box, counted, or listed as one interval per line
and compared in that form.

Everything runs on unbounded integers.  A halfspace threshold or a
polyhedron vertex entry is an ``int`` when it is integral and a
:class:`fractions.Fraction` in lowest terms only when it is not, so every
Newton facet and vertex is integral end to end.  Floats are rejected at
the boundary.  Strictness of interior conditions is the whole
content of the formulas computed downstream, so no rounding is tolerated
anywhere.

All values are immutable and every operation is a pure function of its
inputs; concurrent use from multiple threads is safe.

One exact integer double description, ``_dd``, gives every ray and facet
list, and every lineality basis.  Its zero sets decide which rows are
facets and whether a cone is full-dimensional or pointed (``_facet_rows``);
no rank is computed and no row is reduced over the rationals.
"""

from __future__ import annotations

import math
import operator
import os
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product

from .errors import DomainError, ParseError, ResourceLimitError
from .serialize import Record, frac_str, parse_int, parse_rational

IntVec = tuple

DEFAULT_POINT_GUARD = 10 ** 8
POINT_GUARD_ENV = "REESMULT_MAX_POINTS"

# A dual cone can have exponentially many rays in its rank; the artifact
# is desk-scale by design and refuses to dualize anything larger.
MAX_DUAL_RANK = 12

# The double description adjacency test is cubic in the number of rays;
# a run whose intermediate ray list outgrows this stops instead of hanging.
MAX_DD_RAYS = 5000

# lru_cache bound: room for the ideals, cones and counts one computation
# reuses, while a long-running process keeps finitely many results alive
CACHE_SIZE = 256


def as_fraction(value) -> Fraction:
    """Coerce to an exact rational.  Floats are refused, always."""
    if isinstance(value, float):
        raise DomainError("no floating point allowed: pass int, Fraction or 'p/q'")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise DomainError(f"not an exact rational: {value!r}")


def as_rational(value):
    """Coerce to an exact rational in canonical form: an ``int`` when it is
    integral, else a ``Fraction`` in lowest terms.  Floats are refused."""
    if type(value) is int:
        return value
    value = as_fraction(value)
    return value.numerator if value.denominator == 1 else value


def as_exponent(lam) -> Fraction:
    """``as_fraction(lam)``, refused when negative: a multiplier exponent."""
    lam = as_fraction(lam)
    if lam < 0:
        raise DomainError("lambda must be nonnegative")
    return lam


def interior_threshold(lam, c) -> int:
    """floor(lam * c) + 1, the least integer above lam * c, for a rational
    lam (int or Fraction) and an int or Fraction c; exact, no Fraction built
    for an int c."""
    return lam.numerator * c // lam.denominator + 1


def dot(u, v):
    return sum(map(operator.mul, u, v))


def as_int(value) -> int:
    """``value`` as an int (a bool as 0 or 1); floats and fractions are refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"not an integer: {value!r}") from None


def as_ints(v) -> IntVec:
    """The ints of ``v`` as a tuple; floats and fractions are refused, never truncated."""
    try:
        return tuple(map(operator.index, v))
    except TypeError:
        raise DomainError(f"not a vector of integers: {v!r}") from None


def as_range(bounds):
    """``bounds`` as a pair (lo, hi) of ints; lo > hi is the empty range."""
    bounds = as_ints(bounds)
    if len(bounds) != 2:
        raise DomainError("range must be two integers (lo, hi)")
    return bounds


def as_box(box, rank: int):
    """``box`` as ``rank`` ranges (lo, hi) with lo <= hi; anything else is refused."""
    bounds = tuple(map(as_range, box))
    if len(bounds) != rank:
        raise DomainError("box length does not match system rank")
    if any(lo > hi for lo, hi in bounds):
        raise DomainError("box lower bound exceeds upper bound")
    return bounds


def primitive(v) -> IntVec:
    """Divide an integer vector by the gcd of its entries, keeping direction."""
    vec = as_ints(v)
    g = math.gcd(*vec)
    if g == 0:
        raise DomainError("zero vector has no primitive form")
    return vec if g == 1 else tuple([e // g for e in vec])


@lru_cache(maxsize=None)
def _unit_tuple(rank):
    return tuple(tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank))


def unit_vectors(rank):
    """The unit vectors e_1, ..., e_rank, in that order, as a new list."""
    return list(_unit_tuple(rank))


def _neg(v):
    return tuple(-e for e in v)


def _ceil_div(a: int, b: int) -> int:
    # b > 0
    return -((-a) // b)


# ---------------------------------------------------------------------------
# Double description: the one facet and ray mechanism.
# ---------------------------------------------------------------------------


def _combine(a, u, b, v):
    """Primitive form of the nonzero integer vector a*u + b*v."""
    w = [a * x + b * y for x, y in zip(u, v)]
    g = math.gcd(*w)
    if g == 0:
        raise DomainError("zero vector has no primitive form")
    return tuple(w) if g == 1 else tuple([e // g for e in w])


def _dd(rows, rank):
    """Lineality basis and extreme rays of {x : <a, x> >= 0 for a in rows}.

    Double description in exact integers (Motzkin, Raiffa, Thompson and
    Thrall 1953; Fukuda and Prodon 1996), from lin(e_1..e_rank), one row
    at a time.  A row nonzero on the lineality space turns a lineality
    vector into a ray and moves every other vector onto its hyperplane,
    keeping a vector the row vanishes on as it is; any other row joins
    each ray on its negative side to each adjacent ray on its positive
    side, then drops the negative ones.  Adjacency is the combinatorial
    test on zero-set bitmasks over the rows so far: no third ray vanishes
    on every row both vanish on.  Rays are primitive and unique modulo the
    (non-unique) lineality basis.  Returns the lineality basis, the rays
    and, per ray, the bitmask of the rows that vanish on it.
    """
    lin = unit_vectors(rank)
    rays = []  # (ray, bitmask of the rows added so far that vanish on it)
    for i, a in enumerate(rows):
        bit = 1 << i
        pairs = [dot(a, l) for l in lin]
        k = next((j for j, d in enumerate(pairs) if d), None)
        if k is not None:
            pivot, s = lin.pop(k), pairs.pop(k)
            if s < 0:
                pivot, s = _neg(pivot), -s
            # move everything else onto <a, x> = 0 along the pivot; what is on it stays
            lin = [_combine(s, l, -d, pivot) if d else l for l, d in zip(lin, pairs)]
            rays = [(_combine(s, r, -d, pivot) if (d := dot(a, r)) else r, z | bit) for r, z in rays]
            rays.append((pivot, bit - 1))
            continue
        pos, neg, kept = [], [], []
        for r, z in rays:
            v = dot(a, r)
            if v > 0:
                pos.append((r, z, v))
                kept.append((r, z))
            elif v < 0:
                neg.append((r, z, v))
            else:
                kept.append((r, z | bit))
        # a 2-face of the pointed part lies on rows of rank dim - 2
        need = rank - len(lin) - 2
        masks = [z for _, z in rays]
        for p, zp, vp in pos:
            for n, zn, vn in neg:
                z = zp & zn
                if z.bit_count() < need or any(
                    z & zr == z and zr != zp and zr != zn for zr in masks
                ):
                    continue
                kept.append((_combine(vp, n, -vn, p), z | bit))
                if len(kept) > MAX_DD_RAYS:
                    raise ResourceLimitError(f"double description exceeds {MAX_DD_RAYS} rays")
        rays = kept
    return lin, [r for r, _ in rays], [z for _, z in rays]


def _facet_rows(rows, rank, zeros=None):
    """Indices of the facet rows of {x : <a, x> >= 0 for a in rows}, rows
    nonzero, or None when that cone is not full-dimensional; read off the
    zero sets of ``_dd`` (given as ``zeros``, or run here).  A face is the
    lineality plus the rays it holds.  A row vanishing on every ray vanishes
    on the cone; without one, the rays off each row's hyperplane sum to an
    interior point.  The facets are then the maximal proper faces, the rows
    whose ray set no row's strictly contains.
    """
    if zeros is None:
        _, _, zeros = _dd(rows, rank)
    faces = [sum(1 << j for j, z in enumerate(zeros) if z >> i & 1) for i in range(len(rows))]
    if (1 << len(zeros)) - 1 in faces:
        return None
    return [i for i, f in enumerate(faces) if not any(f & g == f and f != g for g in faces)]


# ---------------------------------------------------------------------------
# Halfspaces, cones, polyhedra.
# ---------------------------------------------------------------------------


class HalfSpace(Record):
    """Closed halfspace {x : <normal, x> >= threshold}, primitive integer
    normal; the threshold is canonical (see ``as_rational``), so equal
    halfspaces are equal records whatever rational type was passed."""

    __slots__ = ("normal", "threshold")

    def __init__(self, normal: IntVec, threshold):
        normal = as_ints(normal)
        threshold = as_rational(threshold)
        g = math.gcd(*normal)
        if g == 0:
            raise DomainError("zero vector has no primitive form")
        if g > 1:
            normal = tuple([e // g for e in normal])
            threshold = as_rational(Fraction(threshold, g))
        self._set(normal, threshold)

    def to_json(self):
        return {"normal": list(self.normal), "threshold": frac_str(self.threshold)}


def _sorted_facets(facets):
    return tuple(sorted(facets, key=lambda h: (h.normal, h.threshold)))


class Cone(Record):
    """Rational polyhedral cone: generating rays, optional facet halfspaces.

    ``rays`` is a generating set; for non-pointed cones it contains both
    directions of each lineality generator.  ``facets`` (all thresholds 0)
    are an H-representation when present.
    """

    __slots__ = ("rank", "rays", "facets")

    def __init__(self, rank: int, rays=(), facets=None):
        rank = as_int(rank)
        if rank < 1:
            raise DomainError("rank must be positive")
        rays = tuple(sorted({primitive(r) for r in rays}))
        for r in rays:
            if len(r) != rank:
                raise DomainError("ray length does not match rank")
        if facets is not None:
            facets = _sorted_facets(facets)
            for h in facets:
                if h.threshold != 0:
                    raise DomainError("cone facets must have threshold 0")
                for r in rays:
                    if dot(h.normal, r) < 0:
                        raise DomainError("cone ray violates a declared facet")
        self._set(rank, rays, facets)

    def to_json(self):
        data = {"rank": self.rank, "rays": [list(r) for r in self.rays]}
        if self.facets is not None:
            data["facets"] = [h.to_json() for h in self.facets]
        return data


@lru_cache(maxsize=None)
def orthant(rank: int) -> Cone:
    units = unit_vectors(rank)
    return Cone(rank, tuple(units), tuple(HalfSpace(u, 0) for u in units))


def _lineality_basis(lin):
    """The canonical basis of the span of ``lin``, a ``_dd`` lineality basis.

    Per free column f, a last nonzero position in the span, the primitive
    vector of the span that is 0 on every other free column, first nonzero
    entry positive; ordered by f.  For the lineality space of a cone given
    by rows, these are the kernel vectors a reduced row echelon form of the
    rows yields.  Elimination runs right to left in integers: every step is
    a primitive combination of two rows.
    """
    rows = list(lin)
    for r in range(len(rows)):
        # the rows below r vanish right of the free column that r takes
        col, k = max((max(j for j, e in enumerate(row) if e), i)
                     for i, row in enumerate(rows) if i >= r)
        rows[r], rows[k] = rows[k], rows[r]
        p = rows[r]
        rows = [_combine(p[col], row, -row[col], p) if i != r and row[col] else row
                for i, row in enumerate(rows)]
    rows = [row if next(e for e in row if e) > 0 else _neg(row) for row in rows]
    return rows[::-1]


def homogeneous_rays(normals, rank):
    """Generators of {x : <a, x> >= 0 for a in normals}.

    The extreme rays of one ``_dd`` when the cone is pointed.  Otherwise
    the lineality directions are the ``_lineality_basis`` vectors as +/-
    pairs, and the pointed part's extreme rays are those of the cone cut
    down to the orthogonal complement of the lineality space.
    """
    lin, rays, _ = _dd(normals, rank)
    if lin:
        basis = _lineality_basis(lin)
        pairs = basis + [_neg(l) for l in basis]
        _, rays, _ = _dd(list(normals) + pairs, rank)
        rays = pairs + rays
    return tuple(sorted(set(rays)))


def dual_cone(c: Cone) -> Cone:
    """Dual cone {m : <m, v> >= 0 for all v in c}, with rays and irredundant
    facets; one ``_dd`` of c's rays gives both unless the dual has lineality."""
    if c.rank > MAX_DUAL_RANK:
        raise ResourceLimitError(f"rank {c.rank} exceeds dualization guard {MAX_DUAL_RANK}")
    kept = c.rays  # sorted, unique and primitive since Cone.__init__
    lin, rays, zeros = _dd(kept, c.rank)
    facets = _facet_rows(kept, c.rank, zeros)
    if facets is not None:
        # full-dimensional: the facets are unique
        kept = [kept[i] for i in facets]
    else:
        # lower-dimensional: the minimal list is not unique; sweep first to last,
        # dropping a row when the cone of the remaining rows already implies it
        i = 0
        while i < len(kept):
            row, others = kept[i], kept[:i] + kept[i + 1:]
            ls, rs, _ = _dd(others, c.rank)
            if all(dot(row, l) == 0 for l in ls) and all(dot(row, r) >= 0 for r in rs):
                kept = others
            else:
                i += 1
    rays = homogeneous_rays(kept, c.rank) if lin else rays
    return Cone(c.rank, rays, tuple(HalfSpace(n, 0) for n in kept))


def _rational_vector(v):
    """``v`` with each entry canonical (see ``as_rational``); ints pass as they are."""
    try:
        return as_ints(v)
    except DomainError:
        return tuple(map(as_rational, v))


class Polyhedron(Record):
    """Rational polyhedron conv(vertices) + recession cone, in facet form.

    ``irredundant`` is set only by constructors that certify the facet
    list minimal (and the polyhedron full-dimensional).
    """

    __slots__ = ("rank", "facets", "vertices", "recession", "irredundant")

    def __init__(self, rank: int, facets, vertices=None, recession: Cone = None,
                 irredundant: bool = False):
        rank = as_int(rank)
        if rank < 1:
            raise DomainError("rank must be positive")
        facets = _sorted_facets(facets)
        if vertices is not None:
            vertices = tuple(map(_rational_vector, vertices))
            for v in vertices:
                for h in facets:
                    if dot(h.normal, v) < h.threshold:
                        raise DomainError("declared vertex violates a facet")
        if recession is not None:
            for r in recession.rays:
                for h in facets:
                    if dot(h.normal, r) < 0:
                        raise DomainError("recession ray violates a facet direction")
        self._set(rank, facets, vertices, recession, irredundant)

    def to_json(self):
        data = {
            "rank": self.rank,
            "facets": [h.to_json() for h in self.facets],
        }
        if self.vertices is not None:
            data["vertices"] = [[frac_str(e) for e in v] for v in self.vertices]
        return data


def irredundant_facets(p: Polyhedron) -> Polyhedron:
    """Minimal facet list describing the same rational point set.

    Redundancy removal must precede strictification: strictifying a
    redundant inequality is unsound for interior computations.
    """
    if p.irredundant:
        return p
    facets = _sorted_facets(set(p.facets))
    # the cone {(x, s) : <w, x> >= c s per facet, s >= 0} is full-dimensional
    # iff p is, and then its facets other than s >= 0 are exactly p's
    cone = [tuple(e * h.threshold.denominator for e in h.normal) + (-h.threshold.numerator,)
            for h in facets]
    rows = _facet_rows(cone + unit_vectors(p.rank + 1)[-1:], p.rank + 1)
    if rows is None:
        raise DomainError("interior undefined: not full-dimensional")
    kept = tuple(facets[i] for i in rows if i < len(facets))
    return Polyhedron(p.rank, kept, p.vertices, p.recession, irredundant=True)


def points_plus_cone(points, recession: Cone, rank: int) -> Polyhedron:
    """Facet description of a full-dimensional conv(points) + recession.

    The facets are the extreme rays (w, c) with w != 0 of the cone of
    valid inequalities {(w, c) : <w, r> >= 0 per recession ray r,
    <w, p> >= c per point p}, which is pointed exactly when the sum is
    full-dimensional.  Points are integer vectors; all thresholds come
    out integral because every facet contains a generating point.
    """
    pts = sorted({as_ints(p) for p in points})
    if not pts:
        raise DomainError("no generating points")
    rows = [r + (0,) for r in recession.rays] + [p + (-1,) for p in pts]
    lin, rays, _ = _dd(rows, rank + 1)
    if lin:
        raise DomainError("interior undefined: not full-dimensional")
    facets = tuple(HalfSpace(r[:-1], r[-1]) for r in rays if any(r[:-1]))
    return Polyhedron(rank, facets, vertices=pts, recession=recession, irredundant=True)


def newton_from_points(points, rank: int) -> Polyhedron:
    """conv(points) + nonnegative orthant, with irredundant integer facets."""
    pts = list(points)
    if not pts:
        raise DomainError("zero ideal has no Newton polyhedron")
    for p in pts:
        if len(p) != rank:
            raise DomainError("point length does not match rank")
        if any(e < 0 for e in p):
            raise DomainError("Newton polyhedron points must be nonnegative")
    return points_plus_cone(pts, orthant(rank), rank)


# ---------------------------------------------------------------------------
# Threshold systems over the integer lattice.
# ---------------------------------------------------------------------------


class ThresholdSystem(Record):
    """Finite conjunction of <normal, m> >= t with integer t, over Z^rank.

    Constraints are canonicalized: primitive normals (thresholds adjusted
    by exact ceiling division, sound over the lattice), one constraint
    per normal (the strongest), sorted.  A constraint with zero normal
    and positive threshold marks the whole system infeasible.
    """

    __slots__ = ("rank", "constraints", "infeasible")

    def __init__(self, rank: int, constraints=(), infeasible: bool = False):
        rank = as_int(rank)
        if rank < 1:
            raise DomainError("rank must be positive")
        canon = {}
        infeasible = bool(infeasible)
        for normal, t in constraints:
            normal, t = as_ints(normal), t if type(t) is int else as_ints((t,))[0]
            if len(normal) != rank:
                raise DomainError("constraint length does not match rank")
            g = math.gcd(*normal)
            if g != 1:
                if g == 0:
                    infeasible = infeasible or t > 0
                    continue
                normal = tuple([e // g for e in normal])
                t = _ceil_div(t, g)
            if canon.get(normal, t) <= t:
                canon[normal] = t
        self._set(rank, tuple(sorted(canon.items())), infeasible)

    def satisfies(self, m) -> bool:
        if self.infeasible:
            return False
        return all(dot(w, m) >= t for w, t in self.constraints)

    def substitute_last(self, k: int) -> "ThresholdSystem":
        """Fix the last coordinate to k; constraints drop to rank - 1.  Memoised
        on (system, k) once k is checked: the level systems of a graded module
        depend on lambda only through floor(lambda c) + 1, so slices recur."""
        if self.rank < 2:
            raise DomainError("cannot substitute in a rank-1 system")
        return _slice(self, as_int(k))

    def normals(self):
        return tuple(w for w, _ in self.constraints)

    def reduced(self) -> "ThresholdSystem":
        """The same lattice set without each row <w, m> >= t implied by the unit
        rows m_i >= u_i (w >= 0 not a unit, u_i present where w_i > 0, t <= sum
        w_i u_i).  Equal reduced systems cut out equal sets; unequal prove nothing.
        ``compare_systems`` compares their ``_reduced_fields``, building neither."""
        return ThresholdSystem(*self._reduced_fields())

    def _reduced_fields(self):
        """The fields of ``reduced()``, its rows canonical already: equal fields, equal systems."""
        units = {w.index(1): t for w, t in self.constraints if min(w) >= 0 and sum(w) == 1}
        kept = [(w, t) for w, t in self.constraints if min(w) < 0 or sum(w) == 1
                or any(e and i not in units for i, e in enumerate(w))
                or t > sum(e * units[i] for i, e in enumerate(w) if e)]
        return self.rank, kept, self.infeasible

    def to_json(self):
        data = {
            "rank": self.rank,
            "facets": [
                {"normal": list(w), "threshold": frac_str(t)} for w, t in self.constraints
            ],
        }
        if self.infeasible:
            data["infeasible"] = True
        return data


@lru_cache(maxsize=CACHE_SIZE)
def _slice(system: ThresholdSystem, k: int) -> ThresholdSystem:
    rows = tuple((w[:-1], t - w[-1] * k) for w, t in system.constraints)
    return ThresholdSystem(system.rank - 1, rows, system.infeasible)


# ---------------------------------------------------------------------------
# Lattice-point enumeration.
# ---------------------------------------------------------------------------


def point_guard():
    """The box-volume guard: REESMULT_MAX_POINTS, a positive integer in ASCII
    digits (unset or empty means the default 10**8)."""
    env = os.environ.get(POINT_GUARD_ENV)
    if not env:
        return DEFAULT_POINT_GUARD
    try:
        guard = parse_int(env)
    except ValueError:
        guard = 0
    if guard < 1:
        raise ParseError(f"{POINT_GUARD_ENV} must be a positive integer, got {env!r}")
    return guard


def _narrow(lo, hi, a, r):
    """The part of [lo, hi] where a * v >= r (empty as lo > hi)."""
    if a > 0:
        return max(lo, _ceil_div(r, a)), hi
    if a < 0:
        return lo, min(hi, r // a)
    return (lo, hi) if r <= 0 else (hi + 1, hi)


class _Bounds(tuple):
    """A box that ``checked_box`` has passed, and passes again at its rank."""


def checked_box(box, rank: int, guard=None):
    """``as_box(box, rank)`` within the volume guard (``point_guard()`` if None)."""
    if type(box) is _Bounds and len(box) == rank:
        return box
    bounds = as_box(box, rank)
    volume = math.prod(hi - lo + 1 for lo, hi in bounds)
    guard = point_guard() if guard is None else guard
    if volume > guard:
        raise ResourceLimitError(f"box volume {volume} exceeds enumeration guard {guard}")
    return _Bounds(bounds)


def _walk(system: ThresholdSystem, bounds: _Bounds, count: bool):
    """The one lattice walk on checked bounds: ``lattice_runs``, or ``lattice_count``.

    A row with one nonzero entry, e_i or -e_i as normals are primitive, bounds
    one coordinate: it narrows the box and leaves the row list, after the volume
    guard has read the box as given.  If no row is left (always so at rank 1),
    the narrowed box is the set.  Otherwise the walk fixes the coordinates
    before the last in order; ``rs[ci]`` is what row ci still needs from the
    free coordinates, and ``smax``, the most they can add to its row in the box
    (a suffix sum), narrows each coordinate to the values whose subtree can meet
    the set.  Count mode walks the same recursion, adds up each line's
    ``hi - lo + 1`` where list mode keeps its run, and memoises each subtree
    within this call: its count depends only on its depth and ``rs``, not on the
    prefix.  A residual at most ``smin``, the least the free coordinates can
    add, means the row holds on the whole subtree, so the key holds None for it.
    That memo ends with the call; ``lattice_count`` keeps whole counts across
    calls."""
    if system.infeasible:
        return 0 if count else []
    last = system.rank - 1
    bounds, ws, ts = list(bounds), [], []
    for w, t in system.constraints:
        if w.count(0) == last:
            i = w.index(1) if 1 in w else w.index(-1)
            bounds[i] = _narrow(*bounds[i], w[i], t)
        else:
            ws.append(w)
            ts.append(t)
    widths = [hi - lo + 1 for lo, hi in bounds]
    if min(widths) < 1:
        return 0 if count else []
    if not ws:
        return math.prod(widths) if count else [
            (p, *bounds[last]) for p in product(*[range(lo, hi + 1) for lo, hi in bounds[:last]])]
    # smax[ci][d], smin[ci][d]: the most and least coordinates d.. can add to row ci
    back = bounds[::-1]
    smax = [[*accumulate([e * hi if e > 0 else e * lo for e, (lo, hi) in zip(w[::-1], back)])][::-1]
            for w in ws]
    smin = [[*accumulate([e * lo if e > 0 else e * hi for e, (lo, hi) in zip(w[::-1], back)])][::-1]
            for w in ws]
    runs, memo = [], {}

    def rec(depth, prefix, rs):
        if count:
            key = (depth, *[r if r > s[depth] else None for r, s in zip(rs, smin)])
            if key in memo:
                return memo[key]
        vlo, vhi = bounds[depth]
        if depth < last - 1:
            # the values of this coordinate whose subtree can meet the set
            for w, r, s in zip(ws, rs, smax):
                vlo, vhi = _narrow(vlo, vhi, w[depth], r - s[depth + 1])
            found = 0
            for v in range(vlo, vhi + 1):
                found += rec(depth + 1, prefix + (v,), [r - w[depth] * v for r, w in zip(rs, ws)])
        else:
            # the lines prefix + (v,): a constraint without the last coordinate
            # narrows v, one without this coordinate bounds every line alike,
            # and only the rest bound each line on its own
            (lo, hi), rows = bounds[last], []
            for w, r in zip(ws, rs):
                wd, wl = w[depth], w[last]
                if wl == 0:
                    vlo, vhi = _narrow(vlo, vhi, wd, r)
                elif wd == 0:
                    lo, hi = _narrow(lo, hi, wl, r)
                else:
                    rows.append((wd, wl, r))
            vs = range(vlo, vhi + 1) if lo <= hi else range(0)
            los, his = [lo] * len(vs), [hi] * len(vs)
            for wd, wl, r in rows:
                if wl > 0:
                    los = list(map(max, los, [-((wd * v - r) // wl) for v in vs]))
                else:
                    his = list(map(min, his, [(r - wd * v) // wl for v in vs]))
            if count:
                found = sum(hi - lo + 1 for lo, hi in zip(los, his) if lo <= hi)
            else:
                found = 0
                runs.extend((prefix + (v,), lo, hi) for v, lo, hi in zip(vs, los, his)
                            if lo <= hi)
        if count:
            memo[key] = found
        return found

    found = rec(0, (), ts)
    return found if count else runs


def lattice_runs(system: ThresholdSystem, box):
    """Integer points of the system inside the box as runs ``(prefix, lo, hi)``,
    the points ``prefix + (v,)`` with lo <= v <= hi, one per line along the
    last coordinate that meets the set, in lex order of ``prefix``.

    A constraint bounds v from one side, or tests the prefix alone when its
    last entry is 0, so each line meets the set in one interval, whatever the
    system.  ``box`` is one (lo, hi) pair of integers per coordinate; other
    bounds are refused, never truncated.  The box volume guard
    (``point_guard``) bounds the box as given, not the output; the walk
    then searches the box the unit rows narrow it to (see ``_walk``).
    """
    return _walk(system, checked_box(box, system.rank), count=False)


@lru_cache(maxsize=CACHE_SIZE)
def _count(system: ThresholdSystem, bounds: _Bounds):
    return _walk(system, bounds, count=True)


def lattice_count(system: ThresholdSystem, box):
    """``sum(hi - lo + 1 for _, lo, hi in lattice_runs(system, box))``
    from the same walk, checks and guard, with no run built (see ``_walk``).
    The box is checked on every call, then the count is memoised across calls
    on (system, checked box): level sets recur across lambda, theorems and subjects.
    ``lattice_runs`` is not memoised, as its runs are mutable lists."""
    return _count(system, checked_box(box, system.rank))


def lattice_points(system: ThresholdSystem, box):
    """All integer points of the system inside the box, sorted
    lexicographically: the expansion of ``lattice_runs``."""
    runs = lattice_runs(system, box)
    return [prefix + (v,) for prefix, lo, hi in runs for v in range(lo, hi + 1)]


def compare_runs(runs1, runs2):
    """``(count1, count2, witness)`` of two run lists over one box: the point
    counts and the lex-least point in exactly one set (None if equal), on the
    first line where the lists differ: the ``lo`` of a line only one list has,
    else the smaller ``lo`` if they differ, else one past the smaller ``hi``.
    """
    counts = [sum(hi - lo + 1 for _, lo, hi in runs) for runs in (runs1, runs2)]
    i = next((i for i, (r1, r2) in enumerate(zip(runs1, runs2)) if r1 != r2),
             min(len(runs1), len(runs2)))
    first = runs1[i:i + 1] + runs2[i:i + 1]
    if not first:
        return (*counts, None)
    if len(first) == 1 or first[0][0] != first[1][0]:
        prefix, lo, _ = min(first)
        return (*counts, prefix + (lo,))
    (prefix, lo1, hi1), (_, lo2, hi2) = first
    return (*counts, prefix + (min(lo1, lo2) if lo1 != lo2 else min(hi1, hi2) + 1,))


def compare_systems(lhs: ThresholdSystem, rhs: ThresholdSystem, box):
    """``compare_runs`` of the two systems' runs in the box.  Equal systems,
    or equal reduced systems, cut out equal sets: then ``lhs`` is only
    counted, nothing listed.  Reduced systems are compared by their fields."""
    box = checked_box(box, lhs.rank)
    if lhs == rhs or lhs._reduced_fields() == rhs._reduced_fields():
        count = lattice_count(lhs, box)
        return count, count, None
    return compare_runs(lattice_runs(lhs, box), lattice_runs(rhs, box))


def cube(rank: int, lo: int, hi: int):
    return tuple((lo, hi) for _ in range(rank))
