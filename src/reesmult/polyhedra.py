"""Exact rational polyhedral kernel.

Cones, dual cones, polyhedra of the shape ``conv(points) + recession
cone``, irredundant facet systems, strict-interior threshold systems
over the integer lattice, and bounded lattice-point enumeration.

Everything runs on unbounded integers and :class:`fractions.Fraction`;
floats are rejected at the boundary.  Strictness of interior conditions
is the whole content of the formulas computed downstream, so no rounding
is tolerated anywhere.

All values are immutable and every operation is a pure function of its
inputs; concurrent use from multiple threads is safe.

Every facet list and ray list comes from one exact integer double
description routine, ``_dd``.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ParseError, ResourceLimitError
from .serialize import frac_str, parse_rational

IntVec = tuple

DEFAULT_POINT_GUARD = 10 ** 8
POINT_GUARD_ENV = "REESMULT_MAX_POINTS"

# A dual cone can have exponentially many rays in its rank; the artifact
# is desk-scale by design and refuses to dualize anything larger.
MAX_DUAL_RANK = 12

# The double description adjacency test is cubic in the number of rays;
# a run whose intermediate ray list outgrows this stops instead of hanging.
MAX_DD_RAYS = 5000


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


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def primitive(v) -> IntVec:
    """Divide an integer vector by the gcd of its entries, keeping direction."""
    vec = tuple(int(e) for e in v)
    g = math.gcd(*(abs(e) for e in vec)) if vec else 0
    if g == 0:
        raise DomainError("zero vector has no primitive form")
    if g == 1:
        return vec
    return tuple(e // g for e in vec)


def _unit(rank, i):
    return tuple(1 if j == i else 0 for j in range(rank))


def _neg(v):
    return tuple(-e for e in v)


def _ceil_div(a: int, b: int) -> int:
    # b > 0
    return -((-a) // b)


# ---------------------------------------------------------------------------
# Exact linear algebra (row reduction over Fraction).
# ---------------------------------------------------------------------------


def _rref(rows):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = [[Fraction(e) for e in row] for row in rows]
    if not m:
        return m, []
    width = len(m[0])
    pivots = []
    r = 0
    for col in range(width):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][col]
        m[r] = [e / inv for e in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m, pivots


def matrix_rank(rows) -> int:
    if not rows:
        return 0
    return len(_rref(rows)[1])


def kernel_basis(rows, rank):
    """Primitive integer basis of {x : <r, x> = 0 for every row r}."""
    if not rows:
        return [_unit(rank, i) for i in range(rank)]
    m, pivots = _rref(rows)
    free = [c for c in range(rank) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * rank
        vec[f] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -m[i][f]
        scale = math.lcm(*(e.denominator for e in vec))
        ints = [int(e * scale) for e in vec]
        prim = primitive(ints)
        for e in prim:
            if e != 0:
                if e < 0:
                    prim = _neg(prim)
                break
        basis.append(prim)
    return basis


# ---------------------------------------------------------------------------
# Double description: the one facet and ray mechanism.
# ---------------------------------------------------------------------------


def _combine(a, u, b, v):
    """Primitive form of the nonzero integer vector a*u + b*v."""
    return primitive([a * x + b * y for x, y in zip(u, v)])


def _dd(rows, rank):
    """Lineality basis and extreme rays of {x : <a, x> >= 0 for a in rows}.

    Double description in exact integers (Motzkin, Raiffa, Thompson and
    Thrall 1953; Fukuda and Prodon 1996), from lin(e_1..e_rank), one row
    at a time.  A row nonzero on the lineality space turns a lineality
    vector into a ray; any other row joins each ray on its negative side
    to each adjacent ray on its positive side, then drops the negative
    ones.  Adjacency is the combinatorial test on zero-set bitmasks over
    the rows so far: no third ray vanishes on every row both vanish on.
    Rays are primitive and unique modulo the (non-unique) lineality basis.
    """
    lin = [_unit(rank, i) for i in range(rank)]
    rays = []  # (ray, bitmask of the rows added so far that vanish on it)
    for i, a in enumerate(rows):
        bit = 1 << i
        k = next((j for j, l in enumerate(lin) if dot(a, l) != 0), None)
        if k is not None:
            pivot = lin.pop(k)
            s = dot(a, pivot)
            if s < 0:
                pivot, s = _neg(pivot), -s
            # move everything else onto <a, x> = 0 along the pivot
            lin = [_combine(s, l, -dot(a, l), pivot) for l in lin]
            rays = [(_combine(s, r, -dot(a, r), pivot), z | bit) for r, z in rays]
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
    return lin, [r for r, _ in rays]


def _generators(rows, rank):
    """Generators of {x : <a, x> >= 0 for a in rows}: lineality as +/- pairs, then rays."""
    lin, rays = _dd(rows, rank)
    return lin + [_neg(l) for l in lin] + rays


def _is_facet(a, gens, rank) -> bool:
    """Incidence test: for a row a of the full-dimensional cone generated by
    gens, <a, x> >= 0 is a facet iff the generators it vanishes on have
    rank rank - 1."""
    return matrix_rank([g for g in gens if dot(a, g) == 0]) == rank - 1


def _homogenized(facets, rank):
    """Integer rows of {(x, s) : <w, x> >= c s per facet, s >= 0}.

    The cone is full-dimensional iff the polyhedron is, and then its
    facets other than s >= 0 are exactly the polyhedron's.
    """
    rows = [tuple(e * h.threshold.denominator for e in h.normal) + (-h.threshold.numerator,)
            for h in facets]
    return rows + [_unit(rank + 1, rank)]


# ---------------------------------------------------------------------------
# Halfspaces, cones, polyhedra.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HalfSpace:
    """Closed halfspace {x : <normal, x> >= threshold}, primitive integer normal."""

    normal: IntVec
    threshold: Fraction

    def __post_init__(self):
        normal = tuple(int(e) for e in self.normal)
        threshold = as_fraction(self.threshold)
        g = math.gcd(*(abs(e) for e in normal)) if normal else 0
        if g == 0:
            raise DomainError("zero vector has no primitive form")
        if g > 1:
            normal = tuple(e // g for e in normal)
            threshold = threshold / g
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "threshold", threshold)

    def eval(self, point):
        return dot(self.normal, point)

    def holds(self, point, strict=False) -> bool:
        v = self.eval(point)
        return v > self.threshold if strict else v >= self.threshold

    def to_json(self):
        return {"normal": list(self.normal), "threshold": frac_str(self.threshold)}


def _sorted_facets(facets):
    return tuple(sorted(facets, key=lambda h: (h.normal, h.threshold)))


@dataclass(frozen=True)
class Cone:
    """Rational polyhedral cone: generating rays, optional facet halfspaces.

    ``rays`` is a generating set; for non-pointed cones it contains both
    directions of each lineality generator.  ``facets`` (all thresholds 0)
    are an H-representation when present.
    """

    rank: int
    rays: tuple = ()
    facets: tuple = None

    def __post_init__(self):
        if self.rank < 1:
            raise DomainError("rank must be positive")
        rays = tuple(sorted({primitive(r) for r in self.rays}))
        for r in rays:
            if len(r) != self.rank:
                raise DomainError("ray length does not match rank")
        object.__setattr__(self, "rays", rays)
        if self.facets is not None:
            facets = _sorted_facets(self.facets)
            for h in facets:
                if h.threshold != 0:
                    raise DomainError("cone facets must have threshold 0")
                for r in rays:
                    if dot(h.normal, r) < 0:
                        raise DomainError("cone ray violates a declared facet")
            object.__setattr__(self, "facets", facets)

    @property
    def strongly_convex(self) -> bool:
        """True iff the cone contains no line (equivalently its dual is full-dim)."""
        return matrix_rank(_generators(self.rays, self.rank)) == self.rank

    def contains(self, point) -> bool:
        if self.facets is None:
            raise DomainError("cone has no facet representation")
        return all(dot(h.normal, point) >= 0 for h in self.facets)

    def to_json(self):
        data = {"rank": self.rank, "rays": [list(r) for r in self.rays]}
        if self.facets is not None:
            data["facets"] = [h.to_json() for h in self.facets]
        return data


def orthant(rank: int) -> Cone:
    units = [_unit(rank, i) for i in range(rank)]
    return Cone(rank, tuple(units), tuple(HalfSpace(u, Fraction(0)) for u in units))


def _prune_homogeneous_normals(normals, rank):
    """Minimal subset of {<v,x> >= 0} inequalities describing the same cone."""
    kept = sorted(normals)
    gens = _generators(kept, rank)
    if matrix_rank(gens) == rank:
        # full-dimensional: the facets are unique, read them off by incidence
        return [v for v in kept if _is_facet(v, gens, rank)]
    # lower-dimensional: the minimal list is not unique; sweep first to last,
    # dropping a row when the cone of the remaining rows already implies it
    i = 0
    while i < len(kept):
        others = kept[:i] + kept[i + 1:]
        if all(dot(kept[i], g) >= 0 for g in _generators(others, rank)):
            kept = others
        else:
            i += 1
    return kept


def homogeneous_rays(normals, rank):
    """Generators of {x : <a, x> >= 0 for a in normals}.

    Lineality directions are the ``kernel_basis`` vectors as +/- pairs;
    the pointed part's extreme rays are those of the cone cut down to the
    orthogonal complement of the lineality space.
    """
    lineal = kernel_basis(normals, rank)
    pairs = lineal + [_neg(l) for l in lineal]
    _, rays = _dd(list(normals) + pairs, rank)
    return tuple(sorted(set(pairs + rays)))


def dual_cone(c: Cone) -> Cone:
    """Dual cone {m : <m, v> >= 0 for all v in c}, with rays and irredundant facets."""
    if c.rank > MAX_DUAL_RANK:
        raise ResourceLimitError(f"rank {c.rank} exceeds dualization guard {MAX_DUAL_RANK}")
    normals = sorted({primitive(r) for r in c.rays})
    kept = _prune_homogeneous_normals(normals, c.rank)
    rays = homogeneous_rays(kept, c.rank)
    facets = tuple(HalfSpace(n, Fraction(0)) for n in kept)
    return Cone(c.rank, rays, facets)


@dataclass(frozen=True)
class Polyhedron:
    """Rational polyhedron conv(vertices) + recession cone, in facet form.

    ``irredundant`` is set only by constructors that certify the facet
    list minimal (and the polyhedron full-dimensional).
    """

    rank: int
    facets: tuple
    vertices: tuple = None
    recession: Cone = None
    irredundant: bool = False

    def __post_init__(self):
        if self.rank < 1:
            raise DomainError("rank must be positive")
        facets = _sorted_facets(self.facets)
        object.__setattr__(self, "facets", facets)
        if self.vertices is not None:
            verts = tuple(tuple(as_fraction(e) for e in v) for v in self.vertices)
            for v in verts:
                for h in facets:
                    if not h.holds(v):
                        raise DomainError("declared vertex violates a facet")
            object.__setattr__(self, "vertices", verts)
        if self.recession is not None:
            for r in self.recession.rays:
                for h in facets:
                    if dot(h.normal, r) < 0:
                        raise DomainError("recession ray violates a facet direction")

    def full_dimensional(self) -> bool:
        """True iff a rational interior point exists (all facets strictly satisfiable)."""
        gens = _generators(_homogenized(self.facets, self.rank), self.rank + 1)
        return matrix_rank(gens) == self.rank + 1

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
    rows = _homogenized(facets, p.rank)
    gens = _generators(rows, p.rank + 1)
    if matrix_rank(gens) != p.rank + 1:
        raise DomainError("interior undefined: not full-dimensional")
    kept = tuple(h for h, a in zip(facets, rows) if _is_facet(a, gens, p.rank + 1))
    return Polyhedron(p.rank, kept, p.vertices, p.recession, irredundant=True)


def points_plus_cone(points, recession: Cone, rank: int) -> Polyhedron:
    """Facet description of a full-dimensional conv(points) + recession.

    The facets are the extreme rays (w, c) with w != 0 of the cone of
    valid inequalities {(w, c) : <w, r> >= 0 per recession ray r,
    <w, p> >= c per point p}, which is pointed exactly when the sum is
    full-dimensional.  Points are integer vectors; all thresholds come
    out integral because every facet contains a generating point.
    """
    pts = sorted({tuple(int(e) for e in p) for p in points})
    if not pts:
        raise DomainError("no generating points")
    rows = [r + (0,) for r in recession.rays] + [p + (-1,) for p in pts]
    lin, rays = _dd(rows, rank + 1)
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


def scale(p: Polyhedron, lam) -> Polyhedron:
    """lam * p for lam >= 0; lam = 0 yields the recession cone."""
    lam = as_fraction(lam)
    if lam < 0:
        raise DomainError("scaling factor must be nonnegative")
    if lam == 0:
        facets = {HalfSpace(h.normal, Fraction(0)) for h in p.facets}
        return Polyhedron(
            p.rank,
            tuple(facets),
            vertices=((0,) * p.rank,),
            recession=p.recession,
            irredundant=False,
        )
    facets = tuple(HalfSpace(h.normal, h.threshold * lam) for h in p.facets)
    vertices = None
    if p.vertices is not None:
        vertices = tuple(tuple(e * lam for e in v) for v in p.vertices)
    return Polyhedron(p.rank, facets, vertices, p.recession, irredundant=p.irredundant)


# ---------------------------------------------------------------------------
# Threshold systems over the integer lattice.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdSystem:
    """Finite conjunction of <normal, m> >= t with integer t, over Z^rank.

    Constraints are canonicalized: primitive normals (thresholds adjusted
    by exact ceiling division, sound over the lattice), one constraint
    per normal (the strongest), sorted.  A constraint with zero normal
    and positive threshold marks the whole system infeasible.
    """

    rank: int
    constraints: tuple = ()
    infeasible: bool = False

    def __post_init__(self):
        if self.rank < 1:
            raise DomainError("rank must be positive")
        canon = {}
        infeasible = bool(self.infeasible)
        for normal, t in self.constraints:
            normal = tuple(int(e) for e in normal)
            if len(normal) != self.rank:
                raise DomainError("constraint length does not match rank")
            t = int(t)
            g = math.gcd(*(abs(e) for e in normal)) if normal else 0
            if g == 0:
                if t > 0:
                    infeasible = True
                continue
            if g > 1:
                normal = tuple(e // g for e in normal)
                t = _ceil_div(t, g)
            if normal not in canon or t > canon[normal]:
                canon[normal] = t
        object.__setattr__(self, "constraints", tuple(sorted(canon.items())))
        object.__setattr__(self, "infeasible", infeasible)

    def satisfies(self, m) -> bool:
        if self.infeasible:
            return False
        return all(dot(w, m) >= t for w, t in self.constraints)

    def substitute_last(self, k: int) -> "ThresholdSystem":
        """Fix the last coordinate to k; constraints drop to rank - 1."""
        if self.rank < 2:
            raise DomainError("cannot substitute in a rank-1 system")
        rows = tuple((w[:-1], t - w[-1] * k) for w, t in self.constraints)
        return ThresholdSystem(self.rank - 1, rows, self.infeasible)

    def normals(self):
        return tuple(w for w, _ in self.constraints)

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


def strict_interior_system(p: Polyhedron) -> ThresholdSystem:
    """Integer points of the topological interior of a full-dimensional p.

    Per irredundant facet <w, x> >= c, the interior condition <w, m> > c
    over integers m is exactly <w, m> >= floor(c) + 1.
    """
    q = irredundant_facets(p)
    constraints = tuple((h.normal, math.floor(h.threshold) + 1) for h in q.facets)
    return ThresholdSystem(p.rank, constraints)


# ---------------------------------------------------------------------------
# Lattice-point enumeration.
# ---------------------------------------------------------------------------


def _point_guard(max_points):
    if max_points is not None:
        return int(max_points)
    env = os.environ.get(POINT_GUARD_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"{POINT_GUARD_ENV} must be an integer, got {env!r}") from None
    return DEFAULT_POINT_GUARD


def _enumerate_box(constraints, bounds):
    rank = len(bounds)
    if not constraints:
        return [tuple(p) for p in itertools.product(*(range(lo, hi + 1) for lo, hi in bounds))]
    ncons = len(constraints)
    ws = [w for w, _ in constraints]
    ts = [t for _, t in constraints]
    smin = [[0] * (rank + 1) for _ in range(ncons)]
    smax = [[0] * (rank + 1) for _ in range(ncons)]
    for ci in range(ncons):
        w = ws[ci]
        for d in range(rank - 1, -1, -1):
            lo, hi = bounds[d]
            a, b = w[d] * lo, w[d] * hi
            smin[ci][d] = smin[ci][d + 1] + min(a, b)
            smax[ci][d] = smax[ci][d + 1] + max(a, b)
    out = []
    prefix = []

    def rec(depth, partials):
        certified = True
        for ci in range(ncons):
            p = partials[ci]
            if p + smax[ci][depth] < ts[ci]:
                return
            if p + smin[ci][depth] < ts[ci]:
                certified = False
        if certified:
            if depth == rank:
                out.append(tuple(prefix))
            else:
                head = tuple(prefix)
                for tail in itertools.product(
                    *(range(lo, hi + 1) for lo, hi in bounds[depth:])
                ):
                    out.append(head + tail)
            return
        lo, hi = bounds[depth]
        for v in range(lo, hi + 1):
            prefix.append(v)
            rec(depth + 1, [partials[ci] + ws[ci][depth] * v for ci in range(ncons)])
            prefix.pop()

    rec(0, [0] * ncons)
    return out


def lattice_points(system: ThresholdSystem, box, max_points=None):
    """All integer points of the system inside the box, sorted lexicographically.

    ``box`` is one (lo, hi) pair per coordinate.  The box volume guard
    (default 10**8, override via REESMULT_MAX_POINTS or ``max_points``)
    bounds the search space, not the output.
    """
    bounds = tuple((int(lo), int(hi)) for lo, hi in box)
    if len(bounds) != system.rank:
        raise DomainError("box length does not match system rank")
    for lo, hi in bounds:
        if lo > hi:
            raise DomainError("box lower bound exceeds upper bound")
    volume = math.prod(hi - lo + 1 for lo, hi in bounds)
    guard = _point_guard(max_points)
    if volume > guard:
        raise ResourceLimitError(f"box volume {volume} exceeds enumeration guard {guard}")
    if system.infeasible:
        return []
    return _enumerate_box(system.constraints, bounds)


def cube(rank: int, lo: int, hi: int):
    return tuple((lo, hi) for _ in range(rank))
