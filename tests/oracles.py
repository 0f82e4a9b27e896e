"""Independent oracles for the test suite.

Deliberately structured differently from the library: membership in
conv(points) + orthant is decided through dominance by small point
subsets (a point lies in the sum iff some convex combination of at most
rank points of the generating set is componentwise below it, obtained
by pushing any dominated point down to a boundary face), with exact
one- and two-parameter interval elimination.  Interior membership is a
strict rational comparison with no floor arithmetic anywhere.

The second half is a reference facet kernel (Fourier-Motzkin) for
differential tests of the library's double description kernel.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from reesmult.errors import DomainError
from reesmult.polyhedra import (
    Cone,
    HalfSpace,
    Polyhedron,
    _neg,
    _sorted_facets,
    _unit,
    dot,
    kernel_basis,
    matrix_rank,
    orthant,
    primitive,
)


def _pair_dominates(p, q, x) -> bool:
    """Some t in [0,1] with t*p + (1-t)*q <= x componentwise."""
    lo, hi = Fraction(0), Fraction(1)
    for pi, qi, xi in zip(p, q, x):
        a = Fraction(pi - qi)  # a*t <= xi - qi
        b = Fraction(xi) - qi
        if a > 0:
            hi = min(hi, b / a)
        elif a < 0:
            lo = max(lo, b / a)
        elif b < 0:
            return False
    return lo <= hi


def _triple_dominates(p, q, r, x) -> bool:
    """Some s, t >= 0 with s + t <= 1 and s*p + t*q + (1-s-t)*r <= x.

    Exact: eliminate t against every (lower, upper) bound pair, leaving
    a rational interval for s.
    """
    # rows a*s + b*t <= c
    rows = [
        (Fraction(pi - ri), Fraction(qi - ri), Fraction(xi) - ri)
        for pi, qi, ri, xi in zip(p, q, r, x)
    ]
    rows.append((Fraction(1), Fraction(1), Fraction(1)))   # s + t <= 1
    rows.append((Fraction(0), Fraction(-1), Fraction(0)))  # t >= 0
    s_lo, s_hi = Fraction(0), Fraction(1)
    uppers = [(a, b, c) for a, b, c in rows if b > 0]
    lowers = [(a, b, c) for a, b, c in rows if b < 0]
    for a, b, c in rows:
        if b == 0:
            if a > 0:
                s_hi = min(s_hi, c / a)
            elif a < 0:
                s_lo = max(s_lo, c / a)
            elif c < 0:
                return False
    for al, bl, cl in lowers:
        for au, bu, cu in uppers:
            # (cl - al*s)/bl <= (cu - au*s)/bu, bl < 0 < bu
            alpha = bl * au - bu * al
            beta = bl * cu - bu * cl
            if alpha > 0:
                s_lo = max(s_lo, beta / alpha)
            elif alpha < 0:
                s_hi = min(s_hi, beta / alpha)
            elif beta > 0:
                return False
    return s_lo <= s_hi


def in_hull_plus_orthant(x, points) -> bool:
    """x in conv(points) + R^n_{>=0}, exact, for rank <= 3.

    If some y in conv(points) is dominated by x, pushing y straight down
    lands on a boundary face of dimension < rank, so subsets of at most
    rank points suffice (singletons and pairs at rank 2, plus triples at
    rank 3).
    """
    rank = len(x)
    assert rank <= 3, "oracle only supports rank <= 3"
    for p in points:
        if all(Fraction(xi) >= pi for xi, pi in zip(x, p)):
            return True
    for p, q in itertools.combinations(points, 2):
        if _pair_dominates(p, q, x):
            return True
    if rank >= 3:
        for p, q, r in itertools.combinations(points, 3):
            if _triple_dominates(p, q, r, x):
                return True
    return False


def strict_interior_points(facets, box):
    """Integer box points with every facet inequality strict, compared
    with exact rationals (no floor arithmetic anywhere)."""
    out = []
    for m in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
        if all(
            sum(w * e for w, e in zip(normal, m)) > threshold
            for normal, threshold in facets
        ):
            out.append(m)
    return out


def box_points_satisfying(facets, box):
    """Integer box points satisfying every (normal, threshold) weakly."""
    out = []
    for m in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
        if all(
            sum(w * e for w, e in zip(normal, m)) >= threshold
            for normal, threshold in facets
        ):
            out.append(m)
    return out


# ---------------------------------------------------------------------------
# Reference facet kernel: Fourier-Motzkin elimination, the contact-rank
# facet filter, the (rank-1)-subset ray scan and FM-LP pruning.  This is
# the library's former implementation, kept verbatim so the double
# description kernel can be compared against it on exact facet lists.
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination.
#
# A row (coeffs, rhs, strict) encodes <coeffs, x> >= rhs (or > rhs when
# strict), with a primitive integer coefficient vector and an exact
# rational right-hand side.  Growth is controlled by keeping only the
# strongest row per direction, which is sound both for projections and
# for infeasibility detection.  (History-based accelerations are NOT
# sound for infeasible systems: they can drop the combination a Farkas
# refutation needs.)
# ---------------------------------------------------------------------------


def _const_ok(rhs, strict: bool) -> bool:
    # constant row <0, x> >= rhs (or >)
    return rhs < 0 or (rhs == 0 and not strict)


def _stronger(a, b):
    """Of two (rhs, strict) bounds for the same direction, the binding one."""
    if a[0] != b[0]:
        return a if a[0] > b[0] else b
    return a if a[1] else b


class _Infeasible(Exception):
    pass


def _push_row(out, coeffs, rhs, strict):
    """Normalize a row and merge it into the direction-keyed map."""
    g = math.gcd(*(abs(c) for c in coeffs))
    if g == 0:
        if not _const_ok(rhs, strict):
            raise _Infeasible
        return
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
        rhs = Fraction(rhs, g)
    else:
        rhs = Fraction(rhs)
    old = out.get(coeffs)
    out[coeffs] = (rhs, strict) if old is None else _stronger((rhs, strict), old)


def _eliminate_var(rows, j):
    """One FM step on variable j.  Raises _Infeasible on a contradiction."""
    pos, neg, rest = [], [], []
    for r in rows:
        c = r[0][j]
        (pos if c > 0 else neg if c < 0 else rest).append(r)
    out = {}
    for coeffs, rhs, strict in rest:
        _push_row(out, coeffs, rhs, strict)
    for pc, pr, ps in pos:
        a = pc[j]
        for nc, nr, ns in neg:
            b = -nc[j]
            coeffs = tuple(b * x + a * y for x, y in zip(pc, nc))
            _push_row(out, coeffs, b * pr + a * nr, ps or ns)
    return [(c, rhs, strict) for c, (rhs, strict) in out.items()]


def _run_elimination(rows, eliminate):
    """Eliminate the given variable indices.  Returns rows or None (infeasible)."""
    try:
        merged = {}
        for coeffs, rhs, strict in rows:
            _push_row(merged, coeffs, rhs, strict)
        rows = [(c, rhs, strict) for c, (rhs, strict) in merged.items()]
        remaining = set(eliminate)
        while remaining:
            # cheapest variable first: minimize the pos*neg product
            best, best_cost = None, None
            for j in sorted(remaining):
                p = sum(1 for r in rows if r[0][j] > 0)
                n = sum(1 for r in rows if r[0][j] < 0)
                cost = p * n
                if best_cost is None or cost < best_cost:
                    best, best_cost = j, cost
            rows = _eliminate_var(rows, best)
            remaining.discard(best)
        return rows
    except _Infeasible:
        return None


def _rows_from_halfspaces(halfspaces, strict=False):
    return [(h.normal, h.threshold, strict) for h in halfspaces]


def _feasible(rows, rank) -> bool:
    return _run_elimination(rows, range(rank)) is not None


def fm_strongly_convex(c: Cone) -> bool:
    if not c.rays:
        return True
    rows = [(r, 0, True) for r in c.rays]
    return _feasible(rows, c.rank)


def fm_full_dimensional(p: Polyhedron) -> bool:
    rows = _rows_from_halfspaces(p.facets, strict=True)
    return _feasible(rows, p.rank)


def _prune_homogeneous_normals(normals, rank):
    """Minimal subset of {<v,x> >= 0} inequalities describing the same cone."""
    kept = sorted(normals)
    i = 0
    while i < len(kept):
        v = kept[i]
        rows = [(u, 0, False) for u in kept if u != v]
        rows.append((_neg(v), 0, True))
        if _feasible(rows, rank):
            i += 1  # something violates v alone: keep it
        else:
            kept.pop(i)
    return kept


def subset_homogeneous_rays(normals, rank):
    """Generators of {x : <a, x> >= 0 for a in normals}.

    Lineality directions are returned as +/- pairs; the pointed part's
    extreme rays come from kernels of (rank-1)-subsets of the constraints.
    """
    if not normals:
        units = [_unit(rank, i) for i in range(rank)]
        return tuple(sorted(units + [_neg(u) for u in units]))
    lineal = kernel_basis(normals, rank)
    constraints = list(normals) + [l for l in lineal] + [_neg(l) for l in lineal]
    rays = set()
    for l in lineal:
        rays.add(l)
        rays.add(_neg(l))
    if rank == 1:
        for cand in [(1,), (-1,)]:
            if all(dot(a, cand) >= 0 for a in constraints):
                rays.add(cand)
    else:
        for subset in itertools.combinations(range(len(constraints)), rank - 1):
            sub = [constraints[i] for i in subset]
            kern = kernel_basis(sub, rank)
            if len(kern) != 1:
                continue
            k = kern[0]
            if all(dot(a, k) >= 0 for a in constraints):
                rays.add(k)
            elif all(dot(a, k) <= 0 for a in constraints):
                rays.add(_neg(k))
    return tuple(sorted(rays))


def fm_dual_cone(c: Cone) -> Cone:
    """Dual cone {m : <m, v> >= 0 for all v in c}, with rays and irredundant facets."""
    normals = sorted({primitive(r) for r in c.rays})
    kept = _prune_homogeneous_normals(normals, c.rank)
    rays = subset_homogeneous_rays(kept, c.rank)
    facets = tuple(HalfSpace(n, Fraction(0)) for n in kept)
    return Cone(c.rank, rays, facets)


def fm_irredundant_facets(p: Polyhedron) -> Polyhedron:
    """Minimal facet list describing the same rational point set."""
    if p.irredundant:
        return p
    if not fm_full_dimensional(p):
        raise DomainError("interior undefined: not full-dimensional")
    kept = list(p.facets)
    i = 0
    while i < len(kept):
        h = kept[i]
        rows = _rows_from_halfspaces([g for g in kept if g is not h])
        # negate: <normal, x> < threshold
        rows.append((_neg(h.normal), -h.threshold, True))
        if _feasible(rows, p.rank):
            i += 1
        else:
            kept.pop(i)
    return Polyhedron(p.rank, tuple(kept), p.vertices, p.recession, irredundant=True)


def _facet_filter(halfspaces, points, rays, rank):
    """Keep exactly the facet-defining inequalities, given generators.

    For full-dimensional conv(points) + cone(rays), a valid inequality is
    a facet iff its contact set (active points and active rays) has
    affine dimension rank - 1.
    """
    kept = []
    for h in halfspaces:
        active_pts = [p for p in points if h.eval(p) == h.threshold]
        if not active_pts:
            continue
        active_rays = [r for r in rays if dot(h.normal, r) == 0]
        base = active_pts[0]
        vecs = [tuple(a - b for a, b in zip(p, base)) for p in active_pts[1:]]
        vecs.extend(active_rays)
        if matrix_rank(vecs) == rank - 1:
            kept.append(h)
    return _sorted_facets(kept)


def fm_points_plus_cone(points, recession: Cone, rank: int) -> Polyhedron:
    """Facet description of conv(points) + recession, via FM elimination."""
    pts = sorted({tuple(int(e) for e in p) for p in points})
    if not pts:
        raise DomainError("no generating points")
    if recession.facets is None:
        raise DomainError("recession cone needs facets")
    s = len(pts)
    width = s + rank
    rows = []
    for i in range(s):
        rows.append((tuple(1 if j == i else 0 for j in range(width)), 0, False))
    ones = tuple(1 if j < s else 0 for j in range(width))
    rows.append((ones, 1, False))
    rows.append((_neg(ones), -1, False))
    for h in recession.facets:
        # <v, x - sum mu_i p_i> >= 0
        coeffs = tuple(
            -dot(h.normal, pts[j]) if j < s else h.normal[j - s] for j in range(width)
        )
        rows.append((coeffs, 0, False))
    out = _run_elimination(rows, range(s))
    if out is None:
        raise DomainError("internal: generator system infeasible")
    halfspaces = set()
    for coeffs, rhs, _ in out:
        xpart = coeffs[s:]
        if all(c == 0 for c in xpart):
            continue
        halfspaces.add(HalfSpace(xpart, rhs))
    facets = _facet_filter(sorted(halfspaces, key=lambda h: (h.normal, h.threshold)),
                           pts, recession.rays, rank)
    return Polyhedron(rank, facets, vertices=pts, recession=recession, irredundant=True)


def fm_newton_from_points(points, rank: int) -> Polyhedron:
    """conv(points) + nonnegative orthant, via the reference kernel."""
    return fm_points_plus_cone(list(points), orthant(rank), rank)
