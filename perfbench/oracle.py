"""Independent checks that a facet list is exactly the facets of a cone.

Nothing here calls reesmult: the claimed output is checked against the
generators with plain integer linear algebra, so a faster kernel that drops
or invents a facet or a ray fails the job on every seed.

For a full-dimensional pointed cone C = cone(G) in R^d, a list F of normals
is exactly the facet list of C when
  1. every f in F holds on G and is tight on d-1 independent generators, so
     each f is a facet;
  2. every ridge (a face of dimension d-2) of every f in F lies in a second
     member of F.
A ridge lies in exactly two facets, and the facets are connected through
shared ridges, so a non-empty F closed under 2 holds every facet.
"""

from __future__ import annotations

import itertools
import math


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _primitive(v):
    g = math.gcd(*v)
    return tuple(e // g for e in v) if g > 1 else tuple(v)


def _echelon(rows):
    """Fraction-free row echelon form of integer rows: [(pivot, row)]."""
    basis = []
    for v in rows:
        v = list(v)
        for p, row in basis:
            if v[p]:
                a, b = row[p], v[p]
                v = [a * x - b * y for x, y in zip(v, row)]
        pivot = next((j for j, x in enumerate(v) if x), None)
        if pivot is not None:
            basis.append((pivot, _primitive(v)))
    return basis


def rank(rows) -> int:
    return len(_echelon(rows))


def _kernel(rows, d):
    """An integer basis of {x : <r, x> = 0 for r in rows}."""
    basis = _echelon(rows)
    # reduced echelon form over the rationals, kept integral row by row
    reduced = [list(row) for _, row in basis]
    pivots = [p for p, _ in basis]
    for i in range(len(reduced) - 1, -1, -1):
        p = pivots[i]
        for k in range(i):
            if reduced[k][p]:
                a, b = reduced[i][p], reduced[k][p]
                reduced[k] = [a * x - b * y for x, y in zip(reduced[k], reduced[i])]
    lcm = math.lcm(*(row[p] for row, p in zip(reduced, pivots)))
    out = []
    for free in (j for j in range(d) if j not in pivots):
        # x_free = lcm, x_pivot(i) = -row_i[free] * lcm / row_i[pivot(i)]
        x = [0] * d
        x[free] = lcm
        for i, row in enumerate(reduced):
            x[pivots[i]] = -row[free] * lcm // row[pivots[i]]
        out.append(_primitive(x))
    return out


def _ridges(f, tight, gens, d):
    """Tight sets (bitmasks over gens) of the ridges of the facet f."""
    if len(tight) == d - 1:  # simplicial: drop one generator
        full = sum(1 << j for j in tight)
        return {full & ~(1 << j) for j in tight}
    out = set()
    for subset in itertools.combinations(tight, d - 2):
        rows = [gens[j] for j in subset]
        if rank(rows) != d - 2:
            continue
        # a functional on the facet's span that vanishes on the subset
        u = next(k for k in _kernel(rows, d) if rank([k, f]) == 2)
        values = [_dot(u, gens[j]) for j in tight]
        if all(v >= 0 for v in values) or all(v <= 0 for v in values):
            out.add(sum(1 << j for j, v in zip(tight, values) if v == 0))
    return out


def cone_facet_problem(gens, facets, d):
    """None when ``facets`` (integer normals) is exactly the facet list of
    the full-dimensional pointed cone(gens) in R^d, else why not."""
    if rank(gens) != d:
        return "generators are not full-dimensional"
    facets = [_primitive(f) for f in facets]
    if not facets or len(set(facets)) != len(facets):
        return "facet list empty or repeated"
    tight_masks = []
    tights = []
    for f in facets:
        values = [_dot(f, g) for g in gens]
        if any(v < 0 for v in values):
            return f"facet {f} is violated by a generator"
        tight = [j for j, v in enumerate(values) if v == 0]
        if rank([gens[j] for j in tight]) != d - 1:
            return f"{f} is not a facet: its tight generators have rank below {d - 1}"
        tights.append(tight)
        tight_masks.append(sum(1 << j for j in tight))
    for k, f in enumerate(facets):
        for ridge in _ridges(f, tights[k], gens, d):
            if not any(ridge & ~m == 0 for i, m in enumerate(tight_masks) if i != k):
                return f"facet list incomplete: a ridge of {f} lies in no other facet"
    return None


def extreme_rays(gens, facets, d):
    """Primitive generators on d-1 independent facets: the extreme rays,
    given the complete facet list."""
    out = set()
    for g in gens:
        if any(g) and rank([f for f in facets if _dot(f, g) == 0]) == d - 1:
            out.add(_primitive(g))
    return out


def newton_facet_problem(points, facets, n):
    """None when ``facets`` ((normal, threshold) pairs) is exactly the facet
    list of conv(points) + the nonnegative orthant in R^n, else why not.

    The polyhedron is checked as the cone over {1} x points and {0} x units in
    R^(n+1), whose facets are <h, x> >= c as (-c, h) plus the face at
    infinity (1, 0, .., 0).
    """
    hom = [(1, *p) for p in points]
    hom += [tuple(1 if j == i + 1 else 0 for j in range(n + 1)) for i in range(n)]
    normals = [(1,) + (0,) * n]
    for h, c in facets:
        if c.denominator != 1:
            return f"facet {h} has a non-integral threshold {c}"
        normals.append((-int(c), *h))
    return cone_facet_problem(hom, normals, n + 1)
