"""Independent oracles for the test suite.

Deliberately structured differently from the library: membership in
conv(points) + orthant is decided through dominance by small point
subsets (a point lies in the sum iff some convex combination of at most
rank points of the generating set is componentwise below it, obtained
by pushing any dominated point down to a boundary face), with exact
one- and two-parameter interval elimination.  Interior membership is a
strict rational comparison with no floor arithmetic anywhere.  Lattice
sets are listed point by point over the whole box; one coordinate-sum
row over a cube is counted by inclusion-exclusion instead.

The second part is a reference facet kernel (Fourier-Motzkin) for
differential tests of the library's double description kernel.  The last
part keeps former library routines verbatim as references for the ones
that replaced them: the generator-based integer helpers ``dot``,
``primitive``, ``_combine`` and ``frac_str``, the double description
that combined every vector on a pivot row, the all-pairs generator
minimality check, the closure that minimalized every run start, the
``Fraction`` row reduction with its kernel basis
and the ray listing built on it, the ``Fraction`` rank test for facets
and full-dimensionality, the quadratic ``minimalize``, the
point-by-point local verifier, the closure-based normality test, the
generator-based and the run-based cone slice checks and the one that
compared the reduced systems of a few levels, the cone models
built one kind at a time through ``irredundant_facets``, the box test of
pair rationality, the box scan for jumping numbers and the search that
decided each jump candidate on its own derived boxes, the two-listing B.1,
B.2 and local verifiers, the dual cone with a second double
description for its rays, and the lattice walk that kept unit rows as
rows, counted every satisfied subtree one value at a time and lifted
rank 1 onto a dummy axis, the principal pair's multiplier module read
off its pairings with the rays, the unmemoised slice
``substitute_last_reference``, the B.2 right side on a ``Fraction``
exponent ``decomposition_rhs_T_reference``, the unmemoised
``reduced_fields_reference``, the former ``ThresholdSystem.reduced``
``reduced_system``, the per-level SNC system
``snc_level_reference``, the hand-built graded section system of the
local verifier ``section_system_reference``, the cone models built from
Newton facet rows ``cone_by_facet_rows_reference`` and the graded Newton
polyhedron of a pair ``graded_newton_reference``.  ``scale`` and
``strict_interior_system``, former library functions that only tests
call, live there too.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from reesmult.errors import DomainError, NotNormalError, ResourceLimitError
from reesmult.hypersurface import (
    LocalHypersurfaceModel,
    LocalMonomial,
    is_section,
    regrade,
    snc_multiplier_section,
)
from reesmult.ideals import (
    JumpReport,
    MonomialIdeal,
    MonomialModule,
    default_box,
    first_non_closed_power,
    integral_closure,
    minimalize,
    multiplier_ideal,
    multiplier_module,
    newton,
    newton_positive_facets,
    power,
    systems_equal,
)
from reesmult import polyhedra
from reesmult.polyhedra import (
    MAX_DUAL_RANK,
    Cone,
    HalfSpace,
    Polyhedron,
    ThresholdSystem,
    _ceil_div,
    _combine,
    _dd,
    _facet_rows,
    _narrow,
    _neg,
    _sorted_facets,
    as_exponent,
    as_fraction,
    as_int,
    as_ints,
    compare_runs,
    cube,
    dot,
    homogeneous_rays,
    interior_threshold,
    irredundant_facets,
    lattice_runs,
    orthant,
    point_guard,
    points_plus_cone,
    primitive,
    unit_vectors,
)
from reesmult.rees import (
    EXTENDED_REES,
    REES,
    GradedModuleSpec,
    GradedToricAlgebra,
    PerLevel,
    VerificationReport,
    _validate_slices,
    canonical_module,
    decomposition_rhs_S,
    decomposition_rhs_T,
    extended_rees_cone,
    graded_piece,
    multiplier_module_general,
    multiplier_module_principal,
    principal_divisor_pairings,
    rees_cone,
    rees_ideal_generators,
)
from reesmult.serialize import frac_str


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


def in_ideal(a: MonomialIdeal, m) -> bool:
    """x^m lies in the monomial ideal a: some generator divides it."""
    return any(all(e >= g for e, g in zip(m, gen)) for gen in a.generators)


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


def brute_lattice_points(system, box):
    """Every box point that satisfies the system, by itertools.product."""
    return [
        m for m in itertools.product(*(range(lo, hi + 1) for lo, hi in box))
        if system.satisfies(m)
    ]


def cube_count_at_least(n, upper, s):
    """The number of points of [0, upper]^n with coordinate sum >= s, by
    inclusion-exclusion over the coordinates forced above ``upper``: no walk."""
    below = sum(
        (-1) ** j * math.comb(n, j) * math.comb(s - 1 - j * (upper + 1) + n, n)
        for j in range(n + 1) if s - 1 - j * (upper + 1) >= 0
    )
    return (upper + 1) ** n - below


def first_mismatch(pts1, pts2):
    """Lex-least point in exactly one of two point lists, or None.

    The verifiers' witness as it was taken from point lists, before it was
    read from runs.
    """
    s1, s2 = set(pts1), set(pts2)
    diff = s1.symmetric_difference(s2)
    return min(diff) if diff else None


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
        units = unit_vectors(rank)
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
        active_pts = [p for p in points if dot(h.normal, p) == h.threshold]
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


# ---------------------------------------------------------------------------
# Former library routines, kept verbatim as differential references.
# ---------------------------------------------------------------------------


def dot_reference(u, v):
    return sum(a * b for a, b in zip(u, v))


def primitive_reference(v):
    """Divide an integer vector by the gcd of its entries, keeping direction."""
    vec = tuple(int(e) for e in v)
    g = math.gcd(*(abs(e) for e in vec)) if vec else 0
    if g == 0:
        raise DomainError("zero vector has no primitive form")
    if g == 1:
        return vec
    return tuple(e // g for e in vec)


def combine_reference(a, u, b, v):
    """Primitive form of the nonzero integer vector a*u + b*v."""
    return primitive_reference([a * x + b * y for x, y in zip(u, v)])


def dd_reference(rows, rank):
    """``polyhedra._dd`` as it was before a vector the pivot row vanishes on
    was kept as it is: every lineality vector and ray goes through
    ``_combine``, zero coefficient or not, and the pivot's pairing is taken
    twice."""
    lin = unit_vectors(rank)
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
                if len(kept) > polyhedra.MAX_DD_RAYS:
                    raise ResourceLimitError(
                        f"double description exceeds {polyhedra.MAX_DD_RAYS} rays")
        rays = kept
    return lin, [r for r, _ in rays], [z for _, z in rays]


def facet_rows_reference(rows, rank, zeros=None):
    """``polyhedra._facet_rows`` as it was before its faces were built by
    walking the set bits of each zero mask: one rows × rays generator, which
    tests every row's bit in every mask."""
    if zeros is None:
        _, _, zeros = _dd(rows, rank)
    faces = [sum(1 << j for j, z in enumerate(zeros) if z >> i & 1) for i in range(len(rows))]
    if (1 << len(zeros)) - 1 in faces:
        return None
    return [i for i, f in enumerate(faces) if not any(f & g == f and f != g for g in faces)]


def frac_str_reference(value) -> str:
    """Format an exact rational as "p/q" ("p" when q = 1)."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def scale(p: Polyhedron, lam) -> Polyhedron:
    """lam * p for lam >= 0; lam = 0 yields the recession cone."""
    lam = as_fraction(lam)
    if lam < 0:
        raise DomainError("scaling factor must be nonnegative")
    if lam == 0:
        facets = {HalfSpace(h.normal, 0) for h in p.facets}
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


def strict_interior_system(p: Polyhedron) -> ThresholdSystem:
    """Integer points of the topological interior of a full-dimensional p.

    Per irredundant facet <w, x> >= c, the interior condition <w, m> > c
    over integers m is exactly <w, m> >= floor(c) + 1.
    """
    q = irredundant_facets(p)
    constraints = tuple((h.normal, math.floor(h.threshold) + 1) for h in q.facets)
    return ThresholdSystem(p.rank, constraints)


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


def kernel_basis(rows, rank):
    """Primitive integer basis of {x : <r, x> = 0 for every row r}."""
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


def homogeneous_rays_by_kernel_basis(normals, rank):
    """Generators of {x : <a, x> >= 0 for a in normals}.

    Lineality directions are the ``kernel_basis`` vectors as +/- pairs;
    the pointed part's extreme rays are those of the cone cut down to the
    orthogonal complement of the lineality space.
    """
    lineal = kernel_basis(normals, rank)
    pairs = lineal + [_neg(l) for l in lineal]
    _, rays, _ = _dd(list(normals) + pairs, rank)
    return tuple(sorted(set(pairs + rays)))


def _prune_homogeneous_normals_by_dd(normals, rank):
    """Minimal subset of {<v,x> >= 0} inequalities describing the same cone."""
    kept = sorted(normals)
    facets = _facet_rows(kept, rank)
    if facets is not None:
        # full-dimensional: the facets are unique
        return [kept[i] for i in facets]
    # lower-dimensional: the minimal list is not unique; sweep first to last,
    # dropping a row when the cone of the remaining rows already implies it
    i = 0
    while i < len(kept):
        others = kept[:i] + kept[i + 1:]
        lin, rays, _ = _dd(others, rank)
        if all(dot(kept[i], l) == 0 for l in lin) and all(dot(kept[i], r) >= 0 for r in rays):
            kept = others
        else:
            i += 1
    return kept


def dual_cone_by_two_runs(c: Cone) -> Cone:
    """``dual_cone`` with one ``_dd`` for the facets and another, of the
    facets, for the rays."""
    if c.rank > MAX_DUAL_RANK:
        raise ResourceLimitError(f"rank {c.rank} exceeds dualization guard {MAX_DUAL_RANK}")
    normals = sorted({primitive(r) for r in c.rays})
    kept = _prune_homogeneous_normals_by_dd(normals, c.rank)
    rays = homogeneous_rays(kept, c.rank)
    facets = tuple(HalfSpace(n, Fraction(0)) for n in kept)
    return Cone(c.rank, rays, facets)


def matrix_rank(rows) -> int:
    if not rows:
        return 0
    return len(_rref(rows)[1])


def facet_rows_by_rank(rows, rank):
    """The rank test that ``polyhedra._facet_rows`` replaced: the cone
    {x : <a, x> >= 0 for a in rows} is full-dimensional iff its generators
    have full rank, and then a row is a facet iff the generators it vanishes
    on have rank ``rank - 1``.  None when not full-dimensional."""
    lin, rays, _ = _dd(rows, rank)
    gens = lin + [_neg(l) for l in lin] + rays
    if matrix_rank(gens) != rank:
        return None
    return [i for i, a in enumerate(rows)
            if matrix_rank([g for g in gens if dot(a, g) == 0]) == rank - 1]


def minimal_generators_reference(gens):
    """The minimal elements of ``gens`` under divisibility, sorted, by the
    former two-filter pass: each new point drops the kept points it divides."""
    kept = []
    for g in sorted(set(gens)):
        if not any(all(a <= b for a, b in zip(h, g)) for h in kept if h != g):
            kept = [h for h in kept if not all(a <= b for a, b in zip(g, h))]
            kept.append(g)
    return tuple(kept)


def minimalize_reference(gens, nvars=None) -> MonomialIdeal:
    """Drop divisible generators and build the ideal; idempotent."""
    gens = [tuple(int(e) for e in g) for g in gens]
    if not gens:
        raise DomainError("zero ideal")
    if nvars is None:
        nvars = len(gens[0])
    return MonomialIdeal(nvars, minimal_generators_reference(gens))


def lct_by_scan(a: MonomialIdeal, facets=None):
    """The former cross-check of ``lct``: the first candidate t / c over the
    positive facet thresholds c, up to the facet formula, at which the zero
    exponent leaves the multiplier ideal (None if none does).  ``facets``
    replaces ``newton_positive_facets(a)``, the multiplier ideal keeps the
    true facets."""
    facets = newton_positive_facets(a) if facets is None else facets
    formula = min(Fraction(sum(w), c) for w, c in facets)
    candidates = sorted(
        {Fraction(t, c) for _, c in facets for t in range(1, math.floor(formula * c) + 1)}
    )
    return next((x for x in candidates if not multiplier_ideal(a, x).is_full_ring()), None)


def integral_closure_by_minimalize(a: MonomialIdeal) -> MonomialIdeal:
    """Minimal generators of the monomials in Newt(a), kept verbatim from the
    former library: ``minimalize`` over the first point of every run."""
    bounds = tuple((0, max(column)) for column in zip(*a.generators))
    system = ThresholdSystem(a.nvars, [(h.normal, h.threshold) for h in newton(a).facets])
    starts = [prefix + (lo,) for prefix, lo, _ in lattice_runs(system, bounds)]
    return minimalize(starts, a.nvars)


def local_decomposition_by_points(
    model: LocalHypersurfaceModel,
    lam,
    box_deg: int = 6,
    box_c: int | None = None,
    k_range=(-4, 4),
) -> VerificationReport:
    """Per t-degree, sections of the hypersurface twist regrade onto
    exactly the SNC multiplier monomials at exponent k + lam.

    Monomials are enumerated in normal form with x, y degrees up to
    box_deg and s-exponents up to box_c.  A compared c' is restricted
    to those reachable from the box (recorded); degrees |k| > box_deg
    have no monomials at all and are reported inconclusive rather than
    silently passing.
    """
    lam = as_fraction(lam)
    if lam < 0:
        raise DomainError("lambda must be nonnegative")
    if box_c is None:
        box_c = max(model.exps) * box_deg + 2
    lo, hi = k_range
    guard = point_guard()
    per_k = []
    inconclusive = []
    for k in range(lo, hi + 1):
        if abs(k) > box_deg:
            inconclusive.append(k)
            continue
        a, b = max(k, 0), max(-k, 0)
        exponents = [range(box_c + 1)] * model.n
        reach = [
            range(a * model.exps[i], a * model.exps[i] + box_c + 1)
            if i < model.m
            else range(box_c + 1)
            for i in range(model.n)
        ]
        size = max(math.prod(map(len, ranges)) for ranges in (exponents, reach))
        if size > guard:
            raise ResourceLimitError(f"box volume {size} exceeds enumeration guard {guard}")
        lhs = set()
        for c in itertools.product(*exponents):
            mono = LocalMonomial(a, b, c)
            if is_section(model, mono, lam):
                lhs.add(regrade(model, mono)[0])
        rhs = set()
        for cprime in itertools.product(*reach):
            if snc_multiplier_section(model, cprime, k + lam):
                rhs.add(cprime)
        equal = lhs == rhs
        witness = min(lhs.symmetric_difference(rhs)) if not equal else None
        per_k.append(PerLevel(k, len(lhs), len(rhs), equal, witness))
    overall = all(p.equal for p in per_k)
    return VerificationReport(
        theorem="local",
        subject={"model": model.to_json()},
        lam=lam,
        k_range=(lo, hi),
        box=((0, box_deg), (0, box_c)),
        per_k=tuple(per_k),
        overall=overall,
        details={"inconclusive": inconclusive, "boxDeg": box_deg, "boxC": box_c},
    )


def first_non_closed_power_by_closure(a: MonomialIdeal, bound=None):
    """Smallest k <= bound with a^k not integrally closed, or None."""
    if bound is None:
        bound = max(a.nvars - 1, 1)
    for k in range(1, bound + 1):
        ak = power(a, k)
        if integral_closure(ak) != ak:
            return k
    return None


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


def first_non_closed_power_by_runs(a: MonomialIdeal, bound=None):
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


def validate_slices_reference(alg: GradedToricAlgebra):
    """Level-k lattice points must equal the exponents of a^k (k >= 1),
    the whole orthant (the unit ideal) for k <= 0.  The reference runs come
    from the generators alone: a line starts at the least last exponent of a
    generator on it or of the lines one step below, which lex order visits first.
    """
    a = alg.source
    upper = a.max_entry() * 3 + 2
    prefixes = list(itertools.product(range(upper + 1), repeat=a.nvars - 1))
    for k in range(-2 if alg.kind == EXTENDED_REES else 0, 4):
        least, want = {}, []
        for g in (power(a, k).generators if k > 0 else ((0,) * a.nvars,)):
            least[g[:-1]] = min(least.get(g[:-1], upper + 1), g[-1])
        for p in prefixes:
            below = [least[p[:i] + (e - 1,) + p[i + 1:]] for i, e in enumerate(p) if e > 0]
            least[p] = min([least.get(p, upper + 1)] + below)
            if least[p] <= upper:
                want.append((p, least[p], upper))
        if lattice_runs(alg.cone.substitute_last(k), cube(a.nvars, 0, upper)) != want:
            raise AssertionError(
                f"internal: level-{k} slice of the {alg.kind} cone of "
                f"{a.to_json()} does not match a^{k}"
            )


def validate_slices_by_runs(alg: GradedToricAlgebra):
    """Level-k lattice points must equal the exponents of a^k (k >= 1),
    the whole orthant (the unit ideal) for k <= 0."""
    a = alg.source
    box = cube(a.nvars, 0, a.max_entry() * 3 + 2)
    for k in range(-2 if alg.kind == EXTENDED_REES else 0, 4):
        if lattice_runs(alg.cone.substitute_last(k), box) != power_runs(a, k, box):
            raise AssertionError(
                f"internal: level-{k} slice of the {alg.kind} cone of "
                f"{a.to_json()} does not match a^{k}"
            )


def reduced_system(system: ThresholdSystem) -> ThresholdSystem:
    """The system of ``polyhedra._reduced_fields``: the same lattice set
    without each row the unit rows imply (once ``ThresholdSystem.reduced``)."""
    return ThresholdSystem(*polyhedra._reduced_fields(system))


def validate_slices_by_levels(alg: GradedToricAlgebra):
    """Level k of the cone must cut out a^k on all of Z^n: its reduced system
    must be that of {<w, m> >= k c} over the Newton facets of a for k >= 1,
    of the orthant for k <= 0, at k = -2..3 (0..3 on the Rees cone)."""
    a, n = alg.source, alg.nvars
    facets = [(h.normal, h.threshold) for h in newton(a).facets]
    units = [(u, 0) for u in unit_vectors(n)]
    for k in range(-2 if alg.kind == EXTENDED_REES else 0, 4):
        want = ThresholdSystem(n, tuple([(w, k * c) for w, c in facets] if k >= 1 else units))
        if reduced_system(alg.cone.substitute_last(k)) != reduced_system(want):
            raise AssertionError(
                f"internal: level-{k} slice of the {alg.kind} cone of "
                f"{a.to_json()} does not match a^{k}"
            )


def cone_by_irredundant_facets(a: MonomialIdeal, kind: str) -> GradedToricAlgebra:
    """The cone model as two separate builds made it: each kind runs its own
    normality scan, homogenizes its full row list (the Rees kind with k >= 0
    added) and keeps what ``irredundant_facets`` keeps."""
    k = first_non_closed_power(a, max(a.nvars - 1, 3))
    if k is not None:
        raise DomainError(
            "extended Rees algebra is not toric: ideal not normal "
            f"(closure differs at power {k})"
        )
    n = a.nvars
    rows = [(tuple(1 if j == i else 0 for j in range(n)) + (0,), 0) for i in range(n)]
    for w, c in newton_positive_facets(a):
        rows.append((w + (-c,), 0))
    if kind == REES:
        rows.append(((0,) * n + (1,), 0))
    poly = irredundant_facets(
        Polyhedron(n + 1, tuple(HalfSpace(w, Fraction(t)) for w, t in rows)))
    system = ThresholdSystem(n + 1, tuple((h.normal, 0) for h in poly.facets))
    alg = GradedToricAlgebra(n, kind, system, system.normals(), a)
    _validate_slices(alg)
    return alg


def _pair_box(alg: GradedToricAlgebra, lam, k_span=(-3, 6)):
    return default_box(alg.source, lam + k_span[1]) + (k_span,)


def pair_rational_by_box(a: MonomialIdeal, lam):
    """(rationalT, rationalS) of ``verify_theoremA`` by the box test: each
    multiplier module is compared with the canonical module by runs over
    the pair box, unless the canonical systems coincide."""
    lam = as_fraction(lam)
    ext = extended_rees_cone(a)
    rees = rees_cone(a)
    module = multiplier_module_principal(ext, ext.t_inverse(), lam)
    rational_t = systems_equal(module.system, canonical_module(ext).system, _pair_box(ext, lam))
    s_module = multiplier_module_general(rees, rees_ideal_generators(a), lam)
    rational_s = systems_equal(
        s_module.system, canonical_module(rees).system, _pair_box(rees, lam)
    )
    return rational_t, rational_s


def _coverage_upper(systems, nvars):
    """Per-coordinate bound containing all minimal points of the systems.

    Every system here has nonnegative normals, so its solution set is
    upward closed and determined by its minimal points.
    """
    upper = [1] * nvars
    for sys in systems:
        for w, t in sys.constraints:
            for i in range(nvars):
                if w[i] > 0:
                    slack = t - 1 - sum(w[j] for j in range(nvars) if j != i)
                    bound = _pos_ceil(slack, w[i]) + 1
                    if bound > upper[i]:
                        upper[i] = bound
    return upper


def _pos_ceil(a, b):
    if a <= 0:
        return 0
    return -((-a) // b)


def jumping_numbers_by_box(a: MonomialIdeal, lam_max, box=None) -> JumpReport:
    """Values where the multiplier module strictly shrinks.

    Candidates are exactly t / c_j over the positive Newton facet
    thresholds c_j: between consecutive candidates every floor
    floor(lam * c_j) is constant, so the module is constant and the scan
    is complete, not heuristic.  The module and ideal versions share the
    same jumps (the diagonal shift is a bijection of lattice sets).
    """
    lam_max = as_fraction(lam_max)
    if lam_max <= 0:
        raise DomainError("lambda_max must be positive")
    if box is None:
        box = default_box(a, lam_max)
    thresholds = sorted({c for _, c in newton_positive_facets(a)})
    candidates = sorted(
        {
            Fraction(t, c)
            for c in thresholds
            for t in range(1, math.floor(lam_max * c) + 1)
        }
    )
    warnings = []
    if not candidates:
        return JumpReport(a, lam_max, (), (), box, ())
    if len(candidates) > 1:
        eps = min(b - c for b, c in zip(candidates[1:], candidates)) / 2
    else:
        eps = candidates[0] / 2
    jumps = []
    for cand in candidates:
        before = multiplier_module(a, cand - eps)
        at = multiplier_module(a, cand)
        need = _coverage_upper([before.system, at.system], a.nvars)
        if any(need[i] > box[i][1] for i in range(a.nvars)):
            warnings.append(
                f"box may be too small to witness a jump at {frac_str(cand)}"
            )
        if lattice_runs(at.system, box) != lattice_runs(before.system, box):
            jumps.append(cand)
    return JumpReport(a, lam_max, tuple(jumps), tuple(candidates), box, tuple(warnings))


def jumping_numbers_by_candidates(a: MonomialIdeal, lam_max) -> JumpReport:
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


def verify_theoremB_T_by_runs(
    a: MonomialIdeal, lam, k_range=(-3, 6), box=None
) -> VerificationReport:
    """``verify_theoremB_T`` with both sides listed at every level.

    Graded decomposition of the extended-Rees multiplier module.

    LHS: level-k piece of the cone-model multiplier module of t^-1.
    RHS: the base-ring multiplier module at exponent k + lam.  The two
    routes share no code past the Newton facets, and the integer
    threshold identity c*k + floor(lam*c) + 1 = floor((k+lam)*c) + 1 is
    additionally checked symbolically per facet.
    """
    lam = as_fraction(lam)
    alg = extended_rees_cone(a)
    module = multiplier_module_principal(alg, alg.t_inverse(), lam)
    lo, hi = k_range
    if box is None:
        box = default_box(a, lam + max(hi, 0))
    per_k = []
    thresholds_identical = True
    for k in range(lo, hi + 1):
        lhs = graded_piece(module, k)
        rhs = decomposition_rhs_T(a, lam, k)
        runs = lattice_runs(lhs.system, box), lattice_runs(rhs.system, box)
        count_l, count_r, witness = compare_runs(*runs)
        per_k.append(PerLevel(k, count_l, count_r, witness is None, witness))
        lhs_t = dict(lhs.system.constraints)
        rhs_t = dict(rhs.system.constraints)
        for w in set(lhs_t) & set(rhs_t):
            if lhs_t[w] != rhs_t[w]:
                thresholds_identical = False
    overall = all(p.equal for p in per_k)
    return VerificationReport(
        theorem="B.2",
        subject={"ideal": a.to_json()},
        lam=lam,
        k_range=(lo, hi),
        box=box,
        per_k=tuple(per_k),
        overall=overall,
        details={"thresholdsIdentical": thresholds_identical},
    )


def verify_theoremB_S_by_runs(
    a: MonomialIdeal, lam, n_range=(0, 5), box=None
) -> VerificationReport:
    """``verify_theoremB_S`` with both sides listed at every level.

    Graded decomposition of the Rees multiplier module.

    Also asserts the t-degree-0 piece is empty: the decomposition starts
    at t^1.
    """
    lam = as_fraction(lam)
    alg = rees_cone(a)
    module = multiplier_module_general(alg, rees_ideal_generators(a), lam)
    lo, hi = n_range
    if lo < 0:
        raise DomainError("decomposition index must be nonnegative")
    if box is None:
        box = default_box(a, lam + max(hi + 1, 0))
    per_k = []
    for n in range(lo, hi + 1):
        lhs = graded_piece(module, n + 1)
        rhs = decomposition_rhs_S(a, lam, n)
        runs = lattice_runs(lhs.system, box), lattice_runs(rhs.system, box)
        count_l, count_r, witness = compare_runs(*runs)
        per_k.append(PerLevel(n + 1, count_l, count_r, witness is None, witness))
    degree_zero_empty = not lattice_runs(graded_piece(module, 0).system, box)
    overall = all(p.equal for p in per_k) and degree_zero_empty
    return VerificationReport(
        theorem="B.1",
        subject={"ideal": a.to_json()},
        lam=lam,
        k_range=(lo, hi),
        box=box,
        per_k=tuple(per_k),
        overall=overall,
        details={"degreeZeroEmpty": degree_zero_empty},
    )


def verify_local_decomposition_by_runs(
    model: LocalHypersurfaceModel,
    lam,
    box_deg: int = 6,
    box_c: int | None = None,
    k_range=(-4, 4),
) -> VerificationReport:
    """``verify_local_decomposition`` with both sides listed at every level.

    Per t-degree, sections of the hypersurface twist regrade onto
    exactly the SNC multiplier monomials at exponent k + lam.

    The box holds the normal forms with x, y degrees up to box_deg and
    s-exponents up to box_c; no monomial is listed one by one.  A
    compared c' is restricted to those reachable from the box
    (recorded); degrees |k| > box_deg have no monomials at all and are
    reported inconclusive rather than silently passing.

    In regraded coordinates c' (injective on normal forms, so counts and
    witnesses carry over) every condition of is_section and
    snc_multiplier_section bounds one coordinate: sections are
    c'_i >= max(1, 1 + floor(lam * a_i) + k * a_i), the SNC side is
    c'_i >= 1 + floor(mu * a_i) for mu = k + lam > 0 (else 1), and both
    need c'_i >= 1 past m.  The two sides are compared as runs over the
    reachable box.
    """
    lam = as_fraction(lam)
    if lam < 0:
        raise DomainError("lambda must be nonnegative")
    if box_deg < 0 or (box_c is not None and box_c < 0):
        raise DomainError("box_deg and box_c must be nonnegative")
    if box_c is None:
        box_c = max(model.exps) * box_deg + 2
    lo, hi = k_range
    units = [tuple(int(i == j) for j in range(model.n)) for i in range(model.n)]
    rest = [1] * (model.n - model.m)
    per_k = []
    inconclusive = []
    for k in range(lo, hi + 1):
        if abs(k) > box_deg:
            inconclusive.append(k)
            continue
        a, mu = max(k, 0), k + lam
        reach = [(a * e, a * e + box_c) for e in model.exps] + [(0, box_c)] * len(rest)
        lhs = [max(1, 1 + math.floor(lam * e) + k * e) for e in model.exps] + rest
        rhs = [1 + math.floor(mu * e) if mu > 0 else 1 for e in model.exps] + rest
        runs = [
            lattice_runs(ThresholdSystem(model.n, tuple(zip(units, need))), reach)
            for need in (lhs, rhs)
        ]
        count_l, count_r, witness = compare_runs(*runs)
        per_k.append(PerLevel(k, count_l, count_r, witness is None, witness))
    overall = all(p.equal for p in per_k)
    return VerificationReport(
        theorem="local",
        subject={"model": model.to_json()},
        lam=lam,
        k_range=(lo, hi),
        box=((0, box_deg), (0, box_c)),
        per_k=tuple(per_k),
        overall=overall,
        details={"inconclusive": inconclusive, "boxDeg": box_deg, "boxC": box_c},
    )


def walk_reference(system: ThresholdSystem, box, count: bool):
    """The lattice walk before unit rows were folded into the box:
    ``lattice_runs``, or with ``count`` ``lattice_count``, as the library
    gave them, with every row walked and none narrowing the box.

    The walk fixes coordinates in order; ``rs[ci]`` is what row ci still needs
    from the free coordinates.  A subtree's count depends only on its depth
    and ``rs``, not on the prefix, so count mode memoises it for this call.  A
    residual at most ``smin``, the least the free coordinates can add to its
    row in the box, means the row holds on the whole subtree: every such
    residual gives the same count, and the key holds None for it."""
    bounds = tuple(map(as_ints, box))
    if len(bounds) != system.rank:
        raise DomainError("box length does not match system rank")
    for lo, hi in bounds:
        if lo > hi:
            raise DomainError("box lower bound exceeds upper bound")
    volume = math.prod(hi - lo + 1 for lo, hi in bounds)
    guard = point_guard()
    if volume > guard:
        raise ResourceLimitError(f"box volume {volume} exceeds enumeration guard {guard}")
    if system.infeasible:
        return 0 if count else []
    if system.rank == 1:
        # the one line has an empty prefix: search a box with a dummy first axis
        lifted = ThresholdSystem(2, tuple(((0,) + w, t) for w, t in system.constraints))
        found = walk_reference(lifted, ((0, 0),) + bounds, count)
        return found if count else [((), lo, hi) for _, lo, hi in found]
    last = system.rank - 1
    last_lo, last_hi = bounds[last]
    ws = [w for w, _ in system.constraints]
    # smax[ci][d], smin[ci][d]: the most and least coordinates d.. can add to row ci
    ends = [[sorted((e * lo, e * hi)) for e, (lo, hi) in zip(w, bounds)] for w in ws]
    smax = [[sum(hi for _, hi in m[d:]) for d in range(last + 1)] for m in ends]
    smin = [[sum(lo for lo, _ in m[d:]) for d in range(last + 1)] for m in ends]
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
            lo, hi, rows = last_lo, last_hi, []
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
                    los = [max(lo, _ceil_div(r - wd * v, wl)) for lo, v in zip(los, vs)]
                else:
                    his = [min(hi, (r - wd * v) // wl) for hi, v in zip(his, vs)]
            if count:
                found = sum(hi - lo + 1 for lo, hi in zip(los, his) if lo <= hi)
            else:
                found = 0
                runs.extend((prefix + (v,), lo, hi) for v, lo, hi in zip(vs, los, his) if lo <= hi)
        if count:
            memo[key] = found
        return found

    found = rec(0, (), [t for _, t in system.constraints])
    return found if count else runs


def multiplier_module_principal_by_pairings(alg: GradedToricAlgebra, u, lam) -> GradedModuleSpec:
    """The principal pair's multiplier module by its direct formula, as the
    library built it before the principal pair became the one-generator
    general pair: the row <m, w_i> >= floor(lam * <u, v_i>) + 1 per cone facet
    (w_i, 0), with v_i the matching ray."""
    lam = as_exponent(lam)
    pairings = principal_divisor_pairings(alg, u)
    system = ThresholdSystem(alg.ambient_rank, tuple(
        (w, math.floor(lam * p) + 1) for (w, _), p in zip(alg.cone.constraints, pairings)))
    tail = "T" if alg.kind == EXTENDED_REES else "S"
    return GradedModuleSpec(alg.ambient_rank, system, f"MULT_{tail}({frac_str(lam)})")


def substitute_last_reference(system: ThresholdSystem, k) -> ThresholdSystem:
    """``ThresholdSystem.substitute_last`` as it was before its memo: the last
    coordinate fixed to k, rebuilt and made canonical on every call."""
    if system.rank < 2:
        raise DomainError("cannot substitute in a rank-1 system")
    k = as_int(k)
    rows = tuple((w[:-1], t - w[-1] * k) for w, t in system.constraints)
    return ThresholdSystem(system.rank - 1, rows, system.infeasible)


def decomposition_rhs_T_reference(a: MonomialIdeal, lam, k) -> MonomialModule:
    """``decomposition_rhs_T`` as it was before its integer key: the multiplier
    module at the ``Fraction`` exponent max(k + lam, 0)."""
    return multiplier_module(a, max(as_int(k) + as_exponent(lam), 0))


def reduced_fields_reference(system: ThresholdSystem):
    """``ThresholdSystem._reduced_fields`` as it was before its memo, a method
    that rebuilt the kept rows as a list on every call."""
    units = {w.index(1): t for w, t in system.constraints if min(w) >= 0 and sum(w) == 1}
    kept = [(w, t) for w, t in system.constraints if min(w) < 0 or sum(w) == 1
            or any(e and i not in units for i, e in enumerate(w))
            or t > sum(e * units[i] for i, e in enumerate(w) if e)]
    return system.rank, kept, system.infeasible


def snc_level_reference(model: LocalHypersurfaceModel, lam, k) -> ThresholdSystem:
    """The local verifier's SNC system at level k as it was built per level,
    from the ``Fraction`` mu = k + lam: c'_i >= 1 + floor(mu a_i) for i <= m
    when mu > 0, else c'_i >= 1, and c'_i >= 1 past m."""
    mu, units = as_int(k) + as_exponent(lam), unit_vectors(model.n)
    rhs = [interior_threshold(mu, e) for e in model.exps] if mu > 0 else [1] * model.m
    return ThresholdSystem(model.n, tuple(zip(units, rhs + [1] * (model.n - model.m))))


def section_system_reference(model: LocalHypersurfaceModel, lam) -> ThresholdSystem:
    """The local verifier's graded section system over (c', t) as it was built
    by hand, once per lam: c'_i >= 1 for every i and
    c'_i - a_i t >= 1 + floor(lam a_i) for i <= m."""
    lam, units = as_exponent(lam), unit_vectors(model.n)
    return ThresholdSystem(model.n + 1, [(u + (0,), 1) for u in units] + [
        (u + (-e,), interior_threshold(lam, e)) for u, e in zip(units, model.exps)])


def cone_by_facet_rows_reference(a: MonomialIdeal, kind: str) -> GradedToricAlgebra:
    """The cone models as they were built from Newton facet rows, after the
    normality scan: the extended cone keeps the rows (e_i, 0) and (w, -c) per
    positive Newton facet that ``_facet_rows`` marks as facets, the Rees cone
    those of the extended cone's facet rows with e_{n+1} added."""
    k = first_non_closed_power(a, max(a.nvars - 1, 3))
    if k is not None:
        raise NotNormalError(
            "extended Rees algebra is not toric: ideal not normal "
            f"(closure differs at power {k})"
        )
    n = a.nvars
    rows = [u + (0,) for u in unit_vectors(n)] + [w + (-c,) for w, c in newton_positive_facets(a)]
    rows = [rows[i] for i in _facet_rows(rows, n + 1)]
    if kind == REES:
        rows += unit_vectors(n + 1)[-1:]
        rows = [rows[i] for i in _facet_rows(rows, n + 1)]
    system = ThresholdSystem(n + 1, tuple((w, 0) for w in rows))
    alg = GradedToricAlgebra(n, kind, system, system.normals(), a)
    _validate_slices(alg)
    return alg


def graded_newton_reference(alg: GradedToricAlgebra, gens) -> Polyhedron:
    """conv(gens) + cone as the library built it before the module was read
    off the algebra's generators: the cone's rays listed from its facet
    normals, then ``points_plus_cone``."""
    normals = alg.cone.normals()
    recession = Cone(
        alg.ambient_rank,
        homogeneous_rays(list(normals), alg.ambient_rank),
        tuple(HalfSpace(w, 0) for w in normals),
    )
    return points_plus_cone(gens, recession, alg.ambient_rank)
