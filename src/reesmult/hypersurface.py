"""Local toric hypersurface model xy = s_1^{a_1} ... s_m^{a_m}.

Torus-invariant divisor data, the canonical divisor, section membership
for the floor-threshold twist of the canonical module, the regrading of
monomials into t-degrees, and the local verification that the section
conditions on the hypersurface side coincide, degree by degree, with
the simple-normal-crossing multiplier conditions on the base.

Normal form: the relation xy = f rewrites every monomial so that
min(x-degree, y-degree) = 0, which gives each monomial of the ring
exactly one form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .polyhedra import (
    CACHE_SIZE,
    ThresholdSystem,
    as_exponent,
    as_fraction,
    as_int,
    as_ints,
    as_range,
    interior_threshold,
    unit_vectors,
)
from .rees import VerificationReport, _level_report
from .serialize import Record


class LocalHypersurfaceModel(Record):
    """The ring k[x, y, s_1..s_n]/(xy - s_1^{a_1}...s_m^{a_m})."""

    __slots__ = ("n", "m", "exps")

    def __init__(self, n: int, m: int, exps):
        n, m = as_int(n), as_int(m)
        if not (1 <= m <= n):
            raise DomainError("need 1 <= m <= n")
        exps = as_ints(exps)
        if len(exps) != m or any(e < 1 for e in exps):
            raise DomainError("need m positive exponents")
        self._set(n, m, exps)

    def to_json(self):
        return {"n": self.n, "m": self.m, "exps": list(self.exps)}


class LocalMonomial(Record):
    """x^a y^b s^c in normal form (min(a, b) = 0, all exponents >= 0)."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c):
        a, b = as_int(a), as_int(b)
        if a < 0 or b < 0 or min(a, b) != 0:
            raise DomainError("monomial not in normal form: need min(a, b) = 0")
        c = as_ints(c)
        if any(e < 0 for e in c):
            raise DomainError("negative s-exponent")
        self._set(a, b, c)


def _exponents(model: LocalHypersurfaceModel, c):
    """``c`` as ints, one per s-variable of the model; any other length is refused."""
    c = as_ints(c)
    if len(c) != model.n:
        raise DomainError("s-exponent length does not match model n")
    return c


def normal_form(model: LocalHypersurfaceModel, a: int, b: int, c) -> LocalMonomial:
    """Rewrite xy -> f until one of the x/y exponents vanishes."""
    t = min(a, b)
    c = list(_exponents(model, c))
    for i in range(model.m):
        c[i] += t * model.exps[i]
    return LocalMonomial(a - t, b - t, tuple(c))


class DivisorData(Record):
    """Rays/divisors of the model with canonical and x, y divisor coefficients."""

    __slots__ = ("labels", "canonical", "div_x", "div_y")

    def __init__(self, labels, canonical, div_x, div_y):
        self._set(labels, canonical, div_x, div_y)


def divisor_data(model: LocalHypersurfaceModel) -> DivisorData:
    """The 2m + (n - m) torus-invariant prime divisors.

    The canonical divisor has coefficient -1 on every ray; div(x) and
    div(y) are supported on the x-side resp. y-side rays with the f
    exponents as coefficients.
    """
    labels = (
        tuple(f"D_x,{i + 1}" for i in range(model.m))
        + tuple(f"D_y,{i + 1}" for i in range(model.m))
        + tuple(f"D_{i + 1}" for i in range(model.m, model.n))
    )
    count = 2 * model.m + (model.n - model.m)
    canonical = (-1,) * count
    div_x = tuple(model.exps) + (0,) * (count - model.m)
    div_y = (0,) * model.m + tuple(model.exps) + (0,) * (model.n - model.m)
    return DivisorData(labels, canonical, div_x, div_y)


def monomial_pairings(model: LocalHypersurfaceModel, mono: LocalMonomial):
    """Vanishing orders of the monomial along each ray, matching divisor_data."""
    c = _exponents(model, mono.c)
    orders_x = tuple(mono.a * e + ci for e, ci in zip(model.exps, c))
    orders_y = tuple(mono.b * e + ci for e, ci in zip(model.exps, c))
    return orders_x + orders_y + c[model.m:]


def is_section(model: LocalHypersurfaceModel, mono: LocalMonomial, lam) -> bool:
    """Membership in the floor-threshold twist O(ceil(K - lam * div(y))).

    Conditions: a*a_i + c_i >= 1 and b*a_i + c_i >= 1 + floor(lam * a_i)
    for i <= m, and c_i >= 1 for i > m.
    """
    lam = as_exponent(lam)
    c = _exponents(model, mono.c)
    return all(mono.a * e + ci >= 1 and mono.b * e + ci >= interior_threshold(lam, e)
               for e, ci in zip(model.exps, c)) and all(ci >= 1 for ci in c[model.m:])


def regrade(model: LocalHypersurfaceModel, mono: LocalMonomial):
    """Map x^a y^b s^c to (c', k): c'_i = c_i + a*a_i for i <= m, k = a - b.

    Injective on normal forms: a = max(k, 0) and b = max(-k, 0) are
    recoverable, hence c.
    """
    c = _exponents(model, mono.c)
    return tuple(ci + mono.a * e for ci, e in zip(c, model.exps)) + c[model.m:], mono.a - mono.b


def snc_multiplier_section(model: LocalHypersurfaceModel, cprime, mu) -> bool:
    """Membership in the simple-normal-crossing multiplier condition at
    exponent mu: c'_i >= 1 + floor(mu * a_i) for i <= m and c'_i >= 1
    past m; for mu <= 0 only the canonical-module condition c' >= 1."""
    mu = as_fraction(mu)
    cprime = _exponents(model, cprime)
    if any(e < 0 for e in cprime):
        raise DomainError("negative exponent")
    if mu <= 0:
        return all(e >= 1 for e in cprime)
    for i in range(model.n):
        need = interior_threshold(mu, model.exps[i]) if i < model.m else 1
        if cprime[i] < need:
            return False
    return True


@lru_cache(maxsize=CACHE_SIZE)
def _snc_level(model: LocalHypersurfaceModel, p: int, q: int) -> ThresholdSystem:
    # the SNC side at mu = p/q in lowest terms; every mu <= 0 is keyed (0, 1), so c' >= 1
    mu = Fraction(p, q)
    rhs = [interior_threshold(mu, e) for e in model.exps] + [1] * (model.n - model.m)
    return ThresholdSystem(model.n, tuple(zip(unit_vectors(model.n), rhs)))


def verify_local_decomposition(
    model: LocalHypersurfaceModel,
    lam,
    box_deg: int = 6,
    box_c: int | None = None,
    k_range=(-4, 4),
) -> VerificationReport:
    """Per t-degree, sections of the hypersurface twist regrade onto
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
    need c'_i >= 1 past m.  The section side is the slice at t = k of one
    graded system over (c', t), rows c'_i >= 1 for every i and
    c'_i - a_i t >= 1 + floor(lam * a_i) for i <= m, so it is built once
    per lam and its levels come from ``substitute_last``'s memo; the SNC
    side still comes from its own formula, memoised on (model, mu) with
    mu = (kq + p)/q for lam = p/q in lowest terms.  The two sides are
    compared over the reachable box by ``compare_systems``; they are the
    same system at every level, so each level is counted and nothing is
    listed.
    """
    lam = as_exponent(lam)
    box_deg = as_int(box_deg)
    box_c = max(model.exps) * box_deg + 2 if box_c is None else as_int(box_c)
    if box_deg < 0 or box_c < 0:
        raise DomainError("box_deg and box_c must be nonnegative")
    lo, hi = as_range(k_range)
    units, p, q = unit_vectors(model.n), lam.numerator, lam.denominator

    def levels():  # a generator: nothing is built before _level_report's range guard
        graded = ThresholdSystem(model.n + 1, [(u + (0,), 1) for u in units] + [
            (u + (-e,), interior_threshold(lam, e)) for u, e in zip(units, model.exps)])
        for k in range(max(lo, -box_deg), min(hi, box_deg) + 1):
            a, num = max(k, 0), k * q + p  # k + lam = num/q, in lowest terms
            reach = tuple((a * e, a * e + box_c) for e in model.exps) + (
                (0, box_c),) * (model.n - model.m)
            yield (k, graded.substitute_last(k),
                   _snc_level(model, num, q) if num > 0 else _snc_level(model, 0, 1), reach)

    return _level_report("local", {"model": model.to_json()}, lam, (lo, hi),
                         ((0, box_deg), (0, box_c)), levels(),
                         lambda count: {"inconclusive": [k for k in range(lo, hi + 1)
                                                         if abs(k) > box_deg],
                                        "boxDeg": box_deg, "boxC": box_c})
