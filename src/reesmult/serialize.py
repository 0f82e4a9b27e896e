"""Rationals as "p/q" strings, deterministic JSON output, and ``Record``,
the base of the immutable value classes.

No floats cross any I/O boundary: every rational is a string "p/q"
(or just "p" when the denominator is 1), and JSON is emitted with
sorted keys and fixed separators so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from operator import attrgetter

from .errors import ParseError

_INT_RE = re.compile(r"[+-]?[0-9]+")
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


class Record:
    """Immutable value over the fields ``__slots__``, compared, hashed and shown
    field-wise; subclasses write every field once, through ``self._set``, in
    ``__init__``.

    The base's one slot ``_h`` memoises the hash of the field tuple on the
    first ``hash``.  It is derived from the fields, not one of them, so
    ``_key``, ``==``, ``repr`` and pickle never see it and a clone computes
    its own.  A record with an unhashable field raises ``TypeError`` on
    every ``hash`` and stores nothing."""

    __slots__ = ("_h",)

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls.__slots__)
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls.__slots__)

    def _set(self, *values):
        """Write ``values`` into the fields in ``__slots__`` order; the count is checked
        up front, as ``zip(strict=True)`` costs more per record."""
        setters = self._setters
        if len(values) != len(setters):
            raise ValueError(f"{len(values)} values for the fields {self.__slots__}")
        for setter, value in zip(setters, values):
            setter(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        try:
            return self._h
        except AttributeError:
            h = hash(self._key(self))
            _set_hash(self, h)
            return h

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return self.__class__, tuple(getattr(self, f) for f in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


_set_hash = Record._h.__set__


def frac_str(value) -> str:
    """Format an exact rational as "p/q" ("p" when q = 1)."""
    if type(value) is int:
        return str(value)
    f = value if isinstance(value, Fraction) else Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction; decimals and floats are refused."""
    if not isinstance(text, str):
        raise ParseError(f"rationals must be p/q, got {text!r}")
    s = text.strip()
    if not _RATIONAL_RE.fullmatch(s):
        raise ParseError(f"rationals must be p/q, got {text!r}")
    num, _, den = s.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError as exc:  # more digits than int() reads
        raise ParseError(f"cannot read rational: {exc}") from None
    if den == 0:
        raise ParseError(f"zero denominator in rational {text!r}")
    return Fraction(num, den)


def parse_int(text: str) -> int:
    """``int(text)`` for a signed decimal in ASCII digits, else ValueError:
    ``int`` alone also reads "1_0", surrounding blanks and non-ASCII digits."""
    if not _INT_RE.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, fixed separators, no whitespace drift.  The
    circular check is off: every ``to_json`` builds a fresh tree, which cannot hold itself."""
    return _ENCODER.encode(obj)
