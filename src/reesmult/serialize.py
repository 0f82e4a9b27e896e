"""Rationals as "p/q" strings and deterministic JSON output.

No floats cross any I/O boundary: every rational is a string "p/q"
(or just "p" when the denominator is 1), and JSON is emitted with
sorted keys and fixed separators so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import ParseError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def frac_str(value) -> str:
    """Format an exact rational as "p/q" ("p" when q = 1)."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction; decimals and floats are refused."""
    if not isinstance(text, str):
        raise ParseError(f"rationals must be p/q, got {text!r}")
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ParseError(f"rationals must be p/q, got {text!r}")
    num, _, den = s.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError as exc:  # more digits than int() reads
        raise ParseError(f"cannot read rational: {exc}") from None
    if den == 0:
        raise ParseError(f"zero denominator in rational {text!r}")
    return Fraction(num, den)


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, fixed separators, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
