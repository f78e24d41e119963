"""Exact rational values.

All bundle values in this package are exact rationals, represented either as
Python ``int`` or :class:`fractions.Fraction`.  The two interoperate exactly
under arithmetic, comparison and hashing, so a mixed table stays exact while
integer-only tables keep integer speed.  Floats are rejected everywhere: the
axiom checkers rely on exact strict/non-strict comparisons, and a single
rounded value can flip a verdict.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Value = Union[int, Fraction]


def as_value(x: object) -> Value:
    """Validate and normalise one exact value.

    Accepts ``int``, ``Fraction`` or a string understood by
    :func:`parse_value`.  Fractions with denominator 1 are normalised to
    ``int``.  Anything else, bools and floats included, raises
    ``ValueError("not an exact rational value: 1.5 (float)")``, naming the
    value and its type; a string that does not parse raises
    :func:`parse_value`'s error.  This is the one check of what a value is:
    valuations and instance documents both read values through it.
    """
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, str):
        return parse_value(x)
    raise ValueError(f"not an exact rational value: {x!r} ({type(x).__name__})")


def parse_value(text: str) -> Value:
    """Parse ``"5"``, ``"-3/2"`` or an exact decimal such as ``"1.5"``."""
    try:
        f = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse exact value from {text!r}") from exc
    return int(f) if f.denominator == 1 else f


def format_value(v: Value) -> str:
    """Canonical string form, as Python prints it: integers plain, otherwise ``"p/q"``."""
    if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
        raise ValueError(f"not an exact rational value: {v!r}")
    return str(v)
