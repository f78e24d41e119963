import re
from fractions import Fraction
from itertools import product

import pytest

from fairkit import as_value, format_value, parse_value


def test_parse_forms():
    assert parse_value("5") == 5
    assert parse_value("-3") == -3
    assert parse_value("3/2") == Fraction(3, 2)
    assert parse_value("-7/3") == Fraction(-7, 3)
    assert parse_value("1.5") == Fraction(3, 2)
    assert parse_value(" 2 ") == 2


def test_parse_rejects_garbage():
    for bad in ("", "x", "1/0", "1..5"):
        with pytest.raises(ValueError):
            parse_value(bad)


def test_format_round_trip():
    for v in (0, 5, -12, Fraction(3, 2), Fraction(-1, 2), Fraction(10, 5)):
        assert parse_value(format_value(v)) == v
    assert format_value(Fraction(10, 5)) == "2"
    assert format_value(Fraction(-1, 2)) == "-1/2"
    for bad in (1.5, True):
        with pytest.raises(ValueError, match=rf"^not an exact rational value: {bad!r}$"):
            format_value(bad)


def test_as_value_normalises_and_rejects():
    assert as_value(Fraction(4, 2)) == 2
    assert isinstance(as_value(Fraction(4, 2)), int)
    assert as_value("3/2") == Fraction(3, 2)
    assert as_value(-7) == -7
    # every rejected value is named with its type
    for bad, kind in ((1.5, "float"), (True, "bool"), (False, "bool"), (None, "NoneType"),
                      ([1], "list"), ({}, "dict")):
        with pytest.raises(ValueError, match=rf"^not an exact rational value: "
                                             rf"{re.escape(repr(bad))} \({kind}\)$"):
            as_value(bad)
    with pytest.raises(ValueError, match=r"^cannot parse exact value from 'x'$"):
        as_value("x")


def test_exact_arithmetic_round_trips():
    # (a + b) - b recovers a exactly for every pair of small rationals
    values = {Fraction(p, q) for p in range(-12, 13) for q in range(1, 7)}
    for a, b in product(values, repeat=2):
        assert (a + b) - b == a


def test_mixed_int_fraction_comparisons_are_exact():
    assert Fraction(1, 3) + Fraction(2, 3) == 1
    assert (Fraction(1, 3) < 1) and (Fraction(4, 3) > 1)
