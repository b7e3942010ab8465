from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tropinv import ParseError, ValueTooLarge
from tropinv.rational import as_fraction, decimal_string, format_rational, parse_rational


def test_parse_basic():
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("6/4") == Fraction(3, 2)
    assert parse_rational("+5") == 5


@pytest.mark.parametrize("bad", ["", "1.5", "1/0", "a", "1 / 2", "1/-2", "--3", None, 2.5])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


def test_format():
    assert format_rational(Fraction(3, 1)) == "3"
    assert format_rational(Fraction(-3, 6)) == "-1/2"
    assert format_rational(0) == "0"


def test_format_beyond_the_string_limit():
    # str(int) refuses more than 4300 digits; 10**5000 has 5001
    for value in (10**5000, Fraction(1, 10**5000), Fraction(10**5000 + 1, 3)):
        with pytest.raises(ValueTooLarge):
            format_rational(value)


@given(st.integers(min_value=-10**12, max_value=10**12), st.integers(min_value=1, max_value=10**9))
def test_roundtrip(num, den):
    f = Fraction(num, den)
    assert parse_rational(format_rational(f)) == f


def test_as_fraction():
    assert as_fraction(5) == 5
    assert as_fraction("5/3") == Fraction(5, 3)
    assert as_fraction(Fraction(1, 7)) == Fraction(1, 7)
    with pytest.raises(ParseError):
        as_fraction(0.5)
    with pytest.raises(ParseError):
        as_fraction(True)


def test_decimal_string():
    assert decimal_string(Fraction(1, 3), 12) == "0.333333333333"
    assert decimal_string(Fraction(1, 9), 6).startswith("0.111111")
    assert decimal_string(Fraction(7, 1), 5) == "7"
