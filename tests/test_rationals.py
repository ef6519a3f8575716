import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spreadlab import format_rational, parse_rational


def test_parse_basic_forms():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational(5) == Fraction(5)
    assert parse_rational(Fraction(2, 6)) == Fraction(1, 3)


def test_parse_rejects_floats_and_bools():
    with pytest.raises(ValueError):
        parse_rational(0.5)
    with pytest.raises(ValueError):
        parse_rational(True)
    with pytest.raises(ValueError):
        parse_rational("0.5")


@pytest.mark.parametrize("bad", ["", "1/0", "a/b", "1/2/3", None, [1, 2]])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_integer_values_drop_denominator():
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-3)) == "-3"
    assert format_rational(Fraction(1, 3)) == "1/3"


@given(st.fractions())
def test_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@pytest.mark.parametrize("text", ["7" * 5000, "1/" + "3" * 5000, "-" + "9" * 5000 + "/2"])
def test_overlong_integer_part_gets_a_short_message(text):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the interpreter's integer digit limit is off")
    with pytest.raises(ValueError) as info:
        parse_rational(text)
    message = str(info.value)
    assert "5000 digits" in message
    assert str(limit) in message
    assert len(message) < 100
