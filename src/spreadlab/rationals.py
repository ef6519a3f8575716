"""Parsing and formatting of exact rationals for the JSON wire format.

Numbers cross every file boundary as strings like "3/4" or "-2" (plain
integers are also accepted).  Floats are rejected outright: the package
guarantees bit-exact arithmetic, and a decimal literal has no faithful
rational reading once it has been through binary floating point.
"""

from __future__ import annotations

import sys
from fractions import Fraction


def parse_rational(value) -> Fraction:
    """Parse "p/q" or integer text (or a plain int) into a Fraction."""
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                num, _, den = text.partition("/")
                return Fraction(int(num.strip()), int(den.strip()))
            return Fraction(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            limit = sys.get_int_max_str_digits()
            digits = max(sum(ch.isdigit() for ch in part) for part in text.split("/"))
            if limit and digits > limit:
                raise ValueError(
                    f"rational too long: an integer part has {digits} digits, over the limit of {limit}"
                ) from None
            raise ValueError(f"malformed rational {value!r}: {exc}") from None
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"malformed rational {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ValueError(
            f"malformed rational {value!r}: floats are not accepted, use 'p/q' text"
        )
    raise ValueError(f"malformed rational {value!r}")


def format_rational(value) -> str:
    """Render a rational as "p/q", or plain "p" when the denominator is 1
    (exactly the text ``str`` gives a Fraction)."""
    return str(value if isinstance(value, Fraction) else Fraction(value))
