"""Parsing and formatting of exact rationals for the JSON wire format.

Numbers cross every file boundary as strings like "3/4" or "-2" in ASCII
digits (plain integers are also accepted).  Floats are rejected outright:
the package guarantees bit-exact arithmetic, and a decimal literal has no
faithful rational reading once it has been through binary floating point.

Documents repeat their texts heavily (a binomial market has a handful of
distinct probabilities and prices over thousands of nodes), so the loaders
read through ``rational_reader``, which parses each distinct text once.
Its table belongs to one loader call: it is dropped with the document, so
nothing read from one input is held for, or served to, the next.

``format_rational`` writes any value exactly, however long: past the
interpreter's integer string limit it converts the digits itself instead
of lifting that process-wide limit.  ``format_map`` writes a per-node map
through it, over node keys that ``node_keys`` sorts and converts to text
once for all the maps of one report.
"""

from __future__ import annotations

import decimal
import sys
from fractions import Fraction
from typing import Callable, Iterable, Mapping

# exact enough for any integer: the precision and exponent range are the maximum
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)


def ascii_int(text: str) -> int:
    """``int(text)`` for a sign and ASCII digits, with whitespace around them.

    ``int`` also reads underscores between digits and the digits of every
    other script ("1_0" is 10, "٣" is 3); no writer of the wire format emits
    them, so they are refused here as any other malformed text is.
    """
    text = text.strip()
    if not text.isascii() or "_" in text:
        raise ValueError("an integer takes ASCII digits, with no underscores")
    return int(text)


def parse_rational(value) -> Fraction:
    """Parse "p/q" or integer text (or a plain int) into a Fraction."""
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                num, _, den = text.partition("/")
                return Fraction(ascii_int(num), ascii_int(den))
            return Fraction(ascii_int(text))
        except (ValueError, ZeroDivisionError) as exc:
            limit = sys.get_int_max_str_digits()
            digits = max(sum("0" <= ch <= "9" for ch in part) for part in text.split("/"))
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


def rational_reader() -> Callable[[object], Fraction]:
    """A ``parse_rational`` for one document: each distinct text is parsed
    once and its repeats get the same Fraction.

    Only ``str`` values are remembered, so ``True`` is still rejected after
    ``1``; a text that fails to parse is not remembered and fails again
    with the same message at every place it appears.
    """
    table: dict[str, Fraction] = {}

    def read(value) -> Fraction:
        if type(value) is not str:
            return parse_rational(value)
        parsed = table.get(value)
        if parsed is None:
            parsed = table[value] = parse_rational(value)
        return parsed

    return read


def _digits(n: int) -> str:
    return str(_EXACT.create_decimal(n))


def format_rational(value) -> str:
    """Render a rational as "p/q", or plain "p" when the denominator is 1
    (exactly the text ``str`` gives a Fraction, at any length)."""
    q = value if isinstance(value, Fraction) else Fraction(value)
    try:
        return str(q)
    except ValueError:
        # an integer past sys.get_int_max_str_digits()
        if q.denominator == 1:
            return _digits(q.numerator)
        return f"{_digits(q.numerator)}/{_digits(q.denominator)}"


def node_keys(nodes: Iterable) -> list:
    """The nodes in id order, each paired with its text: the keys of a
    per-node map on the wire, for every map of one report."""
    return [(n, str(n)) for n in sorted(nodes)]


def format_map(values: Mapping, keys: list) -> dict:
    """A per-node map on the wire: the text of each node of ``keys`` (from
    ``node_keys``) that ``values`` holds, to its value as ``format_rational``
    writes it, in node order.  ``values`` holds no node outside ``keys``."""
    if len(values) == len(keys):  # every node: no membership test
        return {text: format_rational(values[n]) for n, text in keys}
    return {text: format_rational(values[n]) for n, text in keys if n in values}
