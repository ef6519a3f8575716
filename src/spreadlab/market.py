"""Bid-ask markets: one risky asset quoted with a proportional cost.

The bond is the numeraire and pays no interest.  The risky asset trades at
the ask S(n) when buying and at the bid (1 - lambda) S(n) when selling,
with a single cost level lambda in [0, 1) across the whole tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .rationals import format_rational, parse_rational, rational_reader
from .tree import AdaptedProcess, EventTree, InputError, _adapted_problems, load_tree


class MarketError(InputError):
    """An invalid market description."""


@dataclass(frozen=True)
class Market:
    """The asks S on a tree and the cost level, valid when built:
    construction raises MarketError listing what `validate_market` finds."""

    tree: EventTree
    price: AdaptedProcess
    fee: Fraction

    def __post_init__(self):
        problems = validate_market(self)
        if problems:
            raise MarketError(problems)


def validate_market(market: Market) -> list[str]:
    """Return all violations of the market's standing assumptions: prices
    that `ensure_adapted` accepts, all positive (tested only once it
    accepts them), and lambda a Fraction or an int in [0, 1)."""
    price = market.price.values
    problems = _adapted_problems(market.tree, price, "price")
    if not problems:
        for n in market.tree.nodes:
            if price[n].numerator <= 0:
                problems.append(f"node {n}: price {price[n]} is not positive")
    fee = market.fee
    if type(fee) is bool or not isinstance(fee, (Fraction, int)):
        problems.append(f"lambda {fee!r} is not a Fraction or an int")
    elif not (0 <= fee < 1):
        problems.append(f"lambda must satisfy 0 <= lambda < 1, got {fee}")
    return problems


def make_market(tree: EventTree, price: AdaptedProcess, fee) -> Market:
    """Assemble and validate a market, raising MarketError on any problem."""
    return Market(tree=tree, price=price, fee=parse_rational(fee))


def load_market(document: Mapping) -> Market:
    """Parse a market document: a tree whose nodes carry "S" plus a
    top-level "lambda"."""
    tree = load_tree(document)
    read = rational_reader()
    problems: list[str] = []

    if "lambda" not in document:
        problems.append("missing 'lambda'")
        fee = Fraction(0)
    else:
        try:
            fee = read(document["lambda"])
        except ValueError as exc:
            problems.append(f"lambda: {exc}")
            fee = Fraction(0)

    prices: dict[int, Fraction] = {}
    for spec in document["nodes"]:
        node = spec["id"]
        if "S" not in spec:
            problems.append(f"node {node}: missing 'S'")
            continue
        try:
            prices[node] = read(spec["S"])
        except ValueError as exc:
            problems.append(f"node {node}: {exc}")
    if problems:
        raise MarketError(problems)

    return Market(tree=tree, price=AdaptedProcess(prices), fee=fee)


def market_to_doc(market: Market) -> dict:
    """Serialize back to the JSON wire shape accepted by load_market."""
    tree = market.tree
    nodes = []
    for n in tree.nodes:
        spec = {
            "id": n,
            "parent": tree.parent[n],
            "prob": format_rational(tree.cond_prob[n]),
            "S": format_rational(market.price[n]),
        }
        nodes.append(spec)
    return {
        "times": [format_rational(t) for t in tree.times],
        "lambda": format_rational(market.fee),
        "nodes": nodes,
    }
