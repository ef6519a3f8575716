"""Trading strategies: post-trade holdings and the self-financing test.

A strategy records, at every node of its tree, the bond and stock
positions held *after* trading there.  The pre-trade position at a node is
the parent's post-trade position (zero at the root), so each node sees
exactly one rebalancing at that node's quotes.

Self-financing is an inequality, not an identity: purchases are funded at
the ask, sales credited at the bid, and throwing money away is allowed.
The slack at a node measures exactly how much was thrown away there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .market import Market
from .rationals import format_rational, rational_reader
from .tree import (
    AdaptedProcess, EventTree, InputError, NodeId, _adapted_problems, ensure_adapted, ensure_bound, ensure_node,
    is_mapping,
)

_ZERO = Fraction(0)
_FLAT = (_ZERO, _ZERO)


class StrategyError(InputError):
    """An invalid strategy description."""


@dataclass(frozen=True)
class Strategy:
    """Post-trade holdings per node, bond and stock units, bound to its tree
    and checked once, when built: each leg holds a Fraction or an int at
    exactly the tree's nodes, or construction raises StrategyError listing
    every problem `ensure_adapted`'s check finds."""

    tree: EventTree
    bond: AdaptedProcess
    stock: AdaptedProcess

    def __post_init__(self):
        tree = self.tree
        problems = _adapted_problems(tree, self.bond.values, "bond holding")
        problems += _adapted_problems(tree, self.stock.values, "stock holding")
        if problems:
            raise StrategyError(problems)


@dataclass(frozen=True)
class SelfFinancingReport:
    ok: bool
    slack: AdaptedProcess
    violations: tuple[NodeId, ...]


def ensure_strategy(tree: EventTree, strategy: Strategy) -> None:
    """Refuse a strategy bound to another tree with TreeError, by
    `ensure_bound`.  No node is walked: `Strategy` checked them."""
    ensure_bound(tree, strategy, "strategy")


def pre_trade_holdings(strategy: Strategy, node: NodeId) -> tuple[Fraction, Fraction]:
    """Holdings carried into a node before it trades; (0, 0) at the root.
    Raises TreeError unless ``node`` is an int id of the strategy's tree."""
    tree = strategy.tree
    ensure_node(tree, node)
    parent = tree.parent[node]
    if parent is None:
        return _FLAT
    return strategy.bond[parent], strategy.stock[parent]


def _slack(
    bond_in: Fraction, stock_in: Fraction, bond: Fraction, stock: Fraction, ask: Fraction, keep: Fraction
) -> Fraction:
    """The self-financing formula: the bond ceiling after trading from
    (bond_in, stock_in) to ``stock`` at quotes [keep * ask, ask], minus
    ``bond``.  Purchases pay the ask, sales are credited the bid.

    One integer expression and one normalization, as the tree module
    describes: bond_in - bond - r * (stock - stock_in), r the ask or the
    bid by the sign of the trade.  A node that does not trade subtracts
    its bonds alone, so two int bonds still give an int.
    """
    sn, sd = stock.as_integer_ratio()
    tn, td = stock_in.as_integer_ratio()
    dn, dd = sn * td - tn * sd, sd * td  # the trade, stock - stock_in
    if not dn:
        return bond_in - bond
    rn, rd = ask.as_integer_ratio()
    if dn < 0:
        kn, kd = keep.as_integer_ratio()
        rn, rd = rn * kn, rd * kd
    in_n, in_d = bond_in.as_integer_ratio()
    bn, bd = bond.as_integer_ratio()
    return Fraction((in_n * bd - bn * in_d) * rd * dd - rn * dn * in_d * bd, in_d * bd * rd * dd)


def check_self_financing(market: Market, strategy: Strategy) -> SelfFinancingReport:
    """The cash each node's trade leaves on the table, in one sweep.

    The bond can increase by at most the bid proceeds of stock sold, minus
    the ask cost of stock bought; a node's slack is that ceiling minus the
    actual bond increment.  Nonnegative slack everywhere is exactly the
    self-financing property.
    """
    tree = market.tree
    ensure_strategy(tree, strategy)
    keep = 1 - market.fee
    price, bond, stock, parent = market.price.values, strategy.bond.values, strategy.stock.values, tree.parent
    slack: dict[NodeId, Fraction] = {}
    bad: list[NodeId] = []
    for n in tree.nodes:
        p = parent[n]
        bond_in, stock_in = _FLAT if p is None else (bond[p], stock[p])
        s = slack[n] = _slack(bond_in, stock_in, bond[n], stock[n], price[n], keep)
        if s.numerator < 0:
            bad.append(n)
    return SelfFinancingReport(ok=not bad, slack=AdaptedProcess(slack), violations=tuple(bad))


def derive_bond_account(market: Market, stock_plan: AdaptedProcess) -> Strategy:
    """Complete a stock plan into the tight self-financing strategy.

    Every trade settles at its exact quote with zero slack: the bond
    account is credited the full bid proceeds of sales and debited the
    full ask cost of purchases, starting from zero before the root trade.
    That bond is the slack the same trade would leave with no bond held.
    """
    tree = market.tree
    ensure_adapted(tree, stock_plan, "stock plan")
    keep = 1 - market.fee
    bond: dict[NodeId, Fraction] = {}
    for n in tree.nodes:
        p = tree.parent[n]
        bond_in, stock_in = _FLAT if p is None else (bond[p], stock_plan[p])
        bond[n] = _slack(bond_in, stock_in, _ZERO, stock_plan[n], market.price[n], keep)
    return Strategy(tree, AdaptedProcess(bond), stock_plan)


def load_strategy(document: Mapping, tree: EventTree) -> Strategy:
    """Parse holdings from {"holdings": [{"node", "phi0", "phi1"}, ...]}
    into a strategy bound to ``tree``.

    Nodes omitted from the document inherit their parent's post-trade
    holdings (no trade); an omitted root starts flat at (0, 0).
    """
    problems: list[str] = []
    if not isinstance(document, Mapping) or "holdings" not in document:
        raise StrategyError(["strategy document must be an object with 'holdings'"])
    if not isinstance(document["holdings"], list):
        raise StrategyError([f"'holdings' must be a list, got {type(document['holdings']).__name__}"])

    read = rational_reader()
    given: dict[NodeId, tuple[Fraction, Fraction]] = {}
    for i, spec in enumerate(document["holdings"]):
        if not is_mapping(spec) or "node" not in spec:
            problems.append(f"holdings[{i}]: each entry needs a 'node'")
            continue
        node = spec["node"]
        if not isinstance(node, int) or isinstance(node, bool):
            problems.append(f"holdings[{i}]: 'node' must be an integer id, got {node!r}")
            continue
        if node not in tree.node_set:
            problems.append(f"node {node}: not in tree")
            continue
        if node in given:
            problems.append(f"node {node}: duplicate entry")
            continue
        try:
            phi0 = read(spec["phi0"]) if "phi0" in spec else None
            phi1 = read(spec["phi1"]) if "phi1" in spec else None
        except ValueError as exc:
            problems.append(f"node {node}: {exc}")
            continue
        if phi0 is None or phi1 is None:
            problems.append(f"node {node}: needs both 'phi0' and 'phi1'")
            continue
        given[node] = (phi0, phi1)
    if problems:
        raise StrategyError(problems)

    bond: dict[NodeId, Fraction] = {}
    stock: dict[NodeId, Fraction] = {}
    for n in tree.nodes:
        if n in given:
            bond[n], stock[n] = given[n]
        else:
            p = tree.parent[n]
            if p is None:
                bond[n], stock[n] = Fraction(0), Fraction(0)
            else:
                bond[n], stock[n] = bond[p], stock[p]
    return Strategy(tree, AdaptedProcess(bond), AdaptedProcess(stock))


def strategy_to_doc(strategy: Strategy) -> dict:
    """Serialize holdings at every node of its tree (explicit, no inheritance)."""
    return {
        "holdings": [
            {
                "node": n,
                "phi0": format_rational(strategy.bond[n]),
                "phi1": format_rational(strategy.stock[n]),
            }
            for n in strategy.tree.nodes
        ]
    }
