"""Position values under transaction costs and admissibility bounds.

Two values matter for a position (b, s) at a node.  The liquidation value
is what immediate unwinding fetches: long stock sells at the bid, short
stock covers at the ask.  The shadow value prices the stock leg at any
point inside the spread and always dominates liquidation.

A strategy is admissible at level M when liquidation never dips below -M
along the tree; on a finite tree such an M always exists, and this module
computes the smallest one.  Two normalizations are supported: the bound
in bond units, or divided through by 1 + S(n), the ask value of one bond
plus one share, so that a node's need is counted in that basket.  The
division does not make the bound independent of which account plays the
numeraire.  On the path S = 1, 2 at lambda = 1/2, buying one share at the
root and holding it needs 1/4; its swap, which holds (1, -1) against the
ask S' = 1/((1 - lambda)S) = 2, 1 and is self-financing too, needs 1/3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cps import ConsistentPriceSystem, _require_shadow
from .market import Market
from .rationals import parse_rational
from .strategy import Strategy, ensure_strategy
from .tree import AdaptedProcess, NodeId, ensure_node

NUMERAIRE_BASED = "numeraire_based"
NUMERAIRE_FREE = "numeraire_free"

_ZERO = Fraction(0)


def _liquidation_pair(bond, stock, keep: tuple, ask: tuple) -> tuple:
    """The liquidation formula as an integer pair (num, den), den > 0 and
    not reduced: long stock sells at the bid keep * ask, short stock covers
    at the ask, with ``keep`` and ``ask`` given as integer pairs.  A flat
    position is its bond's pair.  An order test cross-multiplies two pairs
    and builds no Fraction, as the tree module describes."""
    bn, bd = bond.as_integer_ratio()
    sn, sd = stock.as_integer_ratio()
    if not sn:
        return bn, bd
    qn, qd = ask
    if sn > 0:
        qn, qd = qn * keep[0], qd * keep[1]
    return bn * sd * qd + sn * qn * bd, bd * sd * qd


def _liquidate(bond: Fraction, stock: Fraction, keep: Fraction, ask: Fraction) -> Fraction:
    """The liquidation value, built once from its pair; a flat position is
    its bond, unchanged.  Called on values already checked:
    `liquidation_value` is its checked public entry."""
    if not stock.numerator:
        return bond
    return Fraction(*_liquidation_pair(bond, stock, keep.as_integer_ratio(), ask.as_integer_ratio()))


def liquidation_value(market: Market, bond: Fraction, stock: Fraction, node: NodeId) -> Fraction:
    """Cash left after closing the stock leg at the node's quotes; the
    holdings are read by `parse_rational`, so a float or a bool is a
    ValueError, and a node that is not an int id of the market's tree is a
    TreeError."""
    ensure_node(market.tree, node)
    return _liquidate(parse_rational(bond), parse_rational(stock), 1 - market.fee, market.price[node])


def shadow_value(strategy: Strategy, cps: ConsistentPriceSystem, node: NodeId, pre_trade: bool = False) -> Fraction:
    """Mark the position to the system's shadow price instead of unwinding;
    the empty position carried into the root marks to 0.  Raises TreeError
    unless ``node`` is an int id of the strategy's tree and the system is
    bound to it, and ValueError if the shadow price leaves the node out."""
    ensure_node(strategy.tree, node)
    s = _require_shadow(strategy.tree, cps, (node,))
    held = strategy.tree.parent[node] if pre_trade else node
    return _ZERO if held is None else strategy.bond[held] + strategy.stock[held] * s[node]


@dataclass(frozen=True)
class AdmissibilityReport:
    mode: str
    minimal_bound: Fraction
    worst_node: NodeId
    per_node: AdaptedProcess


def admissibility_bound(market: Market, strategy: Strategy, mode: str = NUMERAIRE_BASED) -> AdmissibilityReport:
    """Smallest M with liquidation value >= -M throughout the strategy.

    Both the incoming and the post-trade position are valued at each node:
    the incoming one because the market moved against holdings chosen
    earlier, the post-trade one because the node's own trade may burn
    money.  Per-node requirements are floored at zero (a position that
    never goes negative needs no cushion), and in the numeraire-free mode
    each requirement is divided by 1 + S(n) first.
    """
    if mode not in (NUMERAIRE_BASED, NUMERAIRE_FREE):
        raise ValueError(f"unknown admissibility mode {mode!r}")
    tree = market.tree
    ensure_strategy(tree, strategy)
    numeraire_free = mode == NUMERAIRE_FREE
    keep = (1 - market.fee).as_integer_ratio()
    price, bond, stock, parent = market.price.values, strategy.bond.values, strategy.stock.values, tree.parent
    per_node: dict[NodeId, Fraction] = {}
    worst: NodeId = tree.root
    bound, bn, bd = _ZERO, 0, 1
    for n in tree.nodes:
        ask = price[n].as_integer_ratio()
        an, ad = ask
        b, s = bond[n], stock[n]
        vn, vd = _liquidation_pair(b, s, keep, ask)
        # the root carries nothing in; elsewhere the lower value binds
        p = parent[n]
        if p is not None:
            un, ud = _liquidation_pair(bond[p], stock[p], keep, ask)
            if un * vd < vn * ud:
                vn, vd, b, s = un, ud, bond[p], stock[p]
        if vn < 0:
            if numeraire_free:
                # -v / (1 + S)
                nn, nd = -vn * ad, vd * (ad + an)
                need = Fraction(nn, nd)
            else:
                nn, nd = -vn, vd
                # a flat position's need is its bond's negative, of the bond's type
                need = -b if not s.numerator else Fraction(nn, nd)
            if nn * bd > bn * nd:
                bound, bn, bd, worst = need, nn, nd, n
        else:
            need = _ZERO
        per_node[n] = need
    return AdmissibilityReport(
        mode=mode,
        minimal_bound=bound,
        worst_node=worst,
        per_node=AdaptedProcess(per_node),
    )
