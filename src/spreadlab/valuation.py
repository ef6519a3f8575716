"""Position values under transaction costs and admissibility bounds.

Two values matter for a position (b, s) at a node.  The liquidation value
is what immediate unwinding fetches: long stock sells at the bid, short
stock covers at the ask.  The shadow value prices the stock leg at any
point inside the spread and always dominates liquidation.

A strategy is admissible at level M when liquidation never dips below -M
along the tree; on a finite tree such an M always exists, and this module
computes the smallest one.  Two normalizations are supported: the bound
in bond units, or divided through by 1 + S(n) so that it is insensitive
to which account plays the numeraire.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .market import Market
from .rationals import parse_rational
from .strategy import Strategy, ensure_strategy
from .tree import AdaptedProcess, NodeId, ensure_node

NUMERAIRE_BASED = "numeraire_based"
NUMERAIRE_FREE = "numeraire_free"

_ZERO = Fraction(0)


def _liquidate(bond: Fraction, stock: Fraction, keep: Fraction, ask: Fraction) -> Fraction:
    """The liquidation formula: long stock sells at the bid keep * ask,
    short stock covers at the ask.  The per-node sweeps call it on values
    already checked; `liquidation_value` is its checked public entry.

    One integer expression and one normalization, as the tree module
    describes; a flat position is its bond, unchanged.
    """
    sn, sd = stock.as_integer_ratio()
    if not sn:
        return bond
    rn, rd = ask.as_integer_ratio()
    if sn > 0:
        kn, kd = keep.as_integer_ratio()
        rn, rd = rn * kn, rd * kd
    bn, bd = bond.as_integer_ratio()
    return Fraction(bn * sd * rd + sn * rn * bd, bd * sd * rd)


def liquidation_value(market: Market, bond: Fraction, stock: Fraction, node: NodeId) -> Fraction:
    """Cash left after closing the stock leg at the node's quotes; the
    holdings are read by `parse_rational`, so a float or a bool is a
    ValueError, and a node that is not an int id of the market's tree is a
    TreeError."""
    ensure_node(market.tree, node)
    return _liquidate(parse_rational(bond), parse_rational(stock), 1 - market.fee, market.price[node])


def shadow_value(strategy: Strategy, shadow_price: AdaptedProcess, node: NodeId, pre_trade: bool = False) -> Fraction:
    """Mark the position to a single in-spread price instead of unwinding;
    the empty position carried into the root marks to 0.  Raises TreeError
    unless ``node`` is an int id of the strategy's tree."""
    ensure_node(strategy.tree, node)
    held = strategy.tree.parent[node] if pre_trade else node
    return _ZERO if held is None else strategy.bond[held] + strategy.stock[held] * shadow_price[node]


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
    keep = 1 - market.fee
    price, bond, stock, parent = market.price.values, strategy.bond.values, strategy.stock.values, tree.parent
    per_node: dict[NodeId, Fraction] = {}
    worst: NodeId = tree.root
    bound = _ZERO
    for n in tree.nodes:
        ask = price[n]
        p = parent[n]
        v = _liquidate(bond[n], stock[n], keep, ask)
        vn, vd = v.as_integer_ratio()
        # the root carries nothing in; elsewhere the lower value binds
        if p is not None:
            v_pre = _liquidate(bond[p], stock[p], keep, ask)
            un, ud = v_pre.as_integer_ratio()
            if un * vd < vn * ud:
                v, vn, vd = v_pre, un, ud
        if vn < 0:
            if numeraire_free:
                # -v / (1 + S)
                an, ad = ask.as_integer_ratio()
                nn, nd = -vn * ad, vd * (ad + an)
                need = Fraction(nn, nd)
            else:
                nn, nd = -vn, vd
                need = -v
            bn, bd = bound.as_integer_ratio()
            if nn * bd > bn * nd:
                bound = need
                worst = n
        else:
            need = _ZERO
        per_node[n] = need
    return AdmissibilityReport(
        mode=mode,
        minimal_bound=bound,
        worst_node=worst,
        per_node=AdaptedProcess(per_node),
    )
