"""The linear sweeps written out plainly: the reference the tests compare
`spreadlab.strategy`, `spreadlab.valuation` and `spreadlab.theorems`
against.

Every sign here comes from comparing a value with 0, and the shadow
decomposition's cost is its own cash-flow recursion, checked against
value = cost + transform at every node.  The package reads signs from
numerators and sets cost = value - transform, so every value must come
out equal, node for node and in the same order.
"""

from fractions import Fraction

_ZERO = Fraction(0)


def slack(bond_in, stock_in, bond, stock, ask, keep):
    """Bond ceiling after trading from (bond_in, stock_in) to ``stock``
    at quotes [keep * ask, ask], minus ``bond``."""
    result = bond_in - bond
    delta = stock - stock_in
    if delta > 0:
        result -= ask * delta
    elif delta < 0:
        result -= keep * ask * delta
    return result


def liquidate(bond, stock, bid, ask):
    """Long stock sells at the bid, short stock covers at the ask."""
    if stock > 0:
        return bond + stock * bid
    if stock < 0:
        return bond + stock * ask
    return bond


def self_financing(market, strategy):
    """(slack per node, nodes with negative slack)."""
    tree = market.tree
    keep = 1 - market.fee
    bond, stock = strategy.bond.values, strategy.stock.values
    result, bad = {}, []
    for n in tree.nodes:
        p = tree.parent[n]
        bond_in, stock_in = (_ZERO, _ZERO) if p is None else (bond[p], stock[p])
        s = result[n] = slack(bond_in, stock_in, bond[n], stock[n], market.price[n], keep)
        if s < 0:
            bad.append(n)
    return result, bad


def admissibility(market, strategy, numeraire_free):
    """(smallest bound, node that binds, requirement per node)."""
    tree = market.tree
    keep = 1 - market.fee
    bond, stock = strategy.bond.values, strategy.stock.values
    per_node, worst, bound = {}, tree.root, _ZERO
    for n in tree.nodes:
        ask = market.price[n]
        bid = keep * ask
        p = tree.parent[n]
        v_pre = _ZERO if p is None else liquidate(bond[p], stock[p], bid, ask)
        v_post = liquidate(bond[n], stock[n], bid, ask)
        v = v_pre if v_pre < v_post else v_post
        if v < 0:
            need = -v / (1 + ask) if numeraire_free else -v
            if need > bound:
                bound, worst = need, n
        else:
            need = _ZERO
        per_node[n] = need
    return bound, worst, per_node


def shadow_decomposition(market, strategy, shadow):
    """(cost, transform, value): cost cumulates each trade's cash flow at
    the shadow price, transform the held stock times the price change."""
    tree = market.tree
    bond, stock = strategy.bond.values, strategy.stock.values
    cost, transform, value = {}, {}, {}
    for n in tree.nodes:
        p = tree.parent[n]
        v = value[n] = bond[n] + shadow[n] * stock[n]
        if p is None:
            cost[n] = v
            transform[n] = _ZERO
            continue
        c = cost[n] = cost[p] + (bond[n] - bond[p]) + shadow[n] * (stock[n] - stock[p])
        t = transform[n] = transform[p] + stock[p] * (shadow[n] - shadow[p])
        if v != c + t:
            raise RuntimeError(f"node {n}: marked value {v} != cost {c} + transform {t}")
    return cost, transform, value
