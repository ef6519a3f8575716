"""The package's linear sweeps against the plain formulas of
`linear_reference`, on random (market, strategy, price system) triples:
the same slack, liquidation values, admissibility requirements and shadow
decomposition, value for value and in the same node order."""

import random
from fractions import Fraction

import pytest

from spreadlab import (
    NUMERAIRE_BASED,
    NUMERAIRE_FREE,
    AdaptedProcess,
    ConsistentPriceSystem,
    Strategy,
    admissibility_bound,
    check_self_financing,
    derive_bond_account,
    liquidation_value,
    make_market,
    shadow_decomposition,
)

import linear_reference
from helpers import EIGHTHS, random_density, random_tree

F = Fraction
TRIPLES = 1000
FEES = [F(0), F(1, 8), F(1, 4), F(1, 2)]
PLAN = [F(k, 2) for k in range(-4, 5)]


def price_system(rng, tree, fee):
    """A market and a price system consistent at its own cost level: Z,
    then a Q-martingale S-tilde, then asks S with S-tilde in the spread."""
    if rng.random() < 0.7:
        z = dict(random_density(rng, tree, allow_zero=rng.random() < 0.3).values)
    else:
        z = {n: F(1) for n in tree.nodes}
    shadow = {}
    for n in reversed(tree.nodes):
        kids = tree.children[n]
        if not kids:
            shadow[n] = rng.choice(EIGHTHS)
        elif z[n]:
            shadow[n] = sum(tree.cond_prob[c] * z[c] * shadow[c] for c in kids) / z[n]
        else:
            # the measure does not see this node: any in-spread value will do
            shadow[n] = sum(tree.cond_prob[c] * shadow[c] for c in kids)
    # S-tilde sits at the ask, at the bid or between them
    price = {n: s / (1 - fee * rng.choice([F(0), F(1, 2), F(1)])) for n, s in shadow.items()}
    market = make_market(tree, AdaptedProcess(price), fee)
    return market, ConsistentPriceSystem(shadow, AdaptedProcess(z), fee)


def exact_ints(values: dict) -> dict:
    """Integral Fractions as Python ints, as a caller may hold them."""
    return {n: int(v) if v.denominator == 1 else v for n, v in values.items()}


def random_strategy(rng, market, idle: bool, self_financing: bool, ints: bool) -> Strategy:
    """The tight completion of a stock plan, with money burnt along the
    way (still self-financing) or drawn at random nodes (overdrawn)."""
    tree = market.tree
    if idle:
        held = rng.choice(PLAN)
        plan = {n: held for n in tree.nodes}
    else:
        plan = {n: rng.choice(PLAN) for n in tree.nodes}
    tight = derive_bond_account(market, AdaptedProcess(plan))
    shift, bond = {}, {}
    for n in tree.nodes:
        p = tree.parent[n]
        step = F(rng.randint(1, 2), 4) if rng.random() < 0.3 else F(0)
        if not self_financing and rng.random() < 0.5:
            step = -step
        shift[n] = (shift[p] if p is not None else F(0)) + step
        bond[n] = tight.bond[n] - shift[n]
    stock = dict(tight.stock.values)
    if ints:
        bond, stock = exact_ints(bond), exact_ints(stock)
    return Strategy(AdaptedProcess(bond), AdaptedProcess(stock))


def same_values(new: dict, old: dict) -> bool:
    return list(new.items()) == list(old.items()) and all(
        type(a) is type(b) for a, b in zip(new.values(), old.values())
    )


def test_sweeps_match_reference():
    rng = random.Random("linear-reference")
    seen = dict.fromkeys(["idle", "flat", "short", "int", "tilted", "frictionless", "decomposed"], 0)
    for i in range(TRIPLES):
        tree = random_tree(rng)
        fee = FEES[i % len(FEES)]
        market, cps = price_system(rng, tree, fee)
        idle = i % 7 == 0
        strategy = random_strategy(rng, market, idle, self_financing=i % 3 != 0, ints=i % 2 == 0)
        bond, stock = strategy.bond.values, strategy.stock.values

        sf = check_self_financing(market, strategy)
        slack, bad = linear_reference.self_financing(market, strategy)
        assert same_values(sf.slack.values, slack) and list(sf.violations) == bad
        assert sf.ok == (not bad)

        for mode in (NUMERAIRE_BASED, NUMERAIRE_FREE):
            report = admissibility_bound(market, strategy, mode)
            bound, worst, per_node = linear_reference.admissibility(market, strategy, mode == NUMERAIRE_FREE)
            assert (report.minimal_bound, report.worst_node) == (bound, worst)
            assert type(report.minimal_bound) is type(bound)
            assert same_values(report.per_node.values, per_node)

        keep = 1 - fee
        for n in tree.nodes:
            ask = market.price[n]
            expected = linear_reference.liquidate(bond[n], stock[n], keep * ask, ask)
            assert liquidation_value(market, bond[n], stock[n], n) == expected

        if sf.ok:
            decomposition = shadow_decomposition(market, strategy, cps)
            cost, transform, value = linear_reference.shadow_decomposition(market, strategy, cps.shadow_price)
            assert same_values(decomposition.cost.values, cost)
            assert same_values(decomposition.transform.values, transform)
            assert same_values(decomposition.value.values, value)
            seen["decomposed"] += 1
        else:
            with pytest.raises(ValueError, match="not self-financing"):
                shadow_decomposition(market, strategy, cps)

        seen["idle"] += idle
        seen["flat"] += any(v == 0 for v in stock.values())
        seen["short"] += any(v < 0 for v in stock.values())
        seen["int"] += any(type(v) is int for v in (*bond.values(), *stock.values()))
        seen["tilted"] += any(z != 1 for z in cps.density.values.values())
        seen["frictionless"] += fee == 0
    # every feature the sweeps branch on is met many times over
    assert min(seen.values()) >= 100, seen
