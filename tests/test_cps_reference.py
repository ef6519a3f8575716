"""The package's interval pass and witness against the plain formulas of
`cps_reference`, on random markets of every shape the CPS commands meet:
the same intervals, and where a system exists the same S-tilde, Z, Y,
off-support nodes and minimum leaf density, value for value."""

import random
from fractions import Fraction

import pytest

from spreadlab import EventTree, make_market
from spreadlab import cps as cps_module
from spreadlab.tree import AdaptedProcess

import cps_reference
from helpers import martingale_prices, random_prices

F = Fraction
LEVELS = [F(0), F(1, 8), F(1, 4), F(1, 2), F(3, 4)]
MARKETS_PER_FAMILY = 250


def random_shape(rng, depth, arity):
    """(times, entries) of a tree ``depth`` periods deep whose nodes draw
    1 to ``arity`` children each."""
    entries = [(0, None, F(1))]
    frontier = [0]
    for _ in range(depth):
        nxt = []
        for n in frontier:
            weights = [rng.randint(1, 4) for _ in range(rng.randint(1, arity))]
            for w in weights:
                entries.append((len(entries), n, F(w, sum(weights))))
                nxt.append(entries[-1][0])
        frontier = nxt
    return [F(t) for t in range(depth + 1)], entries


def family_market(rng, family):
    # deep trees stay narrow, so that the suite stays quick
    depth = rng.randint(1, 4)
    arity = 1 if family == "path" else rng.randint(1, 3 if depth <= 2 else 2)
    tree = EventTree.build(*random_shape(rng, depth, arity))
    drawn = family in ("random_price", "path")
    price = dict((random_prices if drawn else martingale_prices)(rng, tree).values)
    if family == "lifted_root":
        top = max(price[c] for c in tree.children[0])
        price[0] = top / (1 - rng.choice([F(1, 8), F(1, 4), F(1, 3), F(1, 2)]))
    return make_market(tree, AdaptedProcess(price), F(0))


def same_values(new: dict, old: dict) -> bool:
    return list(new.items()) == list(old.items()) and all(type(v) is Fraction for v in new.values())


@pytest.mark.parametrize("family", ["martingale", "lifted_root", "random_price", "path"])
def test_intervals_and_witness_match_reference(family):
    rng = random.Random(f"cps-reference-{family}")
    feasible = 0
    for _ in range(MARKETS_PER_FAMILY):
        market = family_market(rng, family)
        tree = market.tree
        for level in LEVELS:
            for equivalent in (True, False):
                live, dead = cps_module._shadow_intervals(market, level, equivalent)
                ref_live, ref_dead = cps_reference.shadow_intervals(market, level, equivalent)
                assert list(live) == list(ref_live) and list(dead) == list(ref_dead)
                assert all(tuple(live[n]) == tuple(ref_live[n]) for n in live)
                assert all(
                    (box is None and ref_dead[n] is None) or tuple(box) == tuple(ref_dead[n])
                    for n, box in dead.items()
                )
                if dead if equivalent else tree.root in dead:
                    continue
                feasible += 1
                cps, mass, margin = cps_module._interval_witness(tree, live, level)
                ref_cps, ref_mass, ref_margin = cps_reference.interval_witness(tree, ref_live, level)
                assert same_values(cps.shadow_price, ref_cps.shadow_price)
                assert same_values(cps.density.values, ref_cps.density.values)
                assert same_values(mass.values, ref_mass.values)
                assert cps.off_support == ref_cps.off_support
                assert margin == ref_margin and type(margin) is Fraction
    # every family reaches the witness often enough to mean something
    assert feasible >= MARKETS_PER_FAMILY
