"""The package's interval pass and witness against the plain formulas of
`cps_reference`, on random markets of every shape the CPS commands meet:
the same intervals, and where a system exists the same S-tilde (so the
same off-support nodes), Z and minimum leaf density, value for value;
and the same absolutely continuous threshold as the reference's search."""

import random
from fractions import Fraction

import pytest

from spreadlab import EventTree, make_market
from spreadlab import cps as cps_module
from spreadlab.tree import AdaptedProcess, density_problems

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
                cps, margin = cps_module._interval_witness(tree, live, level)
                ref_cps, ref_margin = cps_reference.interval_witness(tree, ref_live, level)
                assert same_values(cps.shadow_price, ref_cps.shadow_price)
                assert same_values(cps.density.values, ref_cps.density.values)
                assert margin == ref_margin and type(margin) is Fraction
    # every family reaches the witness often enough to mean something
    assert feasible >= MARKETS_PER_FAMILY


@pytest.mark.parametrize("family", ["martingale", "lifted_root", "random_price", "path"])
def test_ac_threshold_matches_reference(family):
    rng = random.Random(f"ac-threshold-{family}")
    positive = 0
    for _ in range(MARKETS_PER_FAMILY):
        market = family_market(rng, family)
        level, attained = cps_module._threshold(market, False)
        assert (level, attained) == cps_reference.ac_threshold(market)
        assert type(level) is Fraction
        positive += level > 0
    # martingale markets are feasible at 0; every other family reaches the search
    assert positive == 0 if family == "martingale" else positive > 0


def one_period(*probs):
    """A one-period tree, root 0 over children 1, 2, ... with ``probs``."""
    return EventTree.build([F(0), F(1)], [(0, None, F(1))] + [(c, 0, p) for c, p in enumerate(probs, 1)])


Box = cps_reference.Box

# (v, boxes, probs): the ties and the ends where an integer comparison can
# drift from the Fraction form through a strict or non-strict test
PLACE_CASES = {
    # v on an open low end goes to the midpoint, on a closed one stays
    "v_on_open_low_end": (F(1), [Box(F(1), False, F(2), True), Box(F(0), True, F(2), True)], [F(1, 2), F(1, 2)]),
    "v_on_open_high_end": (F(2), [Box(F(1), True, F(2), False), Box(F(1), True, F(3), True)], [F(1, 3), F(2, 3)]),
    "v_on_closed_ends": (F(1), [Box(F(1), True, F(2), True), Box(F(0), True, F(1), True)], [F(1, 4), F(3, 4)]),
    # the nearest values' moves cancel: a zero gap, nothing slides
    "moves_cancel": (F(2), [Box(F(3), True, F(4), True), Box(F(0), True, F(1), True)], [F(1, 2), F(1, 2)]),
    # the far ends reach v exactly: pull == gap, s = 1
    "pull_equals_gap": (F(2), [Box(F(3), True, F(4), True), Box(F(1), True, F(2), True)], [F(1, 2), F(1, 2)]),
    # the far ends fall short: pull < gap, the far ends are returned
    "pull_below_gap": (F(2), [Box(F(3), True, F(4), True), Box(F(3, 2), True, F(2), True)], [F(3, 4), F(1, 4)]),
    # open far ends slide halfway; v on the open end of one child
    "open_far_ends": (F(2), [Box(F(2), False, F(5), False), Box(F(1), False, F(3), True)], [F(1, 3), F(2, 3)]),
    "one_child_inside": (F(3, 2), [Box(F(1), True, F(2), True)], [F(1)]),
    "one_child_open_end": (F(2), [Box(F(1), True, F(2), False)], [F(1)]),
}


@pytest.mark.parametrize("case", sorted(PLACE_CASES))
def test_place_corner_cases_match_reference(case):
    v, boxes, probs = PLACE_CASES[case]
    placed = cps_module._place(v, boxes, probs)
    assert placed == cps_reference.place(v, boxes, probs)
    assert all(type(u) is Fraction for u in placed)


# (probs, shadow): root value at 0, children's values at 1, 2, ...; a child
# left out of ``shadow`` is off the support (absolutely continuous mode)
DENSITY_CASES = {
    # the P-mean 2 is above v = 3/2: the first of the two lowest takes the surplus
    "tied_lowest": ([F(1, 3), F(1, 3), F(1, 3)], {0: F(3, 2), 1: F(1), 2: F(1), 3: F(4)}),
    # the P-mean 2 is below v = 5/2: the first of the two highest takes it
    "tied_highest": ([F(1, 4), F(1, 4), F(1, 2)], {0: F(5, 2), 1: F(3), 2: F(3), 3: F(1)}),
    # the P-mean is v: Z stays
    "mean_is_v": ([F(1, 2), F(1, 2)], {0: F(2), 1: F(1), 2: F(3)}),
    # partial support whose P-mean is v: a zero gap, Z scaled by 1 / sum p
    "partial_zero_gap": ([F(1, 4), F(1, 4), F(1, 2)], {0: F(2), 1: F(1), 2: F(3)}),
    # partial support whose P-mean is not v
    "partial_leaning": ([F(1, 4), F(1, 4), F(1, 2)], {0: F(2), 1: F(1), 3: F(5)}),
    "one_child": ([F(1)], {0: F(7, 3), 1: F(7, 3)}),
}


@pytest.mark.parametrize("case", sorted(DENSITY_CASES))
def test_density_corner_cases_match_reference(case):
    probs, shadow = DENSITY_CASES[case]
    tree = one_period(*probs)
    density = cps_module._density(tree, shadow)
    assert same_values(density, cps_reference.plain_density(tree, shadow))
    assert density_problems(tree, AdaptedProcess(density)) == []
    if case.startswith("tied"):
        # the surplus lands on child 1, not on its twin
        assert density[1] > density[2]
