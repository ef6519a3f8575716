"""The package's linear sweeps against the plain formulas of
`linear_reference`, on random (market, strategy, price system) triples:
the same slack, liquidation values, admissibility requirements, theorem
witnesses and shadow decomposition, value for value and in the same node
order.  And the one-step formulas on random processes, densities and
price systems: the same drifts, probability-sum problems, density
problems and `verify_cps` violations, value for value and message for
message."""

import random
from fractions import Fraction

import pytest

from spreadlab import (
    NUMERAIRE_BASED,
    NUMERAIRE_FREE,
    AdaptedProcess,
    ConsistentPriceSystem,
    EventTree,
    Strategy,
    TreeError,
    admissibility_bound,
    check_admissibility_theorem,
    check_self_financing,
    derive_bond_account,
    liquidation_value,
    make_market,
    shadow_decomposition,
    verify_cps,
)
from spreadlab.tree import density_problems, support_drift

import linear_reference
from helpers import EIGHTHS, random_density, random_tree

F = Fraction
TRIPLES = 1000
FEES = [F(0), F(1, 8), F(1, 4), F(1, 2)]
PLAN = [F(k, 2) for k in range(-4, 5)]
# x for the theorem's node-wise bound -x, ints among them
BOUNDS = [-1, 0, F(1, 2), 1, F(3, 2), 2, 4]


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
    return market, ConsistentPriceSystem(tree, shadow, AdaptedProcess(z), fee)


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
    return Strategy(tree, AdaptedProcess(bond), AdaptedProcess(stock))


def same_values(new: dict, old: dict) -> bool:
    return list(new.items()) == list(old.items()) and all(
        type(a) is type(b) for a, b in zip(new.values(), old.values())
    )


def test_sweeps_match_reference():
    rng = random.Random("linear-reference")
    seen = dict.fromkeys(["idle", "flat", "short", "int", "tilted", "frictionless", "decomposed", "witness"], 0)
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

        x = rng.choice(BOUNDS)
        verdict = check_admissibility_theorem(market, strategy, x)
        witness, failures = linear_reference.theorem_conclusion(market, strategy, x)
        assert verdict.holds is (witness is None)
        if witness is not None:
            found = verdict.witness
            assert (found.node, found.classification, found.value) == witness
            assert type(found.value) is Fraction
            seen["witness"] += 1
        assert [f for f in verdict.hypothesis_failures if f.startswith("terminal")] == failures

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


# ints and Fractions, zero and negative: what a process may hold
PROCESS = [-2, -1, 0, 1, 3, *(F(k, 8) for k in range(-12, 13, 3)), F(-5, 3), F(7, 6)]


def density(rng, tree):
    """A density with dead nodes now and then, as ints where integral,
    and now and then broken at one node: off its mean, negative, or not
    1 at the root."""
    z = exact_ints(random_density(rng, tree, allow_zero=rng.random() < 0.5).values)
    if rng.random() < 0.3:
        n = rng.choice(tree.nodes)
        z[n] = rng.choice([z[n] + F(1, 3), -z[n] - 1, F(1, 2), 0, 2])
    return z


def test_one_step_formulas_match_reference():
    rng = random.Random("one-step-reference")
    seen = dict.fromkeys(["int", "zero", "negative", "dead", "drift", "density problem"], 0)
    for _ in range(TRIPLES):
        tree = random_tree(rng)
        x = {n: rng.choice(PROCESS) for n in tree.nodes}
        z = density(rng, tree)
        assert same_values(support_drift(tree, AdaptedProcess(x)), linear_reference.support_drift(tree, x))
        weighted = support_drift(tree, AdaptedProcess(x), AdaptedProcess(z))
        assert same_values(weighted, linear_reference.support_drift(tree, x, z))
        problems = density_problems(tree, AdaptedProcess(z))
        assert problems == linear_reference.density_problems(tree, z)

        seen["int"] += any(type(v) is int for v in (*x.values(), *z.values()))
        seen["zero"] += any(v == 0 for v in x.values())
        seen["negative"] += any(v < 0 for v in x.values())
        seen["dead"] += any(z[n] == 0 for n in tree.internal)
        seen["drift"] += any(d != 0 for d in weighted.values())
        seen["density problem"] += bool(problems)
    assert min(seen.values()) >= 100, seen


def test_verify_cps_matches_reference():
    rng = random.Random("verify-reference")
    seen = dict.fromkeys(["ok", "spread", "shadow drift", "missing", "off support", "floor", "int"], 0)
    for i in range(TRIPLES):
        tree = random_tree(rng)
        market, cps = price_system(rng, tree, FEES[i % len(FEES)])
        shadow, z = dict(cps.shadow_price), dict(cps.density.values)
        if rng.random() < 0.5:
            shadow, z = exact_ints(shadow), exact_ints(z)
        for n in [n for n in tree.nodes if z[n] == 0]:
            if rng.random() < 0.7:
                del shadow[n]
        if rng.random() < 0.4:
            n = rng.choice(list(shadow))
            shadow[n] = rng.choice([shadow[n] * F(9, 8), shadow[n] * F(3, 4), shadow[n] + 1, F(1, 4)])
        if rng.random() < 0.15:
            shadow.pop(rng.choice(tree.nodes), None)
        if rng.random() < 0.15:
            n = rng.choice(tree.nodes)
            z[n] += F(1, 5)
        fee = rng.choice([market.fee, F(0), F(1, 8), F(1, 2)])
        epsilon = rng.choice([F(0), F(0), F(1, 10), F(1, 2)])
        system = ConsistentPriceSystem(tree, shadow, AdaptedProcess(z), fee)
        result = verify_cps(market, system, fee=fee, epsilon=epsilon)
        expected = linear_reference.verify_cps(market, shadow, z, fee, epsilon)
        assert result == expected

        text = " ".join(expected[1])
        seen["ok"] += expected[0]
        seen["spread"] += "outside spread" in text
        seen["shadow drift"] += "drift under Q" in text
        seen["missing"] += "missing on support" in text
        seen["off support"] += any(n not in shadow for n in tree.nodes)
        seen["floor"] += "below floor" in text
        seen["int"] += any(type(v) is int for v in (*shadow.values(), *z.values()))
    assert min(seen.values()) >= 100, seen


def test_probability_sums_match_reference():
    rng = random.Random("probability-sum-reference")
    seen = dict.fromkeys(["valid", "invalid", "int"], 0)
    for _ in range(TRIPLES):
        entries, frontier, next_id = [(0, None, F(1))], [0], 1
        depth = rng.randint(1, 3)
        for _ in range(depth):
            grown = []
            for node in frontier:
                weights = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
                total = sum(weights) + (rng.choice([-1, 1]) if rng.random() < 0.1 else 0)
                for w in weights:
                    prob = F(w, total) if total > 0 else F(w, 3)
                    entries.append((next_id, node, int(prob) if prob.denominator == 1 else prob))
                    grown.append(next_id)
                    next_id += 1
            frontier = grown
        children = {n: [c for c, up, _ in entries if up == n] for n, _, _ in entries}
        cond = {n: F(q) for n, _, q in entries}
        expected = linear_reference.probability_sum_problems(children, cond)
        times = list(range(depth + 1))
        if expected:
            with pytest.raises(TreeError) as caught:
                EventTree.build(times, entries)
            assert caught.value.problems == expected
        else:
            EventTree.build(times, entries)
        seen["valid" if not expected else "invalid"] += 1
        seen["int"] += any(type(q) is int for _, _, q in entries[1:])
    assert min(seen.values()) >= 100, seen
