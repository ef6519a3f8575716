"""Seeded generators shared across the suite, and the check of a
find-cps report read back from its file.

Everything takes an explicit random.Random so each test controls its
seed; sizes default to the scale the brute-force oracle accepts.
"""

from fractions import Fraction
import random

from spreadlab import (
    AdaptedProcess,
    EventTree,
    Market,
    PredictableProcess,
    Strategy,
    derive_bond_account,
    load_cps,
    make_market,
    parse_rational,
    verify_cps,
)
from spreadlab.cps import _cps_constraints
from spreadlab.simplex import FarkasCertificate

EIGHTHS = [Fraction(k, 8) for k in range(2, 33)]  # [1/4, 4]


def random_tree(rng: random.Random, max_depth: int = 3, max_children: int = 3) -> EventTree:
    depth = rng.choices([1, 2, 3], weights=[20, 45, 35])[0]
    depth = min(depth, max_depth)
    entries = [(0, None, Fraction(1))]
    frontier = [0]
    next_id = 1
    for _ in range(depth):
        new_frontier = []
        for node in frontier:
            k = rng.choices([1, 2, 3], weights=[35, 40, 25])[0]
            k = min(k, max_children)
            weights = [rng.randint(1, 4) for _ in range(k)]
            total = sum(weights)
            for w in weights:
                entries.append((next_id, node, Fraction(w, total)))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    times = [Fraction(t) for t in range(depth + 1)]
    return EventTree.build(times, entries)


def random_prices(rng: random.Random, tree: EventTree) -> AdaptedProcess:
    return AdaptedProcess({n: rng.choice(EIGHTHS) for n in tree.nodes})


def martingale_prices(rng: random.Random, tree: EventTree) -> AdaptedProcess:
    """Leaves drawn from the grid, parents forced to the conditional mean."""
    values = {}
    for n in reversed(tree.nodes):
        kids = tree.children[n]
        if not kids:
            values[n] = rng.choice(EIGHTHS)
        else:
            values[n] = sum(tree.cond_prob[c] * values[c] for c in kids)
    return AdaptedProcess(values)


def random_market(rng: random.Random, fee=None, martingale=False, **tree_kwargs) -> Market:
    tree = random_tree(rng, **tree_kwargs)
    if fee is None:
        fee = rng.choice([Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)])
    prices = martingale_prices(rng, tree) if martingale else random_prices(rng, tree)
    return make_market(tree, prices, fee)


def binomial_martingale_market(rng: random.Random, depth: int, fee=Fraction(0)) -> Market:
    entries = [(0, None, Fraction(1))]
    frontier = [0]
    next_id = 1
    for _ in range(depth):
        new_frontier = []
        for node in frontier:
            p_up = Fraction(rng.randint(1, 7), 8)
            for prob in (p_up, 1 - p_up):
                entries.append((next_id, node, prob))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    tree = EventTree.build([Fraction(t) for t in range(depth + 1)], entries)
    return make_market(tree, martingale_prices(rng, tree), fee)


def random_stock_plan(rng: random.Random, tree: EventTree) -> AdaptedProcess:
    grid = [Fraction(k, 2) for k in range(-4, 5)]
    return AdaptedProcess({n: rng.choice(grid) for n in tree.nodes})


def random_sf_strategy(rng: random.Random, market: Market, burn_prob: float = 0.3) -> Strategy:
    """Tight completion of a random stock plan, then cumulative money burns.

    Burning only ever increases trade slack, so the result stays
    self-financing by construction.
    """
    strategy = derive_bond_account(market, random_stock_plan(rng, market.tree))
    tree = market.tree
    burned = {}
    bond = {}
    for n in tree.nodes:
        p = tree.parent[n]
        b = Fraction(rng.randint(1, 2), 4) if rng.random() < burn_prob else Fraction(0)
        burned[n] = b + (burned[p] if p is not None else Fraction(0))
        bond[n] = strategy.bond[n] - burned[n]
    return Strategy(tree, AdaptedProcess(bond), strategy.stock)


def random_predictable(rng: random.Random, tree: EventTree, lo: int = -2, hi: int = 2) -> PredictableProcess:
    grid = [Fraction(k, 2) for k in range(2 * lo, 2 * hi + 1)]
    values = {0: rng.choice(grid)}
    for n in tree.internal:
        shared = rng.choice(grid)
        for c in tree.children[n]:
            values[c] = shared
    return PredictableProcess(values)


def random_density(rng: random.Random, tree: EventTree, allow_zero: bool = False) -> AdaptedProcess:
    """A nonnegative P-martingale with Z(root) = 1, built by reweighting
    each sibling set; zero weights carve out null branches when allowed."""
    values = {0: Fraction(1)}
    for n in tree.internal:
        kids = tree.children[n]
        if values[n] == 0:
            for c in kids:
                values[c] = Fraction(0)
            continue
        low = 0 if (allow_zero and len(kids) > 1) else 1
        while True:
            weights = [rng.randint(low, 3) for _ in kids]
            if sum(weights) > 0:
                break
        total = sum(weights)
        for c, w in zip(kids, weights):
            values[c] = values[n] * Fraction(w, total) / tree.cond_prob[c]
    return AdaptedProcess(values)


def random_adapted(rng: random.Random, tree: EventTree, lo: int = -4, hi: int = 4) -> AdaptedProcess:
    grid = [Fraction(k, 2) for k in range(2 * lo, 2 * hi + 1)]
    return AdaptedProcess({n: rng.choice(grid) for n in tree.nodes})


def check_find_cps_report(market: Market, report: dict) -> bool:
    """Check a find-cps report with nothing but the report and its market;
    returns whether it is feasible.

    A system must load, and `verify_cps` must accept it at the report's
    epsilon; ``off_support`` lists the nodes without a shadow price, in
    tree order.  A certificate names its rows by label: rebuilt from
    `_cps_constraints` at the report's level and epsilon, those rows alone
    must carry the contradiction, each with a nonzero multiplier, in row
    order.
    """
    if report["feasible"]:
        cps, epsilon = load_cps(report, market.tree)
        ok, violations = verify_cps(market, cps, epsilon=epsilon)
        assert ok, violations
        off_support = [n for n in market.tree.nodes if n not in cps.shadow_price]
        assert report.get("off_support", []) == off_support
        return True
    fee, epsilon = parse_rational(report["lambda_prime"]), parse_rational(report["epsilon"])
    multipliers = report["certificate"]["multipliers"]
    _, rows, _ = _cps_constraints(market, fee, epsilon)
    used = [row for row in rows if row.label in multipliers]
    assert [row.label for row in used] == list(multipliers)
    certificate = FarkasCertificate(tuple(parse_rational(mu) for mu in multipliers.values()))
    assert all(certificate.multipliers)
    assert certificate.verify(used)
    assert report["certificate"]["verified"] is True
    return False
