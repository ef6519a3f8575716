"""Acceptance gate: one printed verdict line per criterion.

Run with -s to see the lines; every check is exact rational arithmetic,
with no tolerance anywhere.
"""

import functools
import random
from fractions import Fraction

from spreadlab import (
    DEFAULT_EPSILON,
    LONG,
    NUMERAIRE_BASED,
    NUMERAIRE_FREE,
    CpsQuery,
    brute_force_cps,
    check_admissibility_theorem,
    check_ossm,
    check_self_financing,
    cps_threshold,
    deterministic_counterexample,
    doob_decompose,
    find_cps,
    frictionless_check,
    liquidation_value,
    one_step_drift,
    pre_trade_holdings,
    scale_cps,
    shadow_values,
    stochastic_counterexample,
    verify_cps,
)

from helpers import (
    binomial_martingale_market,
    random_market,
    random_predictable,
    random_sf_strategy,
)

F = Fraction


def criterion(number):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number}: FAIL")
                raise
            print(f"[acceptance] criterion {number}: PASS")
        return wrapper
    return decorate


@criterion(1)
def test_criterion_1_deterministic_counterexample():
    report = deterministic_counterexample(F(1, 2))
    market, strategy = report.market, report.strategy
    leaf = market.tree.leaves[0]
    terminal = liquidation_value(market, strategy.bond[leaf], strategy.stock[leaf], leaf)
    assert terminal == -1
    mid = report.midtime_node
    dip = liquidation_value(market, strategy.bond[mid], strategy.stock[mid], mid)
    assert dip == F(-3, 2)
    assert all(v == F(1, 2) for v in report.cps_witness.shadow_price.values())
    ok, violations = verify_cps(market, report.cps_witness)
    assert ok, violations
    assert cps_threshold(market) == F(1, 2)


@criterion(2)
def test_criterion_2_stochastic_counterexample():
    report = stochastic_counterexample()
    market, tree = report.market, report.market.tree
    assert report.branch_probabilities["up"] == F(1, 7)
    # fair exactly through the jumps that resolve by time 1/4
    drift = one_step_drift(tree, market.price)
    for n in tree.internal:
        if tree.times[tree.time_index[n] + 1] <= F(1, 4):
            assert drift[n] == 0
    assert report.sale_wealth == 1
    m = report.sale_wealth
    formula = m - (m + 1) * (1 + F(1, 4) * (F(2) - 1))
    assert formula == F(-3, 2)
    dip = liquidation_value(
        market, report.strategy.bond[7], report.strategy.stock[7], 7
    )
    assert dip == formula
    for leaf in tree.leaves:
        v = liquidation_value(
            market, report.strategy.bond[leaf], report.strategy.stock[leaf], leaf
        )
        assert v >= -1
    dips = [
        stochastic_counterexample(up_price=F(m)).expected_midtime_value
        for m in (2, 4, 8, 16)
    ]
    assert all(later < earlier for earlier, later in zip(dips, dips[1:]))


@criterion(3)
def test_criterion_3_solver_vs_oracle():
    rng = random.Random(20260818)
    fees = [F(0), F(1, 8), F(1, 4), F(1, 2)]
    for _ in range(200):
        market = random_market(rng)
        fee = rng.choice(fees)
        oracle = brute_force_cps(market, fee)
        lp = find_cps(market, CpsQuery(fee, DEFAULT_EPSILON))
        if oracle.feasible:
            assert lp.feasible, (market_signature(market), fee)
            ok, violations = verify_cps(market, lp.cps, epsilon=DEFAULT_EPSILON)
            assert ok, violations
            ok, violations = verify_cps(market, oracle.witness, epsilon=DEFAULT_EPSILON)
            assert ok, violations
        elif lp.feasible:
            ok, violations = verify_cps(market, lp.cps, epsilon=DEFAULT_EPSILON)
            assert ok, violations
            refined = brute_force_cps(market, fee, grid_resolution=1024)
            assert refined.feasible, (market_signature(market), fee)
        else:
            assert lp.infeasibility.verify()


def market_signature(market):
    return {n: str(market.price[n]) for n in market.tree.nodes}, str(market.fee)


@criterion(4)
def test_criterion_4_marked_value_supermartingale():
    rng = random.Random(40404)
    modes = [NUMERAIRE_BASED, NUMERAIRE_FREE]
    done = 0
    while done < 200:
        market = random_market(rng)
        found = find_cps(market, CpsQuery(market.fee, DEFAULT_EPSILON))
        if not found.feasible:
            continue
        strategy = random_sf_strategy(rng, market)
        assert check_self_financing(market, strategy).ok
        from spreadlab import admissibility_bound

        bound = admissibility_bound(market, strategy, modes[done % 2])
        assert bound.minimal_bound >= 0
        marked = shadow_values(strategy, found.cps)
        assert check_ossm(market.tree, marked, found.cps.density).ok
        dec = doob_decompose(market.tree, marked, found.cps.density)
        tree = market.tree
        assert dec.compensator[tree.root] == 0
        for n in tree.nodes:
            assert marked[n] == dec.martingale[n] - dec.compensator[n]
            p = tree.parent[n]
            if p is not None:
                assert dec.compensator[n] >= dec.compensator[p]
                for sib in tree.children[p]:
                    assert dec.compensator[sib] == dec.compensator[n]
        done += 1


@criterion(5)
def test_criterion_5_bound_propagation():
    rng = random.Random(50505)
    for _ in range(200):
        market = random_market(rng, martingale=True)
        strategy = random_sf_strategy(rng, market)
        x = -min(
            liquidation_value(
                market, *pre_trade_holdings(strategy, leaf), leaf
            )
            for leaf in market.tree.leaves
        )
        verdict = check_admissibility_theorem(market, strategy, x)
        assert verdict.holds, verdict.witness
        assert verdict.hypothesis_ok, verdict.hypothesis_failures

    for report, dip_node in (
        (deterministic_counterexample(F(1, 2)), 1),
        (stochastic_counterexample(), 7),
    ):
        verdict = check_admissibility_theorem(report.market, report.strategy, 1)
        assert not verdict.holds
        assert verdict.witness.node == dip_node
        assert verdict.witness.classification == LONG
        assert not verdict.hypothesis_ok
        t = cps_threshold(report.market)
        assert 0 < t <= report.fee
        assert verdict.cps_levels == ((t, True),)
        assert any(
            "no consistent price system" in msg for msg in verdict.hypothesis_failures
        )


@criterion(6)
def test_criterion_6_frictionless_propagation():
    rng = random.Random(60606)
    for _ in range(100):
        market = binomial_martingale_market(rng, depth=rng.randint(1, 4))
        positions = random_predictable(rng, market.tree)
        gains = {market.tree.root: F(0)}
        for n in market.tree.nodes:
            p = market.tree.parent[n]
            if p is not None:
                gains[n] = gains[p] + positions[n] * (market.price[n] - market.price[p])
        x = -min(gains[leaf] for leaf in market.tree.leaves)
        verdict = frictionless_check(market, positions, x)
        assert verdict.hypothesis_ok, verdict.hypothesis_failures
        assert verdict.holds, verdict.witness
        assert all(gains[n] + x >= 0 for n in market.tree.nodes)


@criterion(7)
def test_criterion_7_rescaled_systems_stay_consistent():
    rng = random.Random(70707)
    done = 0
    while done < 50:
        market = random_market(rng, fee=rng.choice([F(1, 8), F(1, 4), F(1, 2)]))
        witness_fee = market.fee / 8
        alpha = market.fee / 4
        found = find_cps(market, CpsQuery(witness_fee, DEFAULT_EPSILON))
        if not found.feasible:
            continue
        assert witness_fee < alpha < market.fee
        for scaled in scale_cps(found.cps, market.fee, alpha):
            assert scaled.fee == market.fee
            ok, violations = verify_cps(market, scaled, fee=market.fee)
            assert ok, violations
        done += 1
