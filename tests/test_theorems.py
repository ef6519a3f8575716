import itertools
import random
from fractions import Fraction

import pytest

from spreadlab import (
    ABSOLUTELY_CONTINUOUS,
    DEFAULT_EPSILON,
    LONG,
    NUMERAIRE_BASED,
    NUMERAIRE_FREE,
    SHORT,
    AdaptedProcess,
    ConsistentPriceSystem,
    CpsError,
    CpsQuery,
    PredictableProcess,
    Strategy,
    check_admissibility_theorem,
    check_ossm,
    derive_bond_account,
    deterministic_counterexample,
    doob_decompose,
    find_cps,
    frictionless_check,
    load_market,
    replay_admissibility_argument,
    shadow_decomposition,
    shadow_values,
    stochastic_counterexample,
)
from spreadlab.cps import _threshold
from spreadlab.theorems import TheoremWitness

from helpers import (
    binomial_martingale_market,
    random_adapted,
    random_density,
    random_market,
    random_predictable,
    random_sf_strategy,
    random_stock_plan,
    random_tree,
)

F = Fraction


def chain_tree(*prices):
    doc = {
        "times": [str(i) for i in range(len(prices))],
        "lambda": "0",
        "nodes": [{"id": 0, "parent": None, "prob": "1", "S": str(prices[0])}] + [
            {"id": i, "parent": i - 1, "prob": "1", "S": str(p)}
            for i, p in enumerate(prices[1:], start=1)
        ],
    }
    return load_market(doc)


def unit_density(tree):
    return AdaptedProcess.constant(tree, F(1))


def flat_positions(tree, value):
    return PredictableProcess({n: F(value) for n in tree.nodes})


# ----- stopping-time machinery for the cross-check -------------------------

def stop_sets(tree, node):
    """Every restriction of a stopping time to the subtree at node."""
    options = [frozenset({node})]
    kids = tree.children[node]
    if kids:
        for combo in itertools.product(*(stop_sets(tree, c) for c in kids)):
            options.append(frozenset().union(*combo))
    return options


def ancestors_or_self(tree, node):
    out = {node}
    while tree.parent[node] is not None:
        node = tree.parent[node]
        out.add(node)
    return out


def dominated(tree, sigma, tau):
    """sigma <= tau pathwise: every tau-stop has a sigma-stop at or above it."""
    return all(ancestors_or_self(tree, t) & sigma for t in tau)


def antichain_supermartingale(tree, process, density):
    """The bound over every ordered pair of stopping times, checked head on."""
    times = stop_sets(tree, tree.root)
    subtree = {
        n: {m for m in tree.nodes if n in ancestors_or_self(tree, m)}
        for n in tree.nodes
    }
    prob = {}
    for n in tree.nodes:
        p = tree.parent[n]
        prob[n] = tree.cond_prob[n] if p is None else prob[p] * tree.cond_prob[n]
    mass = {n: prob[n] * density[n] for n in tree.nodes}
    for sigma, tau in itertools.product(times, times):
        if not dominated(tree, sigma, tau):
            continue
        for s in sigma:
            if mass[s] == 0:
                continue
            stops = tau & subtree[s]
            total = sum(mass[t] for t in stops)
            assert total == mass[s]
            expected = sum(mass[t] * process[t] for t in stops) / mass[s]
            if expected > process[s]:
                return False
    return True


def built_supermartingale(rng, tree, density):
    """Backward construction: each supported node sits a chosen amount above
    its conditional child average, so the drift is -that amount."""
    values = {}
    for leaf in tree.leaves:
        values[leaf] = F(rng.randint(-4, 4))
    for n in reversed(tree.nodes):
        if n in tree.leaves:
            continue
        if density[n] == 0:
            values[n] = F(rng.randint(-4, 4))
            continue
        avg = sum(
            tree.cond_prob[c] * density[c] * values[c] for c in tree.children[n]
        ) / density[n]
        values[n] = avg + F(rng.choice([0, 0, 1, 2]))
    return AdaptedProcess(values)


class TestOssm:
    def test_decreasing_chain(self):
        market = chain_tree(1, 1, 1)
        proc = AdaptedProcess({0: F(3), 1: F(2), 2: F(2)})
        report = check_ossm(market.tree, proc, unit_density(market.tree))
        assert report.ok and report.violations == ()

    def test_rising_chain_flags_the_node(self):
        market = chain_tree(1, 1)
        proc = AdaptedProcess({0: F(0), 1: F(1)})
        report = check_ossm(market.tree, proc, unit_density(market.tree))
        assert not report.ok
        assert report.violations == ((0, F(1)),)

    def test_dead_branch_not_examined(self):
        market = load_market({
            "times": ["0", "1", "2"],
            "lambda": "0",
            "nodes": [
                {"id": 0, "parent": None, "prob": "1", "S": "1"},
                {"id": 1, "parent": 0, "prob": "1/2", "S": "1"},
                {"id": 2, "parent": 0, "prob": "1/2", "S": "1"},
                {"id": 3, "parent": 1, "prob": "1", "S": "1"},
                {"id": 4, "parent": 2, "prob": "1", "S": "1"},
            ],
        })
        tree = market.tree
        density = AdaptedProcess({0: F(1), 1: F(0), 2: F(2), 3: F(0), 4: F(2)})
        # rises only inside the branch the measure never charges
        proc = AdaptedProcess({0: F(0), 1: F(0), 2: F(0), 3: F(5), 4: F(0)})
        assert check_ossm(tree, proc, density).ok

    def test_bad_density_rejected(self):
        market = chain_tree(1, 1)
        bad = AdaptedProcess({0: F(2), 1: F(2)})
        with pytest.raises(ValueError, match="invalid density"):
            check_ossm(market.tree, AdaptedProcess.constant(market.tree, F(0)), bad)

    def test_matches_stopping_time_formulation(self):
        rng = random.Random(97)
        saw_fail = saw_pass = 0
        for trial in range(60):
            tree = random_tree(rng, max_depth=2, max_children=3)
            density = random_density(rng, tree, allow_zero=(trial % 3 == 0))
            if trial % 2:
                proc = built_supermartingale(rng, tree, density)
            else:
                proc = random_adapted(rng, tree)
            verdict = check_ossm(tree, proc, density).ok
            assert verdict == antichain_supermartingale(tree, proc, density)
            saw_fail += not verdict
            saw_pass += verdict
        assert saw_fail > 5 and saw_pass > 5


class TestDoob:
    def test_single_drop(self):
        market = chain_tree(1, 1, 1)
        proc = AdaptedProcess({0: F(0), 1: F(-1), 2: F(-1)})
        dec = doob_decompose(market.tree, proc, unit_density(market.tree))
        assert dec.compensator.values == {0: F(0), 1: F(1), 2: F(1)}
        assert dec.martingale.values == {0: F(0), 1: F(0), 2: F(0)}

    def test_martingale_gets_zero_compensator(self):
        rng = random.Random(101)
        for _ in range(10):
            tree = random_tree(rng)
            density = random_density(rng, tree)
            # density itself is a martingale under the unit measure
            dec = doob_decompose(tree, density, unit_density(tree))
            assert all(v == 0 for v in dec.compensator.values.values())
            assert dec.martingale.values == density.values

    def test_submartingale_rejected(self):
        market = chain_tree(1, 1)
        proc = AdaptedProcess({0: F(0), 1: F(1)})
        with pytest.raises(ValueError, match="positive drift"):
            doob_decompose(market.tree, proc, unit_density(market.tree))

    def test_reconstruction_and_shape(self):
        rng = random.Random(103)
        for trial in range(25):
            tree = random_tree(rng)
            density = random_density(rng, tree, allow_zero=(trial % 4 == 0))
            proc = built_supermartingale(rng, tree, density)
            dec = doob_decompose(tree, proc, density)
            # X = M - A, A predictable, nondecreasing, zero at the root
            assert dec.compensator[tree.root] == 0
            for n in tree.nodes:
                assert proc[n] == dec.martingale[n] - dec.compensator[n]
                p = tree.parent[n]
                if p is not None:
                    assert dec.compensator[n] >= dec.compensator[p]
                    for sib in tree.children[p]:
                        assert dec.compensator[sib] == dec.compensator[n]
            assert check_ossm(tree, dec.martingale, density).ok
            for n in tree.internal:
                if density[n] == 0:
                    continue
                step = sum(
                    tree.cond_prob[c] * density[c] * dec.martingale[c]
                    for c in tree.children[n]
                )
                assert step == density[n] * dec.martingale[n]


class TestShadowValues:
    def test_pre_and_post_trade(self):
        report = deterministic_counterexample(F(1, 2))
        tree = report.market.tree
        marked = shadow_values(report.strategy, report.cps_witness)
        assert all(v == F(-1) for v in marked.values.values())
        pre = shadow_values(report.strategy, report.cps_witness, pre_trade=True)
        assert pre[0] == 0
        assert all(pre[n] == F(-1) for n in tree.nodes if n != 0)

    def test_partial_support_rejected(self):
        report = deterministic_counterexample(F(1, 2))
        tree = report.market.tree
        cps = report.cps_witness
        trimmed = ConsistentPriceSystem(
            shadow_price={n: v for n, v in cps.shadow_price.items() if n != 1},
            density=cps.density,
            fee=cps.fee,
        )
        with pytest.raises(ValueError, match="shadow price missing at nodes"):
            shadow_values(report.strategy, trimmed)


class TestShadowDecomposition:
    def test_idle_strategy_is_flat_zero(self):
        rng = random.Random(107)
        market = random_market(rng, martingale=True)
        strategy = Strategy(
            tree=market.tree,
            bond=AdaptedProcess.constant(market.tree, F(0)),
            stock=AdaptedProcess.constant(market.tree, F(0)),
        )
        cps = ConsistentPriceSystem(
            shadow_price=dict(market.price.values),
            density=AdaptedProcess.constant(market.tree, F(1)),
            fee=market.fee,
        )
        dec = shadow_decomposition(market, strategy, cps)
        for part in (dec.cost, dec.transform, dec.value):
            assert all(v == 0 for v in part.values.values())

    def test_counterexample_split(self):
        report = deterministic_counterexample(F(1, 2))
        dec = shadow_decomposition(report.market, report.strategy, report.cps_witness)
        assert all(v == F(-1) for v in dec.value.values.values())
        assert all(v == F(-1) for v in dec.cost.values.values())
        assert all(v == F(0) for v in dec.transform.values.values())

    def test_requires_self_financing(self):
        report = stochastic_counterexample(literal_sale=True)
        with pytest.raises(ValueError, match="not self-financing at nodes \\[1\\]"):
            shadow_decomposition(report.market, report.strategy, report.cps_witness)

    def test_requires_valid_system(self):
        report = deterministic_counterexample(F(1, 2))
        off = ConsistentPriceSystem(
            shadow_price={n: F(9) for n in report.market.tree.nodes},
            density=report.cps_witness.density,
            fee=report.market.fee,
        )
        with pytest.raises(ValueError, match="price system invalid"):
            shadow_decomposition(report.market, report.strategy, off)

    def test_cost_falls_and_transform_is_fair(self):
        rng = random.Random(109)
        checked = 0
        while checked < 15:
            market = random_market(rng)
            found = find_cps(market, CpsQuery(market.fee) if market.fee
                             else CpsQuery(market.fee, F(1, 10**6)))
            if not found.feasible:
                continue
            strategy = random_sf_strategy(rng, market)
            dec = shadow_decomposition(market, strategy, found.cps)
            tree = market.tree
            assert dec.cost[tree.root] <= 0
            for n in tree.nodes:
                p = tree.parent[n]
                if p is not None:
                    assert dec.cost[n] <= dec.cost[p]
            z = found.cps.density
            for n in tree.internal:
                step = sum(
                    tree.cond_prob[c] * z[c] * dec.transform[c]
                    for c in tree.children[n]
                )
                assert step == z[n] * dec.transform[n]
            checked += 1


class TestValueCompensatorLink:
    def test_compensator_tracks_expected_cost(self):
        # the falling part of the marked value is exactly the cost term, so
        # the Doob compensator's increments are the expected cost drops
        rng = random.Random(113)
        checked = 0
        while checked < 15:
            market = random_market(rng)
            found = find_cps(market, CpsQuery(market.fee) if market.fee
                             else CpsQuery(market.fee, F(1, 10**6)))
            if not found.feasible:
                continue
            strategy = random_sf_strategy(rng, market)
            dec = shadow_decomposition(market, strategy, found.cps)
            tree, z = market.tree, found.cps.density
            assert check_ossm(tree, dec.value, z).ok
            doob = doob_decompose(tree, dec.value, z)
            for n in tree.internal:
                expected_drop = dec.cost[n] - sum(
                    tree.cond_prob[c] * z[c] * dec.cost[c] for c in tree.children[n]
                ) / z[n]
                for c in tree.children[n]:
                    assert doob.compensator[c] - doob.compensator[n] == expected_drop
            checked += 1

    def test_chain_markets_make_it_pathwise(self):
        rng = random.Random(127)
        checked = 0
        while checked < 10:
            market = random_market(rng, max_children=1)
            found = find_cps(market, CpsQuery(market.fee) if market.fee
                             else CpsQuery(market.fee, F(1, 10**6)))
            if not found.feasible:
                continue
            strategy = random_sf_strategy(rng, market)
            dec = shadow_decomposition(market, strategy, found.cps)
            doob = doob_decompose(market.tree, dec.value, found.cps.density)
            for n in market.tree.nodes:
                root_cost = dec.cost[market.tree.root]
                assert doob.compensator[n] == root_cost - dec.cost[n] + (
                    doob.compensator[market.tree.root]
                )
            checked += 1


def market_doc(fee, *nodes):
    """Market from (id, parent, prob, S) tuples, one period per depth."""
    depth = {}
    for n, parent, _, _ in nodes:
        depth[n] = 0 if parent is None else depth[parent] + 1
    return load_market({
        "times": [str(t) for t in range(max(depth.values()) + 1)],
        "lambda": str(fee),
        "nodes": [
            {"id": n, "parent": parent, "prob": str(prob), "S": str(price)}
            for n, parent, prob, price in nodes
        ],
    })


def constant_strategy(tree, bond, stock):
    return Strategy(
        tree=tree,
        bond=AdaptedProcess.constant(tree, F(bond)),
        stock=AdaptedProcess.constant(tree, F(stock)),
    )


class TestAdmissibilityTheorem:
    def test_threshold_below_every_halving(self):
        # 4 shares bought at the root of the path 1, 9999/10000, 1: the
        # dip breaks -2 at node 1, and no price system exists below
        # 1/10000, far under the market level 1/2 halved ten times
        market = market_doc(
            F(1, 2), (0, None, 1, 1), (1, 0, 1, F(9999, 10000)), (2, 1, 1, 1)
        )
        verdict = check_admissibility_theorem(market, constant_strategy(market.tree, -4, 4), 2)
        assert not verdict.holds
        assert verdict.witness.node == 1
        assert not verdict.hypothesis_ok
        assert verdict.cps_levels == ((F(1, 10000), True),)
        assert any(
            "no consistent price system" in f and "1/10000" in f
            for f in verdict.hypothesis_failures
        )

    def test_unattained_threshold_fails_only_without_costs(self):
        # root 1 over children 1 and 2: an equivalent system exists at every
        # positive level but not at 0, an absolutely continuous one at 0 too
        nodes = ((0, None, 1, 1), (1, 0, F(1, 2), 1), (2, 0, F(1, 2), 2))
        costly = market_doc(F(1, 4), *nodes)
        idle = constant_strategy(costly.tree, 0, 0)
        verdict = check_admissibility_theorem(costly, idle, 0)
        assert verdict.hypothesis_ok, verdict.hypothesis_failures
        assert verdict.cps_levels == ((0, False),)

        free = market_doc(0, *nodes)
        verdict = check_admissibility_theorem(free, idle, 0)
        assert not verdict.hypothesis_ok
        assert verdict.cps_levels == ((0, False),)
        assert any("no consistent price system" in f for f in verdict.hypothesis_failures)
        verdict = check_admissibility_theorem(free, idle, 0, measure=ABSOLUTELY_CONTINUOUS)
        assert verdict.hypothesis_ok, verdict.hypothesis_failures
        assert verdict.cps_levels == ((0, True),)

    def test_idle_strategy_holds(self):
        rng = random.Random(131)
        market = random_market(rng, fee=F(1, 4), martingale=True)
        strategy = Strategy(
            tree=market.tree,
            bond=AdaptedProcess.constant(market.tree, F(0)),
            stock=AdaptedProcess.constant(market.tree, F(0)),
        )
        verdict = check_admissibility_theorem(market, strategy, 0)
        assert verdict.holds and verdict.hypothesis_ok
        assert verdict.witness is None
        assert verdict.admissibility_bound == 0
        assert all(feasible for _, feasible in verdict.cps_levels)

    def test_counterexample_breaks_both_sides(self):
        report = deterministic_counterexample(F(1, 2))
        verdict = check_admissibility_theorem(report.market, report.strategy, 1)
        assert not verdict.holds
        assert verdict.witness.node == 1
        assert verdict.witness.classification == LONG
        assert verdict.witness.value == F(-3, 2)
        # no price system exists below the market's own level, so the premise fails too
        assert not verdict.hypothesis_ok
        assert any("no consistent price system" in f for f in verdict.hypothesis_failures)
        feasible_levels = {lv for lv, ok in verdict.cps_levels if ok}
        assert feasible_levels == {F(1, 2)}

    def test_martingale_markets_are_safe(self):
        rng = random.Random(137)
        for _ in range(15):
            market = random_market(rng, martingale=True)
            strategy = random_sf_strategy(rng, market)
            worst = min(
                shadow_values(strategy, ConsistentPriceSystem(
                    shadow_price=dict(market.price.values),
                    density=AdaptedProcess.constant(market.tree, F(1)),
                    fee=market.fee,
                ), pre_trade=True)[leaf]
                for leaf in market.tree.leaves
            )
            from spreadlab import liquidation_value, pre_trade_holdings

            x = -min(
                liquidation_value(market, *pre_trade_holdings(strategy, leaf), leaf)
                for leaf in market.tree.leaves
            )
            verdict = check_admissibility_theorem(market, strategy, x)
            assert verdict.holds, (worst, verdict.witness)
            assert verdict.hypothesis_ok, verdict.hypothesis_failures

    def test_mode_only_changes_reported_bound(self):
        report = deterministic_counterexample(F(1, 2))
        nb = check_admissibility_theorem(report.market, report.strategy, 1)
        nf = check_admissibility_theorem(report.market, report.strategy, 1, mode=NUMERAIRE_FREE)
        assert nb.admissibility_bound == F(3, 2)
        assert nf.admissibility_bound == F(1)
        assert (nb.holds, nb.witness) == (nf.holds, nf.witness)

    def test_unknown_mode(self):
        report = deterministic_counterexample(F(1, 2))
        with pytest.raises(ValueError, match="unknown admissibility mode"):
            check_admissibility_theorem(report.market, report.strategy, 1, mode="strict")

    def test_unknown_measure(self):
        report = deterministic_counterexample(F(1, 2))
        with pytest.raises(CpsError, match="unknown measure class 'bogus'"):
            check_admissibility_theorem(report.market, report.strategy, 1, measure="bogus")


def reference_frictionless_check(market, positions, x):
    """The frictionless statement checked on its own terms: the gains of
    ``positions``, a martingale measure, the terminal bound and the first
    node below -x, each computed directly.  Returns (holds,
    hypothesis_ok, failures, cps_levels, witness, gains)."""
    tree = market.tree
    gains = {}
    for n in tree.nodes:
        p = tree.parent[n]
        if p is None:
            gains[n] = F(0)
        else:
            gains[n] = gains[p] + positions[n] * (market.price[n] - market.price[p])

    failures = []
    threshold, attained = _threshold(market, True)
    if threshold > 0 or not attained:
        failures.append(f"no equivalent martingale measure (threshold {threshold})")
    for leaf in tree.leaves:
        if gains[leaf] < -x:
            failures.append(f"terminal bound fails at leaf {leaf}: {gains[leaf]} < {-x}")

    witness = None
    for n in tree.nodes:
        if gains[n] < -x:
            witness = TheoremWitness(
                node=n, classification=LONG if positions[n] >= 0 else SHORT, value=gains[n]
            )
            break
    return witness is None, not failures, failures, ((threshold, attained),), witness, gains


class TestFrictionless:
    def test_agrees_with_the_gains_recursion(self):
        # the theorem at lambda = 0, run on the strategy holding the
        # positions, against the gains computed directly
        rng = random.Random(167)
        seen = {"violated": 0, "premise fails": 0, "root witness": 0}
        for i in range(400):
            if i % 2:
                market = binomial_martingale_market(rng, depth=rng.randint(1, 3))
            else:
                market = random_market(rng, fee=F(0))
            positions = random_predictable(rng, market.tree)
            x = F(rng.randint(-2, 8), 2)
            verdict = frictionless_check(market, positions, x)
            holds, hypothesis_ok, failures, levels, witness, gains = reference_frictionless_check(
                market, positions, x
            )
            assert (verdict.holds, verdict.hypothesis_ok, verdict.cps_levels) == (holds, hypothesis_ok, levels)
            assert len(verdict.hypothesis_failures) == len(failures)
            assert verdict.mode == NUMERAIRE_BASED
            assert verdict.admissibility_bound == max(F(0), -min(gains.values()))
            if witness is None:
                assert verdict.witness is None
                continue
            assert (verdict.witness.node, verdict.witness.value) == (witness.node, witness.value)
            if witness.node == market.tree.root:
                # nothing is held into the root: a flat position counts as long
                assert verdict.witness.classification == LONG
                seen["root witness"] += 1
            else:
                assert verdict.witness.classification == witness.classification
            seen["violated"] += 1
            seen["premise fails"] += not hypothesis_ok
        assert min(seen.values()) >= 10, seen

    def test_root_witness_is_long_for_negative_x(self):
        # x < 0 asks for a positive value where nothing is held yet: the
        # root is the witness, classified by its flat incoming position,
        # whatever the convention value of positions at the root says
        market = chain_tree(1, 2)
        positions = PredictableProcess({0: F(-1), 1: F(-1)})
        expected = TheoremWitness(node=0, classification=LONG, value=F(0))
        assert frictionless_check(market, positions, -1).witness == expected
        strategy = derive_bond_account(market, AdaptedProcess({0: F(-1), 1: F(-1)}))
        assert check_admissibility_theorem(market, strategy, -1).witness == expected

    def test_needs_zero_fee(self):
        rng = random.Random(139)
        market = random_market(rng, fee=F(1, 4))
        positions = flat_positions(market.tree, 0)
        with pytest.raises(ValueError, match="needs lambda = 0"):
            frictionless_check(market, positions, 0)

    def test_idle_book_holds(self):
        rng = random.Random(149)
        market = binomial_martingale_market(rng, depth=3)
        verdict = frictionless_check(market, flat_positions(market.tree, 0), 0)
        assert verdict.holds and verdict.hypothesis_ok
        assert verdict.cps_levels == ((F(0), True),)

    def test_drifting_price_breaks_the_premise(self):
        market = chain_tree(1, 2)
        verdict = frictionless_check(market, flat_positions(market.tree, 1), 0)
        assert not verdict.hypothesis_ok
        assert any("martingale measure" in f for f in verdict.hypothesis_failures)
        assert verdict.holds  # gains only rise here

    def test_terminal_bound_propagates(self):
        rng = random.Random(151)
        for _ in range(25):
            market = binomial_martingale_market(rng, depth=rng.randint(1, 3))
            positions = random_predictable(rng, market.tree)
            gains = {market.tree.root: F(0)}
            for n in market.tree.nodes:
                p = market.tree.parent[n]
                if p is not None:
                    gains[n] = gains[p] + positions[n] * (market.price[n] - market.price[p])
            x = -min(gains[leaf] for leaf in market.tree.leaves)
            verdict = frictionless_check(market, positions, x)
            assert verdict.holds, verdict.witness
            assert verdict.hypothesis_ok, verdict.hypothesis_failures

    def test_short_witness_classified(self):
        market = chain_tree(1, 2, 2)
        positions = PredictableProcess({0: F(0), 1: F(-1), 2: F(0)})
        verdict = frictionless_check(market, positions, F(1, 2))
        assert not verdict.holds
        assert verdict.witness.node == 1
        assert verdict.witness.classification == SHORT
        assert verdict.witness.value == F(-1)


class TestReplay:
    def test_no_violation_returns_none(self):
        rng = random.Random(157)
        market = random_market(rng, fee=F(1, 2), martingale=True)
        strategy = Strategy(
            tree=market.tree,
            bond=AdaptedProcess.constant(market.tree, F(0)),
            stock=AdaptedProcess.constant(market.tree, F(0)),
        )
        cps = ConsistentPriceSystem(
            shadow_price=dict(market.price.values),
            density=AdaptedProcess.constant(market.tree, F(1)),
            fee=F(0),
        )
        assert replay_admissibility_argument(market, strategy, 0, cps) is None

    def test_stochastic_violation_is_replayed(self):
        report = stochastic_counterexample(witness_fee=F(1, 16))
        result = replay_admissibility_argument(
            report.market, report.strategy, F(3, 4), report.cps_witness, alpha=F(1, 8)
        )
        assert result is not None
        assert result.classification == LONG
        assert result.conditional_terminal <= result.shadow_bound <= result.modified_value
        assert result.modified_value < F(-3, 4)
        # terminal liquidation averages below -x, which is the contradiction
        assert result.conditional_terminal < F(-3, 4)

    def test_deterministic_witness_cannot_rescale(self):
        report = deterministic_counterexample(F(1, 2))
        with pytest.raises(ValueError, match="ordering|spread"):
            replay_admissibility_argument(
                report.market, report.strategy, 1, report.cps_witness
            )
