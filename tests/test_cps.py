import random
from fractions import Fraction

import pytest

from spreadlab import (
    ABSOLUTELY_CONTINUOUS,
    DEFAULT_EPSILON,
    EQUIVALENT,
    AdaptedProcess,
    BruteForceResult,
    ConsistentPriceSystem,
    CpsError,
    CpsQuery,
    Strategy,
    TreeError,
    brute_force_cps,
    cps_threshold,
    cps_to_doc,
    deterministic_counterexample,
    find_cps,
    load_cps,
    load_market,
    make_market,
    max_equivalence_margin,
    replay_admissibility_argument,
    scale_cps,
    shadow_decomposition,
    shadow_value,
    shadow_values,
    stochastic_counterexample,
    verify_cps,
)
from spreadlab import cps as cps_module
from spreadlab import simplex

import cps_reference
from helpers import binomial_martingale_market, random_market

F = Fraction


def binary_market(fee="0", p_up="1/3", up="2", down="1/2"):
    # one-period market whose only martingale weight on {up, down} is q
    return load_market({
        "times": ["0", "1"],
        "lambda": fee,
        "nodes": [
            {"id": 0, "parent": None, "prob": "1", "S": "1"},
            {"id": 1, "parent": 0, "prob": p_up, "S": up},
            {"id": 2, "parent": 0, "prob": str(F(1) - F(p_up)), "S": down},
        ],
    })


def increasing_chain(fee="1/4"):
    return load_market({
        "times": ["0", "1"],
        "lambda": fee,
        "nodes": [
            {"id": 0, "parent": None, "prob": "1", "S": "1"},
            {"id": 1, "parent": 0, "prob": "1", "S": "2"},
        ],
    })


class TestQuery:
    def test_defaults(self):
        q = CpsQuery(F(1, 4))
        assert q.epsilon == DEFAULT_EPSILON and q.mode == EQUIVALENT

    def test_fee_range(self):
        with pytest.raises(CpsError, match="cost level"):
            CpsQuery(F(1))
        with pytest.raises(CpsError, match="cost level"):
            CpsQuery(F(-1, 8))

    def test_mode_epsilon_consistency(self):
        with pytest.raises(CpsError, match="mode"):
            CpsQuery(F(1, 4), epsilon=F(0), mode=EQUIVALENT)
        with pytest.raises(CpsError, match="mode"):
            CpsQuery(F(1, 4), epsilon=F(1, 10), mode=ABSOLUTELY_CONTINUOUS)
        with pytest.raises(CpsError, match="unknown measure class"):
            CpsQuery(F(1, 4), mode="exact")


class TestFindCps:
    def test_counterexample_market_at_its_own_level(self):
        market = deterministic_counterexample(F(1, 2)).market
        result = find_cps(market, CpsQuery(F(1, 2)))
        assert result.feasible
        # a deterministic martingale is constant, and the spread pins it
        assert all(s == F(1, 2) for s in result.cps.shadow_price.values())
        assert all(z == 1 for z in result.cps.density.values.values())
        ok, violations = verify_cps(market, result.cps, epsilon=DEFAULT_EPSILON)
        assert ok, violations

    def test_martingale_market_takes_its_own_price(self):
        rng = random.Random(67)
        for _ in range(10):
            market = random_market(rng, martingale=True)
            for fee in (F(0), F(1, 4)):
                result = find_cps(market, CpsQuery(fee) if fee else CpsQuery(fee, F(1, 10**6)))
                assert result.feasible
                handmade = ConsistentPriceSystem(
                    tree=market.tree,
                    shadow_price=dict(market.price.values),
                    density=AdaptedProcess.constant(market.tree, F(1)),
                    fee=fee,
                )
                ok, violations = verify_cps(market, handmade)
                assert ok, violations

    def test_below_threshold_is_infeasible_with_certificate(self):
        market = deterministic_counterexample(F(1, 2)).market
        result = find_cps(market, CpsQuery(F(1, 4)))
        assert not result.feasible
        assert result.infeasibility.verify()

    def test_monotone_in_fee(self):
        rng = random.Random(71)
        checked = 0
        while checked < 12:
            market = random_market(rng)
            result = find_cps(market, CpsQuery(F(1, 8)))
            if not result.feasible:
                continue
            for wider in (F(1, 4), F(1, 2), F(7, 8)):
                ok, violations = verify_cps(market, result.cps, fee=wider)
                assert ok, violations
            checked += 1

    def test_result_carries_the_minimum_leaf_density(self):
        rng = random.Random(73)
        feasible = {EQUIVALENT: 0, ABSOLUTELY_CONTINUOUS: 0}
        while min(feasible.values()) < 20:
            market = random_market(rng)
            for mode, epsilon in ((EQUIVALENT, DEFAULT_EPSILON), (ABSOLUTELY_CONTINUOUS, F(0))):
                result = find_cps(market, CpsQuery(market.fee, epsilon, mode))
                if result.feasible:
                    leaves = [result.cps.density[leaf] for leaf in market.tree.leaves]
                    assert result.min_leaf_density == min(leaves)
                    feasible[mode] += 1
                else:
                    assert result.min_leaf_density is None

    def test_shadow_price_is_mass_quotient(self):
        # the system is the point z, y = z * S-tilde of the linear rows,
        # which it satisfies at its own minimum leaf density as the floor
        rng = random.Random(73)
        checked = 0
        while checked < 12:
            market = random_market(rng)
            result = find_cps(market, CpsQuery(F(1, 4)))
            if not result.feasible:
                continue
            cps = result.cps
            z = [cps.density[n] for n in market.tree.nodes]
            y = [zn * cps.shadow_price[n] for zn, n in zip(z, market.tree.nodes)]
            assert all(zn > 0 for zn in z)
            _, rows, _ = cps_module._cps_constraints(market, F(1, 4), result.min_leaf_density)
            for row in rows:
                lhs = sum(a * (z + y)[j] for j, a in row.coeffs.items())
                holds = {simplex.EQ: lhs == row.rhs, simplex.LE: lhs <= row.rhs, simplex.GE: lhs >= row.rhs}
                assert holds[row.relation], row.label
            checked += 1

    def test_rejects_invalid_market(self):
        from spreadlab import Market, MarketError

        market = deterministic_counterexample(F(1, 2)).market
        # a market is validated when built, so no invalid one reaches find_cps
        with pytest.raises(MarketError):
            Market(tree=market.tree, price=market.price, fee=F(3, 2))


class TestBoundToTree:
    def test_system_on_another_tree_refused(self):
        # the 2-step instance's nodes 0-2 are also the 4-step instance's, so
        # every sweep would read a value; only the system's tree tells them apart
        det2, det4 = deterministic_counterexample(F(1, 2)), deterministic_counterexample(F(1, 2), steps=4)
        checks = {
            "verify_cps": lambda cps: verify_cps(det2.market, cps),
            "shadow_values": lambda cps: shadow_values(det2.strategy, cps),
            "shadow_value": lambda cps: shadow_value(det2.strategy, cps, 1),
            "shadow_decomposition": lambda cps: shadow_decomposition(det2.market, det2.strategy, cps),
            "replay_admissibility_argument": lambda cps: replay_admissibility_argument(
                det2.market, det2.strategy, 1, cps
            ),
        }
        # an equal tree built apart is the same tree
        apart = deterministic_counterexample(F(1, 2)).cps_witness
        assert apart.tree is not det2.market.tree
        for name, check in checks.items():
            with pytest.raises(TreeError) as info:
                check(det4.cps_witness)
            assert type(info.value) is TreeError, name
            assert info.value.problems == ["price system is bound to another tree"], name
            if name != "replay_admissibility_argument":  # this witness cannot rescale
                check(apart)

    def test_float_shadow_price_refused_when_built(self):
        # these floats were computed with: shadow_values marked the det
        # strategy to -1.0 at every node
        tree = deterministic_counterexample(F(1, 2)).market.tree
        with pytest.raises(CpsError) as info:
            ConsistentPriceSystem(tree, {n: 0.5 for n in tree.nodes}, AdaptedProcess.constant(tree, 1), F(1, 2))
        assert info.value.problems == [f"node {n}: shadow price 0.5 is not a Fraction or an int" for n in tree.nodes]

    def test_density_missing_nodes_refused_when_built(self):
        tree = deterministic_counterexample(F(1, 2)).market.tree
        with pytest.raises(CpsError) as info:
            ConsistentPriceSystem(tree, {0: F(1, 2)}, AdaptedProcess({0: 1}), F(1, 2))
        assert info.value.problems == ["density missing values at nodes [1, 2]"]

    def test_built_systems_carry_their_tree(self):
        det = deterministic_counterexample(F(1, 2))
        tree = det.market.tree
        loaded, _ = load_cps(cps_to_doc(det.cps_witness, DEFAULT_EPSILON), tree)
        found = find_cps(det.market, CpsQuery(F(1, 2))).cps
        _, margin_system = max_equivalence_margin(det.market, F(1, 2))
        scaled = scale_cps(stochastic_counterexample(witness_fee=F(1, 16)).cps_witness, F(1, 2), F(1, 8))
        assert loaded.tree is found.tree is margin_system.tree is det.cps_witness.tree is tree
        assert scaled[0].tree is scaled[1].tree is not tree

    def test_shadow_value_reads_the_system(self):
        det = deterministic_counterexample(F(1, 2))
        assert [shadow_value(det.strategy, det.cps_witness, n) for n in det.market.tree.nodes] == [-1, -1, -1]
        off = ConsistentPriceSystem(det.market.tree, {0: F(1, 2), 2: F(1, 2)}, det.cps_witness.density, F(1, 2))
        assert shadow_value(det.strategy, off, 2) == -1
        with pytest.raises(ValueError) as info:
            shadow_value(det.strategy, off, 1)
        assert str(info.value) == "shadow price missing at nodes [1]"


class TestVerifyCps:
    @pytest.mark.parametrize("bad", ["1", True, 1.0])
    @pytest.mark.parametrize("field", ["Z", "S_tilde"])
    def test_inexact_value_reported_not_raised(self, field, bad):
        # a flat market at lambda = 1/2: Z = 1 and S-tilde = S make a system,
        # and one value of the wrong type at node 1 must be named, whatever
        # the arithmetic on it would have done.  The name is older than the
        # check at construction: the value is now refused when the system is
        # built, with the problem verify_cps reported, so no such system
        # reaches verify_cps or shadow_decomposition
        market = binary_market(fee="1/2", p_up="1/2", up="1", down="1")
        shadow, density = {0: F(1), 1: F(1), 2: F(1)}, {0: 1, 1: 1, 2: 1}
        (density if field == "Z" else shadow)[1] = bad
        with pytest.raises(CpsError) as info:
            ConsistentPriceSystem(market.tree, shadow, AdaptedProcess(density), F(1, 2))
        assert info.value.problems == [f"node 1: {'density' if field == 'Z' else 'shadow price'} {bad!r} "
                                       "is not a Fraction or an int"]

    def test_drift_violation_named(self):
        market = increasing_chain()
        cps = ConsistentPriceSystem(
            tree=market.tree,
            shadow_price=dict(market.price.values),
            density=AdaptedProcess.constant(market.tree, F(1)),
            fee=F(1, 4),
        )
        ok, violations = verify_cps(market, cps)
        assert not ok
        assert any("drift" in v for v in violations)

    def test_spread_violation_named(self):
        market = increasing_chain()
        cps = ConsistentPriceSystem(
            tree=market.tree,
            shadow_price={0: F(3), 1: F(3)},
            density=AdaptedProcess.constant(market.tree, F(1)),
            fee=F(1, 4),
        )
        ok, violations = verify_cps(market, cps)
        assert not ok
        assert any("spread" in v for v in violations)

    def test_root_density_and_negativity_checked(self):
        market = increasing_chain()
        cps = ConsistentPriceSystem(
            tree=market.tree,
            shadow_price={0: F(1), 1: F(2)},
            density=AdaptedProcess({0: F(2), 1: F(-1)}),
            fee=F(3, 4),
        )
        ok, violations = verify_cps(market, cps)
        assert not ok
        assert any("root" in v for v in violations)
        assert any("negative" in v for v in violations)

    def test_floor_enforced_when_epsilon_given(self):
        market = binary_market(fee="1/2")
        cps = ConsistentPriceSystem(
            tree=market.tree,
            shadow_price={0: F(1), 1: F(3, 2), 2: F(1, 2)},
            density=AdaptedProcess({0: F(1), 1: F(3, 2), 2: F(3, 4)}),
            fee=F(1, 2),
        )
        ok, violations = verify_cps(market, cps, epsilon=F(1, 2))
        assert ok, violations
        ok, violations = verify_cps(market, cps, epsilon=F(7, 8))
        assert not ok
        assert any("floor" in v or "epsilon" in v for v in violations)

    def test_stochastic_witness_verifies(self):
        report = stochastic_counterexample()
        ok, violations = verify_cps(report.market, report.cps_witness, fee=F(1, 4))
        assert ok, violations


class TestThreshold:
    def test_martingale_market_is_free(self):
        rng = random.Random(79)
        market = random_market(rng, martingale=True)
        assert cps_threshold(market) == 0

    def test_counterexample_market(self):
        market = deterministic_counterexample(F(1, 2)).market
        assert cps_threshold(market) == F(1, 2)
        market = deterministic_counterexample(F(1, 4)).market
        assert cps_threshold(market) == F(1, 4)

    def test_stochastic_market_threshold(self):
        market = stochastic_counterexample().market
        threshold = cps_threshold(market)
        assert threshold <= F(1, 4)
        assert find_cps(market, CpsQuery(threshold)).feasible

    def test_found_path_market(self):
        # a single path forces a constant shadow price, so the level must
        # bridge the dip from 1 to 9999/10000
        market = load_market({
            "times": ["0", "1", "2"],
            "lambda": "1/2",
            "nodes": [
                {"id": 0, "parent": None, "prob": "1", "S": "1"},
                {"id": 1, "parent": 0, "prob": "1", "S": "9999/10000"},
                {"id": 2, "parent": 1, "prob": "1", "S": "1"},
            ],
        })
        assert cps_module._threshold(market, True) == (F(1, 10000), True)
        assert cps_threshold(market) == F(1, 10000)
        assert not find_cps(market, CpsQuery(F(1, 20000))).feasible

    def test_arbitrage_but_delicate_market(self):
        # the root price 1 is the lower child price: no equivalent measure
        # at level 0, one at every positive level, and an absolutely
        # continuous one (all mass on the lower child) already at 0
        market = binary_market(p_up="1/2", up="1", down="2")
        assert cps_module._threshold(market, True) == (0, False)
        assert cps_module._threshold(market, False) == (0, True)
        assert cps_threshold(market) == 0
        assert cps_threshold(market, measure=ABSOLUTELY_CONTINUOUS) == 0
        assert not find_cps(market, CpsQuery(F(0))).feasible
        assert find_cps(market, CpsQuery(F(1, 1000))).feasible
        assert find_cps(market, CpsQuery(F(0), F(0), ABSOLUTELY_CONTINUOUS)).feasible

    def test_unknown_measure_rejected(self):
        with pytest.raises(CpsError, match="unknown measure class 'bogus'"):
            cps_threshold(increasing_chain(), measure="bogus")

    def test_equivalent_threshold_matches_closed_form(self):
        # L_n = max(S_n, min_c L_c), H_n = min(S_n, max_c H_c): the
        # equivalent-mode interval of node n is [(1 - level) L_n, H_n]
        rng = random.Random(4242)
        unattained = 0
        for i in range(300):
            market = random_market(rng)
            tree, price = market.tree, market.price
            low, high = {}, {}
            for n in reversed(tree.nodes):
                kids = tree.children[n]
                low[n] = max([price[n]] + ([min(low[c] for c in kids)] if kids else []))
                high[n] = min([price[n]] + ([max(high[c] for c in kids)] if kids else []))
            expected = max(max(1 - high[n] / low[n], F(0)) for n in tree.nodes)
            level, attained = cps_module._threshold(market, True)
            assert level == expected
            assert cps_threshold(market) == expected
            if i % 6 == 0:
                # attainment against the simplex: an equivalent system exists
                # at a level exactly when the best minimum leaf density is positive
                margin, _ = max_equivalence_margin(market, level)
                assert attained == (margin is not None and margin > 0)
                unattained += not attained
        assert unattained > 0

    def test_ac_threshold_matches_simplex(self):
        rng = random.Random(2424)
        positive = 0
        for _ in range(50):
            market = random_market(rng)
            level, attained = cps_module._threshold(market, False)
            assert cps_threshold(market, measure=ABSOLUTELY_CONTINUOUS) == level

            def lp(fee):
                query = CpsQuery(fee, F(0), ABSOLUTELY_CONTINUOUS)
                return cps_reference.lp_find_cps(market, query).feasible

            assert lp(level) == attained
            assert lp(level + (1 - level) / 1024)
            if level > 0:
                assert not lp(level * F(1023, 1024))
                positive += 1
        assert positive > 0


class TestBruteForce:
    def test_deterministic_market_at_level(self):
        market = deterministic_counterexample(F(1, 2)).market
        result = brute_force_cps(market, F(1, 2))
        assert result.feasible
        assert all(v == F(1, 2) for v in result.witness.shadow_price.values())
        ok, violations = verify_cps(market, result.witness, epsilon=result.margin)
        assert ok, violations

    def test_deterministic_market_below_level(self):
        market = deterministic_counterexample(F(1, 2)).market
        assert not brute_force_cps(market, F(1, 4)).feasible

    def test_single_node_tree(self):
        market = load_market({
            "times": ["0"],
            "lambda": "1/4",
            "nodes": [{"id": 0, "parent": None, "prob": "1", "S": "3"}],
        })
        result = brute_force_cps(market, F(1, 8))
        assert result.feasible
        assert result.margin == 1

    def test_known_margin(self):
        # with S jumping from 1 to {2, 1/2} at lambda'=0, the only
        # martingale weights are (1/3, 2/3); against P = (1/2, 1/2) the
        # density is (2/3, 4/3), so the margin is 2/3
        market = binary_market(p_up="1/2")
        result = brute_force_cps(market, F(0))
        assert result.feasible
        assert result.margin == F(2, 3)
        # a floor above the margin: the witness is found but falls short
        assert brute_force_cps(market, F(0), epsilon=F(3, 4)) == BruteForceResult(False, result.witness, F(2, 3), 8)

    def test_absolutely_continuous_mode(self):
        # the path 1, 1, 1/2: at level 1/2 the shadow price 1/2 is constant;
        # at level 0 node 1 is above its only child, so no value is left to
        # it, and none to the root
        market = load_market({
            "times": ["0", "1", "2"],
            "lambda": "1/2",
            "nodes": [{"id": 0, "parent": None, "prob": "1", "S": "1"},
                      {"id": 1, "parent": 0, "prob": "1", "S": "1"},
                      {"id": 2, "parent": 1, "prob": "1", "S": "1/2"}],
        })
        for level, feasible in ((F(1, 2), True), (F(0), False)):
            assert brute_force_cps(market, level, epsilon=F(0)) == BruteForceResult(feasible, None, None, 8)
            assert find_cps(market, CpsQuery(level, F(0), ABSOLUTELY_CONTINUOUS)).feasible is feasible

    def test_scale_preconditions(self):
        rng = random.Random(83)
        market = random_market(rng, max_depth=3)
        with pytest.raises(ValueError, match="grid resolution"):
            brute_force_cps(market, F(1, 4), grid_resolution=0)
        deep = load_market({
            "times": ["0", "1", "2", "3", "4"],
            "lambda": "1/4",
            "nodes": [{"id": 0, "parent": None, "prob": "1", "S": "1"}] + [
                {"id": i, "parent": i - 1, "prob": "1", "S": "1"} for i in range(1, 5)
            ],
        })
        with pytest.raises(ValueError, match="scale"):
            brute_force_cps(deep, F(1, 4))

    def test_agrees_with_lp_on_random_markets(self):
        rng = random.Random(89)
        for _ in range(40):
            market = random_market(rng)
            fee = rng.choice([F(0), F(1, 8), F(1, 4), F(1, 2)])
            oracle = brute_force_cps(market, fee)
            lp = find_cps(market, CpsQuery(fee, DEFAULT_EPSILON, EQUIVALENT)
                          if fee >= 0 else None)
            if oracle.feasible:
                assert lp.feasible
                ok, violations = verify_cps(market, oracle.witness, epsilon=DEFAULT_EPSILON)
                assert ok, violations
            elif lp.feasible:
                assert brute_force_cps(market, fee, grid_resolution=1024).feasible


class TestMargin:
    def test_known_value(self):
        market = binary_market(p_up="1/2")
        margin, cps = max_equivalence_margin(market, F(0))
        assert margin == F(2, 3)
        ok, violations = verify_cps(market, cps, epsilon=margin)
        assert ok, violations

    def test_infeasible_market_returns_none(self):
        margin, cps = max_equivalence_margin(increasing_chain(), F(1, 4))
        assert margin is None and cps is None


class TestScaleCps:
    def flat_cps(self, fee=F(1, 2)):
        market = load_market({
            "times": ["0", "1"],
            "lambda": str(fee),
            "nodes": [
                {"id": 0, "parent": None, "prob": "1", "S": "1"},
                {"id": 1, "parent": 0, "prob": "1", "S": "1"},
            ],
        })
        cps = ConsistentPriceSystem(
            tree=market.tree,
            shadow_price={0: F(7, 8), 1: F(7, 8)},
            density=AdaptedProcess.constant(market.tree, F(1)),
            fee=F(1, 8),
        )
        return market, cps

    def window_message(self, fee, alpha):
        """What scale_cps raises on the window (fee, alpha), asserted to be
        what the replay raises on a market at level fee."""
        market, cps = self.flat_cps(fee)
        tree = market.tree
        idle = Strategy(tree, AdaptedProcess.constant(tree, 0), AdaptedProcess.constant(tree, 0))
        with pytest.raises(ValueError) as scaled:
            scale_cps(cps, fee, alpha)
        with pytest.raises(ValueError) as replayed:
            replay_admissibility_argument(market, idle, 0, cps, alpha)
        assert type(replayed.value) is type(scaled.value)
        assert str(replayed.value) == str(scaled.value)
        return str(scaled.value)

    def test_both_outputs_land_in_the_wider_spread(self):
        market, cps = self.flat_cps()
        first, second = scale_cps(cps, F(1, 2), F(1, 4))
        assert first.shadow_price[0] == F(21, 32)
        assert second.shadow_price[0] == F(7, 12)
        for scaled in (first, second):
            ok, violations = verify_cps(market, scaled, fee=F(1, 2))
            assert ok, violations
            assert scaled.fee == F(1, 2)

    def test_ordering_window(self):
        assert "ordering" in self.window_message(F(1, 2), F(1, 16))
        assert "ordering" in self.window_message(F(1, 2), F(3, 4))

    def test_spread_exit_window(self):
        # alpha close to fee shrinks prices below the wider bid
        assert "spread" in self.window_message(F(3, 16), F(3, 16))


class TestWire:
    def test_round_trip(self):
        market = deterministic_counterexample(F(1, 2)).market
        result = find_cps(market, CpsQuery(F(1, 2)))
        doc = cps_to_doc(result.cps, DEFAULT_EPSILON)
        assert set(doc) == {"S_tilde", "Z", "lambda_prime", "epsilon"}
        assert all(isinstance(k, str) for k in doc["S_tilde"])
        cps, epsilon = load_cps(doc, market.tree)
        assert epsilon == DEFAULT_EPSILON
        assert cps.fee == F(1, 2)
        assert cps.shadow_price == result.cps.shadow_price
        assert cps.density.values == result.cps.density.values
        assert verify_cps(market, cps, epsilon=epsilon) == (True, [])
        # values at nodes outside the tree: load_cps refuses them on the
        # wire, and a system holding them cannot be built
        injected = cps_to_doc(cps, epsilon)
        injected["S_tilde"]["77"], injected["Z"]["99"] = "1/3", "5"
        with pytest.raises(CpsError) as info:
            load_cps(injected, market.tree)
        assert info.value.problems == ["S_tilde: node 77 not in tree", "Z: node 99 not in tree"]
        with pytest.raises(CpsError) as info:
            ConsistentPriceSystem(
                market.tree, {**cps.shadow_price, 77: F(1, 3)}, AdaptedProcess({**cps.density.values, 99: 5}), cps.fee
            )
        assert info.value.problems == [
            "density has values at unknown nodes [99]",
            "shadow price has values at unknown nodes [77]",
        ]

    def test_partial_shadow_price_marks_off_support(self):
        market = binary_market(fee="1/2")
        doc = {
            "S_tilde": {"0": "1", "2": "1/2"},
            "Z": {"0": "1", "1": "0", "2": "3/2"},
            "lambda_prime": "1/2",
            "epsilon": "0",
        }
        cps, epsilon = load_cps(doc, market.tree)
        assert epsilon == 0
        assert set(cps.shadow_price) == {0, 2}

    def test_missing_keys_rejected(self):
        market = binary_market()
        with pytest.raises(CpsError, match="missing 'Z'"):
            load_cps({"S_tilde": {}, "lambda_prime": "0", "epsilon": "0"}, market.tree)

    def test_unknown_node_rejected(self):
        market = binary_market()
        doc = {
            "S_tilde": {"0": "1", "1": "2", "2": "1/2", "9": "1"},
            "Z": {"0": "1", "1": "1", "2": "1"},
            "lambda_prime": "0",
            "epsilon": "1/1000000",
        }
        with pytest.raises(CpsError, match="node 9"):
            load_cps(doc, market.tree)

    def test_density_must_cover_every_node(self):
        market = binary_market()
        doc = {
            "S_tilde": {"0": "1", "1": "2", "2": "1/2"},
            "Z": {"0": "1", "1": "1"},
            "lambda_prime": "0",
            "epsilon": "1/1000000",
        }
        with pytest.raises(CpsError, match="Z: missing nodes"):
            load_cps(doc, market.tree)

    @pytest.mark.parametrize("label, alias, node", [("S_tilde", "01", 1), ("Z", "+2", 2)])
    def test_node_given_twice_rejected(self, label, alias, node):
        # int() reads the alias as the same node; neither value may silently win
        market = binary_market()
        doc = {
            "S_tilde": {"0": "1", "1": "2", "2": "1/2"},
            "Z": {"0": "1", "1": "1", "2": "1"},
            "lambda_prime": "0",
            "epsilon": "1/1000000",
        }
        doc[label][alias] = "3"
        with pytest.raises(CpsError) as excinfo:
            load_cps(doc, market.tree)
        assert excinfo.value.problems == [f"{label}: node {node} given twice"]

    @pytest.mark.parametrize("label, key", [
        ("S_tilde", "\u0662"), ("Z", "\uff12"), ("Z", "0_2"), ("S_tilde", 2.5), ("Z", 2.0), ("Z", True),
    ])
    def test_node_key_is_an_int_id_or_its_ascii_text(self, label, key):
        # int() reads each key as a node id: True as node 1, the others as node 2
        market = binary_market()
        doc = {
            "S_tilde": {"0": "1", "1": "2", "2": "1/2"},
            "Z": {"0": "1", "1": "1", "2": "1"},
            "lambda_prime": "0",
            "epsilon": "1/1000000",
        }
        doc[label][key] = doc[label].pop("2")
        with pytest.raises(CpsError) as excinfo:
            load_cps(doc, market.tree)
        missing = ["Z: missing nodes [2]"] if label == "Z" else []
        assert excinfo.value.problems == [f"{label}: bad node id {key!r}", *missing]
        doc[label][2] = doc[label].pop(key)
        cps, _ = load_cps(doc, market.tree)
        assert cps.density[2] == 1


class TestAbsolutelyContinuousMode:
    def kill_branch_market(self):
        # the left branch jumps 1/2 -> 5, so at lambda'=0 any measure in
        # which it survives breaks the martingale property
        return load_market({
            "times": ["0", "1", "2"],
            "lambda": "1/2",
            "nodes": [
                {"id": 0, "parent": None, "prob": "1", "S": "1"},
                {"id": 1, "parent": 0, "prob": "1/2", "S": "1/2"},
                {"id": 2, "parent": 0, "prob": "1/2", "S": "1"},
                {"id": 3, "parent": 1, "prob": "1", "S": "5"},
                {"id": 4, "parent": 2, "prob": "1", "S": "1"},
            ],
        })

    def test_equivalent_infeasible_but_ac_feasible(self):
        market = self.kill_branch_market()
        assert not find_cps(market, CpsQuery(F(0), F(1, 10**12))).feasible
        result = find_cps(market, CpsQuery(F(0), F(0), ABSOLUTELY_CONTINUOUS))
        assert result.feasible
        assert set(result.cps.shadow_price) == {0, 2, 4}
        assert result.cps.density[1] == result.cps.density[3] == 0
        assert result.cps.density[2] == 2
        ok, violations = verify_cps(market, result.cps)
        assert ok, violations

    def test_ac_doc_round_trip(self):
        market = self.kill_branch_market()
        result = find_cps(market, CpsQuery(F(0), F(0), ABSOLUTELY_CONTINUOUS))
        doc = cps_to_doc(result.cps, F(0))
        assert set(doc["S_tilde"]) == {"0", "2", "4"}
        cps, _ = load_cps(doc, market.tree)
        assert cps.shadow_price == result.cps.shadow_price


class TestIntervalDecider:
    """find_cps decides by the interval recursion alone; the simplex over
    the same constraints is the independent reference.  The recursion
    must settle every query without the simplex: a fallback would hide a
    wrong interval behind a correct verdict.  The LP's leaf floor can
    only reject what the recursion accepts, where the best minimum leaf
    density is below it; on the markets below it never is."""

    LEVELS = (F(0), F(1, 32), F(1, 16), F(1, 8), F(1, 4), F(1, 2))
    LP = staticmethod(cps_reference.lp_find_cps)

    @pytest.fixture(autouse=True)
    def lp_calls(self, monkeypatch):
        # every call the package makes to the simplex; the reference's
        # calls go to the function it bound at import
        calls = []
        solve = simplex.solve

        def counted(*args, **kwargs):
            calls.append(args[0])
            return solve(*args, **kwargs)

        monkeypatch.setattr(simplex, "solve", counted)
        return calls

    def check_against_lp(self, market, level, mode):
        epsilon = DEFAULT_EPSILON if mode == EQUIVALENT else F(0)
        query = CpsQuery(level, epsilon, mode)
        result = find_cps(market, query)
        assert result.feasible == self.LP(market, query).feasible
        if result.feasible:
            ok, violations = verify_cps(market, result.cps, epsilon=epsilon)
            assert ok, violations
        else:
            assert result.infeasibility.verify()
        return result

    def test_agrees_with_lp_on_random_markets(self, lp_calls):
        rng = random.Random(97)
        for _ in range(30):
            market = random_market(rng)
            for level in self.LEVELS:
                for mode in (EQUIVALENT, ABSOLUTELY_CONTINUOUS):
                    self.check_against_lp(market, level, mode)
        assert lp_calls == []

    def test_ac_node_whose_children_all_die(self, lp_calls):
        # at lambda' = 0 node 2 cannot sit at 1 inside its children's
        # [9/8, 9/4]; node 1 then has no live child, and neither has the root
        market = load_market({
            "times": ["0", "1", "2", "3"],
            "lambda": "0",
            "nodes": [
                {"id": 0, "parent": None, "prob": "1", "S": "5/2"},
                {"id": 1, "parent": 0, "prob": "1", "S": "7/2"},
                {"id": 2, "parent": 1, "prob": "1", "S": "1"},
                {"id": 3, "parent": 2, "prob": "4/7", "S": "9/4"},
                {"id": 4, "parent": 2, "prob": "3/7", "S": "9/8"},
            ],
        })
        for mode in (EQUIVALENT, ABSOLUTELY_CONTINUOUS):
            assert not self.check_against_lp(market, F(0), mode).feasible
        cert = find_cps(market, CpsQuery(F(0), F(0), ABSOLUTELY_CONTINUOUS)).infeasibility
        used = {c.label for c, mu in zip(cert.constraints, cert.certificate.multipliers) if mu}
        assert "unit_root_mass" in used
        assert not any(label.startswith("floor:") for label in used)
        assert lp_calls == []

    @pytest.mark.parametrize("root, other", [("2", "1"), ("1", "2")])
    def test_equivalent_empty_interval_with_open_meeting_ends(self, lp_calls, root, other):
        # the root's own quote pins it to an end of its children's hull
        # that only child 1 attains: any mass on child 2 pulls the average
        # off it
        market = load_market({
            "times": ["0", "1"],
            "lambda": "0",
            "nodes": [
                {"id": 0, "parent": None, "prob": "1", "S": root},
                {"id": 1, "parent": 0, "prob": "1/3", "S": root},
                {"id": 2, "parent": 0, "prob": "2/3", "S": other},
            ],
        })
        result = self.check_against_lp(market, F(0), EQUIVALENT)
        assert not result.feasible
        cert = result.infeasibility
        used = {c.label for c, mu in zip(cert.constraints, cert.certificate.multipliers) if mu}
        assert "floor:2" in used
        result = self.check_against_lp(market, F(0), ABSOLUTELY_CONTINUOUS)
        assert result.feasible
        assert set(result.cps.shadow_price) == {0, 1}
        assert lp_calls == []

    def test_floor_above_the_best_margin_is_feasible(self, lp_calls):
        # the maximal margin is 2/3 (see TestMargin): no system clears a
        # floor of 3/4, yet an equivalent one exists
        market = binary_market(p_up="1/2")
        result = find_cps(market, CpsQuery(F(0), F(3, 4)))
        assert result.feasible and lp_calls == []
        best, _ = max_equivalence_margin(market, F(0))
        margin = min(result.cps.density[leaf] for leaf in market.tree.leaves)
        assert 0 < margin <= best == F(2, 3)
        ok, violations = verify_cps(market, result.cps, epsilon=margin)
        assert ok, violations

    def test_feasible_exactly_above_the_threshold(self, lp_calls):
        rng = random.Random(4711)
        unattained = 0
        for _ in range(200):
            market = random_market(rng)
            leaves = market.tree.leaves
            for mode in (EQUIVALENT, ABSOLUTELY_CONTINUOUS):
                equivalent = mode == EQUIVALENT
                t, attained = cps_module._threshold(market, equivalent)
                unattained += equivalent and not attained
                epsilon = DEFAULT_EPSILON if equivalent else F(0)
                for level in {F(0), t, t + (1 - t) / 10**9, F(1, 64), F(1, 8), F(1, 2)}:
                    result = find_cps(market, CpsQuery(level, epsilon, mode))
                    assert result.feasible == (level > t or (level == t and attained))
                    if not result.feasible:
                        cert = result.infeasibility
                        assert cert.verify()
                        # the rows it uses, each as the full system writes it, in row order
                        _, rows, _ = cps_module._cps_constraints(market, level, epsilon)
                        labels = {con.label for con in cert.constraints}
                        assert list(cert.constraints) == [row for row in rows if row.label in labels]
                        assert all(cert.certificate.multipliers)
                        if equivalent:
                            # the floor only sets the right-hand side of the floor rows
                            other = find_cps(market, CpsQuery(level, F(1))).infeasibility
                            assert other.certificate == result.infeasibility.certificate
                            assert other.verify()
                        continue
                    margin = min(result.cps.density[leaf] for leaf in leaves)
                    assert margin > 0 or not equivalent
                    ok, violations = verify_cps(market, result.cps, epsilon=margin)
                    assert ok, violations
        assert unattained > 0
        assert lp_calls == []


class TestWitnessWeights:
    @staticmethod
    def leans_on_one_extreme(ratios, values, v, mean):
        """The ratios are equal but on at most one child, which holds an
        extreme value on the other side of v from the P-mean and takes
        more than the others."""
        if len(set(ratios)) == 1:
            return True
        for e, (r, u) in enumerate(zip(ratios, values)):
            rest = ratios[:e] + ratios[e + 1:]
            if (
                u in (min(values), max(values))
                and (u - v) * (mean - v) < 0
                and len(set(rest)) == 1
                and r > rest[0]
            ):
                return True
        return False

    def test_plain_weights_on_random_markets(self):
        # at every node with mass the one-step ratios Z_c / Z_n follow the
        # plain rule; the system clears its own minimum leaf density, which
        # is positive and at most the best floor (the simplex's
        # max_equivalence_margin, on a subset)
        rng = random.Random(6007)
        checked = leaning = 0
        while checked < 120:
            market = random_market(rng)
            tree, prob = market.tree, market.tree.cond_prob
            for level in (F(0), F(1, 8), F(1, 4), F(1, 2)):
                result = find_cps(market, CpsQuery(level))
                if not result.feasible:
                    continue
                shadow, density = result.cps.shadow_price, result.cps.density
                assert len(shadow) == len(tree.nodes)
                for n in tree.internal:
                    kids = tree.children[n]
                    ratios = [density[c] / density[n] for c in kids]
                    values = [shadow[c] for c in kids]
                    mean = sum(prob[c] * shadow[c] for c in kids)
                    if mean == shadow[n]:
                        assert all(r == 1 for r in ratios)
                    else:
                        assert self.leans_on_one_extreme(ratios, values, shadow[n], mean)
                        leaning += 1
                margin = min(density[leaf] for leaf in tree.leaves)
                ok, violations = verify_cps(market, result.cps, epsilon=margin)
                assert ok, violations
                if checked % 8 == 0:
                    best, _ = max_equivalence_margin(market, level)
                    assert 0 < margin <= best
                checked += 1
        assert leaning >= 60

    def test_random_price_witness_stays_small(self):
        # a 2047-node martingale binomial market with every price moved by
        # k/100, k in [90, 110]: Z multiplies one small one-step ratio per
        # period, so its largest numerator and denominator stay in a few
        # hundred bits
        rng = random.Random(2047)
        base = binomial_martingale_market(rng, 10)
        price = {n: base.price[n] * F(rng.randint(90, 110), 100) for n in base.tree.nodes}
        market = make_market(base.tree, AdaptedProcess(price), F(1, 4))
        result = find_cps(market, CpsQuery(F(1, 4)))
        assert result.feasible
        density = result.cps.density.values
        assert max(z.numerator.bit_length() for z in density.values()) <= 256
        assert max(z.denominator.bit_length() for z in density.values()) <= 256
        margin = min(density[leaf] for leaf in market.tree.leaves)
        ok, violations = verify_cps(market, result.cps, epsilon=margin)
        assert ok, violations


class TestLevelAndFloor:
    # every entry that takes a cost level or a leaf floor reads and checks
    # them one way: 0 <= lambda' < 1 and epsilon >= 0, else CpsError
    @pytest.mark.parametrize("call, problem", [
        (lambda m, c: verify_cps(m, c, fee=F(2)), "cost level must satisfy 0 <= lambda' < 1, got 2"),
        (lambda m, c: verify_cps(m, c, epsilon=F(-1)), "epsilon must be nonnegative, got -1"),
        (lambda m, c: max_equivalence_margin(m, F(3, 2)), "cost level must satisfy 0 <= lambda' < 1, got 3/2"),
        (lambda m, c: max_equivalence_margin(m, F(-1)), "cost level must satisfy 0 <= lambda' < 1, got -1"),
        (lambda m, c: scale_cps(c, F(2), F(3, 4)), "cost level must satisfy 0 <= lambda' < 1, got 2"),
        (lambda m, c: brute_force_cps(m, F(1, 2), F(-1)), "epsilon must be nonnegative, got -1"),
    ], ids=[
        "verify_cps.fee", "verify_cps.epsilon", "max_equivalence_margin.above",
        "max_equivalence_margin.below", "scale_cps.fee", "brute_force_cps.epsilon",
    ])
    def test_out_of_range_rejected(self, call, problem):
        report = deterministic_counterexample(F(1, 2))
        with pytest.raises(CpsError) as info:
            call(report.market, report.cps_witness)
        assert info.value.problems[0] == problem

    def test_both_problems_listed(self):
        with pytest.raises(CpsError) as info:
            CpsQuery(F(1), F(-1))
        assert info.value.problems == [
            "cost level must satisfy 0 <= lambda' < 1, got 1",
            "epsilon must be nonnegative, got -1",
        ]

    def test_load_cps_checks_level_and_floor(self):
        market = binary_market()
        doc = {
            "S_tilde": {"0": "1", "1": "2", "2": "1/2"},
            "Z": {"0": "1", "1": "1", "2": "1"},
            "lambda_prime": "2",
            "epsilon": "-5",
        }
        with pytest.raises(CpsError) as info:
            load_cps(doc, market.tree)
        assert info.value.problems == [
            "lambda_prime must satisfy 0 <= lambda' < 1, got 2",
            "epsilon must be nonnegative, got -5",
        ]
