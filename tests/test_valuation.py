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
    deterministic_counterexample,
    liquidation_value,
    load_market,
    make_market,
    pre_trade_holdings,
    shadow_value,
)

from helpers import random_market, random_sf_strategy

F = Fraction


def flat_market(price="1", fee="1/2"):
    return load_market({
        "times": ["0"],
        "lambda": fee,
        "nodes": [{"id": 0, "parent": None, "prob": "1", "S": price}],
    })


class TestLiquidationValue:
    def test_long_position_sells_at_bid(self):
        market = flat_market(price="1/2")
        assert liquidation_value(market, F(-2), F(2), 0) == F(-3, 2)

    def test_zero_position(self):
        assert liquidation_value(flat_market(), F(0), F(0), 0) == 0

    def test_short_position_covers_at_ask(self):
        market = flat_market(price="1")
        assert liquidation_value(market, F(0), F(-1), 0) == -1

    def test_nonincreasing_in_fee_for_long_positions(self):
        for fee_lo, fee_hi in [("0", "1/4"), ("1/4", "1/2"), ("0", "7/8")]:
            lo = liquidation_value(flat_market(fee=fee_hi), F(1), F(3), 0)
            hi = liquidation_value(flat_market(fee=fee_lo), F(1), F(3), 0)
            assert lo <= hi
        # short legs settle at the ask, which ignores the fee
        assert (liquidation_value(flat_market(fee="0"), F(1), F(-3), 0)
                == liquidation_value(flat_market(fee="1/2"), F(1), F(-3), 0))


class TestShadowValue:
    def test_dominates_liquidation(self):
        rng = random.Random(43)
        for _ in range(40):
            market = random_market(rng)
            strat = random_sf_strategy(rng, market)
            tree = market.tree
            # any in-spread shadow price: shadow_value reads no more of the system
            shadow = ConsistentPriceSystem(tree, {
                n: (1 - market.fee) * market.price[n]
                + rng.choice([F(0), F(1, 3), F(1, 2), F(1)]) * market.fee * market.price[n]
                for n in tree.nodes
            }, AdaptedProcess.constant(tree, 1), market.fee)
            for n in tree.nodes:
                marked = shadow_value(strat, shadow, n)
                liq = liquidation_value(market, strat.bond[n], strat.stock[n], n)
                assert marked >= liq
                bond_in, stock_in = pre_trade_holdings(strat, n)
                assert (shadow_value(strat, shadow, n, pre_trade=True)
                        >= liquidation_value(market, bond_in, stock_in, n))

    def test_constant_shadow_price_example(self):
        report = deterministic_counterexample(F(1, 2))
        tree = report.market.tree
        shadow = ConsistentPriceSystem(
            tree, {n: F(1, 2) for n in tree.nodes}, AdaptedProcess.constant(tree, 1), F(1, 2)
        )
        for n in tree.nodes:
            assert shadow_value(report.strategy, shadow, n) == -1


class TestAdmissibilityBound:
    def test_zero_strategy_needs_nothing(self):
        market = flat_market()
        strat = Strategy(
            market.tree, bond=AdaptedProcess({0: F(0)}), stock=AdaptedProcess({0: F(0)})
        )
        for mode in (NUMERAIRE_BASED, NUMERAIRE_FREE):
            assert admissibility_bound(market, strat, mode).minimal_bound == 0

    def test_counterexample_bounds(self):
        report = deterministic_counterexample(F(1, 2))
        nb = admissibility_bound(report.market, report.strategy, NUMERAIRE_BASED)
        assert nb.minimal_bound == F(3, 2)
        assert nb.worst_node == 1
        nf = admissibility_bound(report.market, report.strategy, NUMERAIRE_FREE)
        assert nf.minimal_bound == 1
        assert nf.worst_node == 1

    def test_trade_then_liquidate_dominance(self):
        rng = random.Random(47)
        for _ in range(40):
            market = random_market(rng)
            strat = random_sf_strategy(rng, market)
            for n in market.tree.nodes:
                bond_in, stock_in = pre_trade_holdings(strat, n)
                before = liquidation_value(market, bond_in, stock_in, n)
                after = liquidation_value(market, strat.bond[n], strat.stock[n], n)
                assert after <= before

    def test_numeraire_free_never_needs_more(self):
        rng = random.Random(53)
        for _ in range(40):
            market = random_market(rng)
            strat = random_sf_strategy(rng, market)
            nb = admissibility_bound(market, strat, NUMERAIRE_BASED)
            nf = admissibility_bound(market, strat, NUMERAIRE_FREE)
            assert nf.minimal_bound <= nb.minimal_bound
            assert all(nf.per_node[n] >= 0 for n in market.tree.nodes)

    def test_sweep_matches_liquidation_value(self):
        # the one-pass loop against its definition: the worse of the
        # incoming and the post-trade liquidation value, per 1 + S(n) in
        # the numeraire-free mode, floored at zero
        rng = random.Random(71)
        for i in range(40):
            market = random_market(rng, fee=F(0) if i % 4 == 0 else None)
            strat = random_sf_strategy(rng, market)
            if i % 2:
                # not self-financing: the incoming position can be the worse one
                strat = Strategy(
                    tree=market.tree,
                    bond=AdaptedProcess({
                        n: strat.bond[n] + rng.choice([F(0), F(1, 2), F(-1, 2)])
                        for n in market.tree.nodes
                    }),
                    stock=strat.stock,
                )
            nodes = market.tree.nodes
            for mode in (NUMERAIRE_BASED, NUMERAIRE_FREE):
                expected = {}
                for n in nodes:
                    bond_in, stock_in = pre_trade_holdings(strat, n)
                    need = max(
                        -liquidation_value(market, bond_in, stock_in, n),
                        -liquidation_value(market, strat.bond[n], strat.stock[n], n),
                    )
                    if mode == NUMERAIRE_FREE:
                        need /= 1 + market.price[n]
                    expected[n] = max(need, F(0))
                report = admissibility_bound(market, strat, mode)
                assert report.mode == mode
                assert dict(report.per_node.values) == expected
                assert report.minimal_bound == max(expected.values())
                first = next(n for n in nodes if expected[n] == report.minimal_bound)
                assert report.worst_node == first

    def test_numeraire_free_bound_is_exact_for_int_inputs(self):
        # an int price and a flat int bond: -v / (1 + S) was int / int, a float
        market = make_market(flat_market().tree, AdaptedProcess({0: 2}), F(1, 4))
        strat = Strategy(market.tree, bond=AdaptedProcess({0: -5}), stock=AdaptedProcess({0: 0}))
        report = admissibility_bound(market, strat, NUMERAIRE_FREE)
        assert report.minimal_bound == F(5, 3) and type(report.minimal_bound) is Fraction
        assert type(report.per_node[0]) is Fraction

    def test_numeraire_free_bound_moves_under_the_numeraire_swap(self):
        # the swap of the module docstring: holdings (b, s) become (s, b)
        # against the ask 1/((1 - lambda)S); the nf bound reads 1/4, then 1/3
        def held(prices, bond, stock):
            market = load_market({
                "times": ["0", "1"], "lambda": "1/2",
                "nodes": [{"id": 0, "parent": None, "prob": "1", "S": prices[0]},
                          {"id": 1, "parent": 0, "prob": "1", "S": prices[1]}],
            })
            strat = Strategy(market.tree, bond=AdaptedProcess({0: bond, 1: bond}),
                             stock=AdaptedProcess({0: stock, 1: stock}))
            assert check_self_financing(market, strat).ok
            return admissibility_bound(market, strat, NUMERAIRE_FREE).minimal_bound

        assert held(["1", "2"], F(-1), F(1)) == F(1, 4)
        assert held(["2", "1"], F(1), F(-1)) == F(1, 3)

    def test_unknown_mode_rejected(self):
        market = flat_market()
        strat = Strategy(market.tree, bond=AdaptedProcess({0: F(0)}), stock=AdaptedProcess({0: F(0)}))
        with pytest.raises(ValueError, match="mode"):
            admissibility_bound(market, strat, "both")
