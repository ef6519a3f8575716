import random
from fractions import Fraction

import pytest

from spreadlab import (
    NUMERAIRE_BASED,
    NUMERAIRE_FREE,
    AdaptedProcess,
    Strategy,
    StrategyError,
    TreeError,
    admissibility_bound,
    check_self_financing,
    derive_bond_account,
    load_market,
    load_strategy,
    make_market,
    pre_trade_holdings,
    strategy_to_doc,
)

from helpers import random_market, random_sf_strategy, random_stock_plan

F = Fraction

CHAIN_DOC = {
    "times": ["0", "1/2", "1"],
    "lambda": "1/2",
    "nodes": [
        {"id": 0, "parent": None, "prob": "1", "S": "1"},
        {"id": 1, "parent": 0, "prob": "1", "S": "1/2"},
        {"id": 2, "parent": 1, "prob": "1", "S": "1"},
    ],
}


def chain_market():
    return load_market(CHAIN_DOC)


def hold(bond, stock, n_nodes=3):
    return Strategy(
        tree=chain_market().tree,
        bond=AdaptedProcess({n: F(bond) for n in range(n_nodes)}),
        stock=AdaptedProcess({n: F(stock) for n in range(n_nodes)}),
    )


class TestSlack:
    def test_funded_purchase_has_zero_slack(self):
        market = chain_market()
        strat = hold(-2, 2)
        slack = check_self_financing(market, strat).slack
        assert slack[0] == 0
        assert slack[1] == 0

    def test_overdrawn_bond_is_negative_slack(self):
        market = chain_market()
        strat = Strategy(
            tree=market.tree,
            bond=AdaptedProcess({0: F(1), 1: F(1), 2: F(1)}),
            stock=AdaptedProcess({0: F(0), 1: F(0), 2: F(0)}),
        )
        assert check_self_financing(market, strat).slack[0] == -1

    def test_sale_credits_bid_not_ask(self):
        market = chain_market()
        strat = Strategy(
            tree=market.tree,
            bond=AdaptedProcess({0: F(-1), 1: F(-1) + F(1, 4), 2: F(-3, 4)}),
            stock=AdaptedProcess({0: F(1), 1: F(0), 2: F(0)}),
        )
        # selling 1 at node 1: bid = 1/4, so crediting exactly 1/4 is tight
        assert check_self_financing(market, strat).slack[1] == 0

    def test_report_lists_violating_nodes(self):
        market = chain_market()
        strat = Strategy(
            tree=market.tree,
            bond=AdaptedProcess({0: F(0), 1: F(5), 2: F(5)}),
            stock=AdaptedProcess({0: F(0), 1: F(0), 2: F(0)}),
        )
        report = check_self_financing(market, strat)
        assert not report.ok
        assert report.violations == (1,)
        assert report.slack[1] == -5
        assert report.slack[2] == 0

    def test_slack_matches_two_inequality_form(self):
        # the single cash-flow inequality equals the split form on the
        # canonical buy/sell decomposition of the stock increment
        rng = random.Random(101)
        for _ in range(40):
            market = random_market(rng)
            strat = random_sf_strategy(rng, market)
            slack = check_self_financing(market, strat).slack
            for n in market.tree.nodes:
                bid = (1 - market.fee) * market.price[n]
                ask = market.price[n]
                bond_in, stock_in = pre_trade_holdings(strat, n)
                delta = strat.stock[n] - stock_in
                buy, sell = max(delta, 0), max(-delta, 0)
                ceiling = bid * sell - ask * buy
                assert slack[n] == ceiling - (strat.bond[n] - bond_in)


class TestBoundToTree:
    def test_strategy_on_another_tree_refused(self):
        # the same node ids on a tree with other times: the sweeps would read
        # every holding, so only the strategy's tree can tell them apart
        market = chain_market()
        other = load_market({**CHAIN_DOC, "times": ["0", "1", "2"]})
        strat = hold(-2, 2)
        assert strat.tree == market.tree != other.tree
        checks = [
            lambda m: check_self_financing(m, strat),
            lambda m: admissibility_bound(m, strat, NUMERAIRE_BASED),
            lambda m: admissibility_bound(m, strat, NUMERAIRE_FREE),
        ]
        for check in checks:
            with pytest.raises(TreeError) as info:
                check(other)
            assert info.value.problems == ["strategy is bound to another tree"]
            check(market)
            # an equal tree built apart is the same tree
            check(chain_market())

    def test_loaded_and_derived_strategies_carry_their_tree(self):
        market = chain_market()
        loaded = load_strategy({"holdings": []}, market.tree)
        derived = derive_bond_account(market, loaded.stock)
        assert loaded.tree is market.tree and derived.tree is market.tree


class TestDeriveBondAccount:
    def test_zero_slack_everywhere(self):
        rng = random.Random(13)
        for _ in range(40):
            market = random_market(rng)
            strat = derive_bond_account(market, random_stock_plan(rng, market.tree))
            report = check_self_financing(market, strat)
            assert report.ok
            assert all(report.slack[n] == 0 for n in market.tree.nodes)

    def test_cumulative_burns_stay_self_financing(self):
        rng = random.Random(17)
        for _ in range(40):
            market = random_market(rng)
            strat = random_sf_strategy(rng, market, burn_prob=0.6)
            assert check_self_financing(market, strat).ok

    def test_pointwise_smaller_bond_can_violate(self):
        # lowering phi0 without keeping the decrements cumulative creates
        # money out of nothing at the next node
        market = chain_market()
        strat = Strategy(
            tree=market.tree,
            bond=AdaptedProcess({0: F(-5), 1: F(0), 2: F(0)}),
            stock=AdaptedProcess({0: F(0), 1: F(0), 2: F(0)}),
        )
        assert not check_self_financing(market, strat).ok

    def test_frictionless_equality_case(self):
        rng = random.Random(19)
        for _ in range(25):
            market = random_market(rng, fee=F(0))
            strat = derive_bond_account(market, random_stock_plan(rng, market.tree))
            for n in market.tree.nodes:
                bond_in, stock_in = pre_trade_holdings(strat, n)
                assert strat.bond[n] - bond_in == -market.price[n] * (strat.stock[n] - stock_in)


class TestWireFormat:
    def test_round_trip(self):
        market = chain_market()
        strat = hold(-2, 2)
        doc = strategy_to_doc(strat)
        again = load_strategy(doc, market.tree)
        assert again.bond.values == strat.bond.values
        assert again.stock.values == strat.stock.values

    def test_omitted_nodes_inherit(self):
        market = chain_market()
        doc = {"holdings": [{"node": 0, "phi0": "-2", "phi1": "2"}]}
        strat = load_strategy(doc, market.tree)
        assert strat.bond[2] == -2 and strat.stock[2] == 2

    def test_omitted_root_starts_flat(self):
        market = chain_market()
        strat = load_strategy({"holdings": []}, market.tree)
        assert strat.bond[0] == 0 and strat.stock[0] == 0

    def test_unknown_node_rejected(self):
        market = chain_market()
        doc = {"holdings": [{"node": 9, "phi0": "0", "phi1": "0"}]}
        with pytest.raises(StrategyError, match="node 9"):
            load_strategy(doc, market.tree)

    def test_duplicate_and_partial_entries_rejected(self):
        market = chain_market()
        with pytest.raises(StrategyError, match="duplicate"):
            load_strategy({"holdings": [
                {"node": 0, "phi0": "0", "phi1": "0"},
                {"node": 0, "phi0": "1", "phi1": "0"},
            ]}, market.tree)
        with pytest.raises(StrategyError, match="both 'phi0' and 'phi1'"):
            load_strategy({"holdings": [{"node": 0, "phi0": "0"}]}, market.tree)
