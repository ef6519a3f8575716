import random
from fractions import Fraction

import pytest

from spreadlab import (
    AdaptedProcess,
    MarketError,
    load_market,
    make_market,
    market_to_doc,
    validate_market,
)

from helpers import random_market, random_tree

F = Fraction

DOC = {
    "times": ["0", "1/2", "1"],
    "lambda": "1/2",
    "nodes": [
        {"id": 0, "parent": None, "prob": "1", "S": "1"},
        {"id": 1, "parent": 0, "prob": "1", "S": "1/2"},
        {"id": 2, "parent": 1, "prob": "1", "S": "1"},
    ],
}


def test_load_market_round_trip():
    market = load_market(DOC)
    assert market.fee == F(1, 2)
    assert market.price[1] == F(1, 2)
    assert load_market(market_to_doc(market)).price[1] == F(1, 2)


def test_missing_price_reported_per_node():
    doc = {**DOC, "nodes": [dict(n) for n in DOC["nodes"]]}
    del doc["nodes"][1]["S"]
    with pytest.raises(MarketError, match="node 1: missing 'S'"):
        load_market(doc)


def test_missing_lambda():
    doc = {k: v for k, v in DOC.items() if k != "lambda"}
    with pytest.raises(MarketError, match="missing 'lambda'"):
        load_market(doc)


def test_fee_range_enforced():
    with pytest.raises(MarketError, match="lambda"):
        load_market({**DOC, "lambda": "1"})
    with pytest.raises(MarketError, match="lambda"):
        load_market({**DOC, "lambda": "-1/4"})


def test_nonpositive_price_rejected():
    rng = random.Random(5)
    tree = random_tree(rng)
    prices = {n: F(1) for n in tree.nodes}
    prices[tree.leaves[0]] = F(0)
    with pytest.raises(MarketError, match="positive"):
        make_market(tree, AdaptedProcess(prices), F(1, 4))


def test_validate_market_lists_problems_without_raising():
    market = load_market(DOC)
    object.__setattr__(market, "fee", F(2))
    assert validate_market(market)
    # a missing price used to hide a bad lambda
    with pytest.raises(MarketError) as info:
        make_market(market.tree, AdaptedProcess({0: F(1), 1: F(1, 2)}), F(3, 2))
    assert info.value.problems == [
        "price missing values at nodes [2]",
        "lambda must satisfy 0 <= lambda < 1, got 3/2",
    ]


def test_random_markets_validate(seed=71):
    rng = random.Random(seed)
    for _ in range(30):
        market = random_market(rng)
        assert validate_market(market) == []
