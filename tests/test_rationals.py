import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spreadlab import (
    AdaptedProcess,
    ConsistentPriceSystem,
    CpsError,
    CpsQuery,
    EventTree,
    Market,
    PredictableProcess,
    Strategy,
    brute_force_cps,
    check_admissibility_theorem,
    check_ossm,
    conditional_expectation,
    cps_threshold,
    derive_bond_account,
    deterministic_counterexample,
    doob_decompose,
    frictionless_check,
    liquidation_value,
    make_market,
    max_equivalence_margin,
    one_step_drift,
    replay_admissibility_argument,
    scale_cps,
    stochastic_counterexample,
    up_price_for_target_loss,
    verify_cps,
    MarketError,
    StrategyError,
    TreeError,
    format_rational,
    load_cps,
    load_market,
    load_strategy,
    market_to_doc,
    parse_rational,
    pre_trade_holdings,
    shadow_value,
    strategy_to_doc,
)
from spreadlab.rationals import rational_reader
from spreadlab.tree import density_problems, ensure_adapted

from helpers import random_density, random_market, random_sf_strategy

F = Fraction


def test_parse_basic_forms():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational(5) == Fraction(5)
    assert parse_rational(Fraction(2, 6)) == Fraction(1, 3)
    # whitespace around each integer, of any script, and a leading sign
    assert parse_rational(" +3 / -4 ") == Fraction(-3, 4)
    assert parse_rational("\u00a01\u2003/\t2 ") == Fraction(1, 2)
    assert parse_rational("-007") == Fraction(-7)


def test_parse_rejects_floats_and_bools():
    with pytest.raises(ValueError):
        parse_rational(0.5)
    with pytest.raises(ValueError):
        parse_rational(True)
    with pytest.raises(ValueError):
        parse_rational("0.5")


def _det():
    return deterministic_counterexample(F(1, 2))


def _frictionless():
    market = _det().market
    return make_market(market.tree, market.price, 0)


# every public entry point that takes a caller's number, with that number
# replaced by `bad`
NUMBER_ARGUMENTS = {
    "CpsQuery.fee": lambda bad: CpsQuery(bad),
    "CpsQuery.epsilon": lambda bad: CpsQuery(F(0), bad),
    "max_equivalence_margin.fee": lambda bad: max_equivalence_margin(_det().market, bad),
    "scale_cps.fee": lambda bad: scale_cps(_det().cps_witness, bad, F(1, 2)),
    "scale_cps.alpha": lambda bad: scale_cps(_det().cps_witness, F(1, 2), bad),
    "brute_force_cps.fee": lambda bad: brute_force_cps(_det().market, bad),
    "brute_force_cps.epsilon": lambda bad: brute_force_cps(_det().market, F(1, 2), bad),
    "verify_cps.fee": lambda bad: verify_cps(_det().market, _det().cps_witness, fee=bad),
    "verify_cps.epsilon": lambda bad: verify_cps(_det().market, _det().cps_witness, epsilon=bad),
    "make_market.fee": lambda bad: make_market(_det().market.tree, _det().market.price, bad),
    "check_admissibility_theorem.x": lambda bad: check_admissibility_theorem(
        _det().market, _det().strategy, bad
    ),
    "frictionless_check.x": lambda bad: frictionless_check(
        _frictionless(),
        PredictableProcess({n: F(0) for n in _frictionless().tree.nodes}),
        bad,
    ),
    "replay_admissibility_argument.x": lambda bad: replay_admissibility_argument(
        _det().market, _det().strategy, bad, _det().cps_witness
    ),
    "replay_admissibility_argument.alpha": lambda bad: replay_admissibility_argument(
        _det().market, _det().strategy, 1, _det().cps_witness, alpha=bad
    ),
    "deterministic_counterexample.fee": lambda bad: deterministic_counterexample(bad),
    "stochastic_counterexample.fee": lambda bad: stochastic_counterexample(fee=bad),
    "stochastic_counterexample.witness_fee": lambda bad: stochastic_counterexample(witness_fee=bad),
    "stochastic_counterexample.up_price": lambda bad: stochastic_counterexample(up_price=bad),
    "up_price_for_target_loss.target": lambda bad: up_price_for_target_loss(F(1, 2), F(1, 4), bad),
    "AdaptedProcess.constant": lambda bad: AdaptedProcess.constant(_det().market.tree, bad),
    "liquidation_value.bond": lambda bad: liquidation_value(_det().market, bad, F(0), 1),
    "liquidation_value.stock": lambda bad: liquidation_value(_det().market, F(0), bad, 1),
}


@pytest.mark.parametrize("bad", [0.5, True])
@pytest.mark.parametrize("site", sorted(NUMBER_ARGUMENTS))
def test_api_rejects_floats_and_bools(site, bad):
    # a float has no faithful rational reading, as on the wire; without the
    # check CpsQuery(0.1).fee was 3602879701896397/36028797018963968
    with pytest.raises(ValueError, match="malformed rational"):
        NUMBER_ARGUMENTS[site](bad)


def _at_node_1(values, bad):
    """``values`` with the value at node 1 replaced by ``bad``."""
    return AdaptedProcess({**values, 1: bad})


def _holdings(bad, leg):
    strategy = _det().strategy
    bond, stock = strategy.bond.values, strategy.stock.values
    if leg == "bond":
        return Strategy(strategy.tree, _at_node_1(bond, bad), AdaptedProcess(stock))
    return Strategy(strategy.tree, AdaptedProcess(bond), _at_node_1(stock, bad))


def _flat(tree):
    return {n: F(0) for n in tree.nodes}


# every public entry point that takes a caller's per-node values, with the
# value at node 1 replaced by `bad` (every position, for the predictable
# one, whose siblings must agree); the sign tests read `.numerator`, which
# a float lacks and a bool carries as an int
NODE_VALUES = {
    "Strategy.bond": lambda bad: _holdings(bad, "bond"),
    "Strategy.stock": lambda bad: _holdings(bad, "stock"),
    "derive_bond_account.stock_plan": lambda bad: derive_bond_account(
        _det().market, _at_node_1(_flat(_det().market.tree), bad)
    ),
    "frictionless_check.positions": lambda bad: frictionless_check(
        _frictionless(), PredictableProcess({n: bad for n in _frictionless().tree.nodes}), 1
    ),
    "check_ossm.process": lambda bad: check_ossm(
        _det().market.tree, _at_node_1(_flat(_det().market.tree), bad), _det().cps_witness.density
    ),
    "check_ossm.density": lambda bad: check_ossm(
        _det().market.tree,
        AdaptedProcess(_flat(_det().market.tree)),
        _at_node_1(_det().cps_witness.density.values, bad),
    ),
    "doob_decompose.process": lambda bad: doob_decompose(
        _det().market.tree, _at_node_1(_flat(_det().market.tree), bad), _det().cps_witness.density
    ),
    "one_step_drift.process": lambda bad: one_step_drift(
        _det().market.tree, _at_node_1(_flat(_det().market.tree), bad)
    ),
    "one_step_drift.density": lambda bad: one_step_drift(
        _det().market.tree,
        AdaptedProcess(_flat(_det().market.tree)),
        _at_node_1(_det().cps_witness.density.values, bad),
    ),
    "conditional_expectation.process": lambda bad: conditional_expectation(
        _det().market.tree, _at_node_1(_flat(_det().market.tree), bad), None, 0, 1
    ),
    "conditional_expectation.density": lambda bad: conditional_expectation(
        _det().market.tree,
        AdaptedProcess(_flat(_det().market.tree)),
        _at_node_1(_det().cps_witness.density.values, bad),
        0,
        1,
    ),
}


@pytest.mark.parametrize("bad", [0.5, True])
@pytest.mark.parametrize("site", sorted(NODE_VALUES))
def test_api_rejects_float_and_bool_node_values(site, bad):
    # a float at node 1 used to raise AttributeError: 'float' object has
    # no attribute 'numerator', from the first sign test that read it
    with pytest.raises(ValueError, match=f"node 1: [a-z ]+ {bad!r} is not a Fraction or an int"):
        NODE_VALUES[site](bad)


def _flat_system(shadow, density):
    """A system on the flat one-period market at lambda = 1/2, where Z = 1
    and S-tilde = S = 1 make a system.  It is checked when built, so what
    verify_cps listed for it, its construction raises."""
    return ConsistentPriceSystem(_one_period_tree(), shadow, density, F(1, 2))


_MISSING = AdaptedProcess({0: 1, 1: 1})
_UNKNOWN = AdaptedProcess({0: 1, 1: 1, 2: 1, 99: 1})
_MIXED = AdaptedProcess({0: 1, 1: 1, 2: 1, "a": 1, 99: 1})

# every public entry that takes a caller's node id: call(tree, full, node)
NODE_IDS = {
    "conditional_expectation": lambda tree, full, v: conditional_expectation(tree, full, None, v, 1),
    "liquidation_value": lambda tree, full, v: liquidation_value(make_market(tree, full, F(1, 2)), 1, 1, v),
    "pre_trade_holdings": lambda tree, full, v: pre_trade_holdings(Strategy(tree, full, full), v),
    "shadow_value": lambda tree, full, v: shadow_value(Strategy(tree, full, full), _flat_system(full.values, full), v),
    "shadow_value.pre_trade": lambda tree, full, v: shadow_value(
        Strategy(tree, full, full), _flat_system(full.values, full), v, True
    ),
}


def _node_id_rows(ids):
    """Rows of the table below for each NODE_IDS entry at each id in ``ids``."""
    return [
        pytest.param(lambda tree, full, bad, call=call, v=v: call(tree, full, v), None, TreeError,
                     "node 99: not in tree" if v == 99 else f"node must be an integer id, got {v!r}",
                     id=f"{site}.node.{v!r}")
        for site, call in NODE_IDS.items()
        for v in ids(site)
    ]


# call(tree, full, bad) with `full` on every node; `error` None means the
# problems are returned, not raised
@pytest.mark.parametrize("call, bad, error, problem", [
    pytest.param(lambda tree, full, bad: one_step_drift(tree, bad), _MISSING, TreeError,
                 "process missing values at nodes [2]", id="one_step_drift.process"),
    pytest.param(lambda tree, full, bad: one_step_drift(tree, full, bad), _MISSING, TreeError,
                 "density missing values at nodes [2]", id="one_step_drift.density"),
    pytest.param(lambda tree, full, bad: conditional_expectation(tree, bad, None, 0, 1), _MISSING, TreeError,
                 "process missing values at nodes [2]", id="conditional_expectation.process"),
    pytest.param(lambda tree, full, bad: conditional_expectation(tree, full, bad, 0, 1), _MISSING, TreeError,
                 "density missing values at nodes [2]", id="conditional_expectation.density"),
    pytest.param(lambda tree, full, bad: density_problems(tree, bad), _MISSING, None,
                 "density missing values at nodes [2]", id="density_problems.missing"),
    pytest.param(lambda tree, full, bad: one_step_drift(tree, bad), _UNKNOWN, TreeError,
                 "process has values at unknown nodes [99]", id="one_step_drift.process.unknown"),
    pytest.param(lambda tree, full, bad: one_step_drift(tree, full, bad), _UNKNOWN, TreeError,
                 "density has values at unknown nodes [99]", id="one_step_drift.density.unknown"),
    pytest.param(lambda tree, full, bad: conditional_expectation(tree, bad, None, 0, 1), _UNKNOWN, TreeError,
                 "process has values at unknown nodes [99]", id="conditional_expectation.process.unknown"),
    pytest.param(lambda tree, full, bad: conditional_expectation(tree, full, bad, 0, 1), _UNKNOWN, TreeError,
                 "density has values at unknown nodes [99]", id="conditional_expectation.density.unknown"),
    pytest.param(lambda tree, full, bad: density_problems(tree, bad), _UNKNOWN, None,
                 "density has values at unknown nodes [99]", id="density_problems.unknown"),
    pytest.param(lambda tree, full, bad: check_ossm(tree, full, bad), _UNKNOWN, ValueError,
                 "invalid density: density has values at unknown nodes [99]", id="check_ossm.density.unknown"),
    # a price system is checked when built: the verify_cps rows keep their
    # ids, and the problems verify_cps listed, construction raises
    pytest.param(lambda tree, full, bad: _flat_system({0: 1, 1: 1, 2: 1}, bad), _UNKNOWN, CpsError,
                 "density has values at unknown nodes [99]", id="verify_cps.density.unknown"),
    pytest.param(lambda tree, full, bad: _flat_system(bad.values, full), _UNKNOWN, CpsError,
                 "shadow price has values at unknown nodes [99]", id="verify_cps.shadow_price.unknown"),
    # a strategy is checked when built: each leg covers exactly its tree's nodes
    pytest.param(lambda tree, full, bad: Strategy(tree, bad, full), _MISSING, StrategyError,
                 "bond holding missing values at nodes [2]", id="Strategy.bond.missing"),
    pytest.param(lambda tree, full, bad: Strategy(tree, full, bad), _MISSING, StrategyError,
                 "stock holding missing values at nodes [2]", id="Strategy.stock.missing"),
    pytest.param(lambda tree, full, bad: Strategy(tree, bad, full), _UNKNOWN, StrategyError,
                 "bond holding has values at unknown nodes [99]", id="Strategy.bond.unknown"),
    pytest.param(lambda tree, full, bad: Strategy(tree, full, bad), _UNKNOWN, StrategyError,
                 "stock holding has values at unknown nodes [99]", id="Strategy.stock.unknown"),
    # unknown ids of mixed types used to raise a bare TypeError from sorted:
    # ints come first, in numeric order, then the others by repr
    pytest.param(lambda tree, full, bad: ensure_adapted(tree, bad), _MIXED, TreeError,
                 "process has values at unknown nodes [99, 'a']", id="ensure_adapted.unknown.mixed"),
    pytest.param(lambda tree, full, bad: density_problems(tree, bad), _MIXED, None,
                 "density has values at unknown nodes [99, 'a']", id="density_problems.unknown.mixed"),
    # as above, the verify_cps rows: construction raises
    pytest.param(lambda tree, full, bad: _flat_system({0: 1, 1: 1, 2: 1}, bad), _MIXED, CpsError,
                 "density has values at unknown nodes [99, 'a']", id="verify_cps.density.unknown.mixed"),
    pytest.param(lambda tree, full, bad: _flat_system(bad.values, full), _MIXED, CpsError,
                 "shadow price has values at unknown nodes [99, 'a']", id="verify_cps.shadow_price.unknown.mixed"),
    # an id or a depth that is not an int: True and 1.0 were read as 1, and
    # a float horizon raised a bare TypeError
    *(pytest.param(lambda tree, full, bad, v=v: conditional_expectation(tree, full, None, v, 1), None, TreeError,
                   f"node must be an integer id, got {v!r}", id=f"conditional_expectation.node.{v!r}")
      for v in (True, 1.0)),
    # the same check of a node id in every entry that takes one: node 99 or
    # '1' raised a bare KeyError there, and True or 1.0 was read as node 1
    *_node_id_rows(lambda site: (99, "1") if site == "conditional_expectation" else (99, True, 1.0, "1")),
    *(pytest.param(lambda tree, full, bad, v=v: conditional_expectation(tree, full, None, 0, v), None, ValueError,
                   f"horizon must be an integer, got {v!r}", id=f"conditional_expectation.horizon.{v!r}")
      for v in (True, 1.5, 2.0)),
])
def test_one_step_formulas_name_a_missing_node(call, bad, error, problem):
    # a process or density without node 2 used to raise a bare KeyError: 2;
    # a density with a value at node 99 passed density_problems, check_ossm
    # and verify_cps but not one_step_drift, and verify_cps passed a shadow
    # price there that load_cps refuses
    tree = _one_period_tree()
    full = AdaptedProcess({0: 1, 1: 1, 2: 1})
    if error is None:
        assert call(tree, full, bad) == [problem]
        return
    with pytest.raises(error) as info:
        call(tree, full, bad)
    assert type(info.value) is error
    assert str(info.value) == problem


def test_strategy_names_every_inexact_holding():
    # the strategy holding 1/2 bond and 1/4 stock, given as floats
    tree = _one_period_tree()
    with pytest.raises(StrategyError) as info:
        Strategy(tree, AdaptedProcess(dict.fromkeys(tree.nodes, 0.5)), AdaptedProcess(dict.fromkeys(tree.nodes, 0.25)))
    assert info.value.problems == [
        *(f"node {n}: bond holding 0.5 is not a Fraction or an int" for n in tree.nodes),
        *(f"node {n}: stock holding 0.25 is not a Fraction or an int" for n in tree.nodes),
    ]


@pytest.mark.parametrize("bad", [0.5, True])
def test_density_problems_lists_a_float_or_bool_density(bad):
    tree = _one_period_tree()
    # listed alone: the sign and martingale tests do not run on it
    density = AdaptedProcess({0: F(1), 1: bad, 2: F(-5)})
    assert density_problems(tree, density) == [f"node 1: density {bad!r} is not a Fraction or an int"]


def test_int_node_values_are_exact():
    tree = _one_period_tree()
    strategy = Strategy(tree, AdaptedProcess({0: -1, 1: 2, 2: 0}), AdaptedProcess({0: 1, 1: -1, 2: 0}))
    assert strategy.bond[1] == 2
    assert density_problems(tree, AdaptedProcess({0: 1, 1: 2, 2: 0})) == []


def _one_period_tree():
    return EventTree.build([F(0), F(1)], [(0, None, F(1)), (1, 0, F(1, 2)), (2, 0, F(1, 2))])


def test_market_lists_every_float_price():
    # this market used to build, and find_cps at level 1/8 then returned
    # the float shadow prices {0: 0.9375, 1: 1.375, 2: 0.5}
    with pytest.raises(MarketError) as info:
        make_market(_one_period_tree(), AdaptedProcess({0: 1.0, 1: 1.5, 2: 0.5}), 0)
    prices = ((0, 1.0), (1, 1.5), (2, 0.5))
    assert info.value.problems == [f"node {n}: price {s} is not a Fraction or an int" for n, s in prices]


def test_market_rejects_bool_price_and_float_lambda_but_takes_ints():
    tree = _one_period_tree()
    with pytest.raises(MarketError, match="node 0: price True is not a Fraction or an int"):
        make_market(tree, AdaptedProcess({0: True, 1: F(3, 2), 2: F(1, 2)}), 0)
    with pytest.raises(MarketError, match="lambda 0.5 is not a Fraction or an int"):
        Market(tree, AdaptedProcess({0: 1, 1: 2, 2: F(1, 2)}), 0.5)
    market = make_market(tree, AdaptedProcess({0: 1, 1: 2, 2: F(1, 2)}), 0)
    assert market.price[1] == 2


@pytest.mark.parametrize(
    "times, entries, problem",
    [
        ([0, 0.5], [(0, None, 1), (1, 0, 1)], "times[1]: malformed rational 0.5"),
        ([0, 1], [(0, None, True), (1, 0, 1)], "node 0: malformed rational True"),
        ([0, 1], [(0, None, 1), (1, 0, 0.5), (2, 0, F(1, 2))], "node 1: malformed rational 0.5"),
    ],
)
def test_tree_build_rejects_floats_and_bools(times, entries, problem):
    # times=[0, 0.5] used to be stored as 1/2 without a word
    with pytest.raises(TreeError) as info:
        EventTree.build(times, entries)
    assert [p for p in info.value.problems if p.startswith(problem)]


def test_tree_build_reads_ints_and_text():
    tree = EventTree.build([0, "1/2"], [(0, None, 1), (1, 0, "1")])
    assert tree.times == (0, F(1, 2)) and all(type(t) is Fraction for t in tree.times)
    assert type(tree.cond_prob[1]) is Fraction



@pytest.mark.parametrize("bad", ["", "1/0", "a/b", "1/2/3", None, [1, 2]])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize("text", [
    "1_0", "1/1_0", "\u0663/\u0664", "\uff11/\uff12", "-\u0663",
    pytest.param("\u0663" * 5000, id="arabic-indic-past-the-digit-limit"),
])
def test_parse_takes_ascii_digits_only(text):
    # int() reads each: an underscore between digits, Arabic-Indic and fullwidth digits
    assert _message(text) == f"malformed rational {text!r}: an integer takes ASCII digits, with no underscores"


def test_format_integer_values_drop_denominator():
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-3)) == "-3"
    assert format_rational(Fraction(1, 3)) == "1/3"


@given(st.fractions())
def test_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@pytest.mark.parametrize("text", ["7" * 5000, "1/" + "3" * 5000, "-" + "9" * 5000 + "/2"])
def test_overlong_integer_part_gets_a_short_message(text):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the interpreter's integer digit limit is off")
    with pytest.raises(ValueError) as info:
        parse_rational(text)
    message = str(info.value)
    assert "5000 digits" in message
    assert str(limit) in message
    assert len(message) < 100


def test_format_past_the_digit_limit_is_exact():
    saved = sys.get_int_max_str_digits()
    values = [F(3**20000, 7**9000), F(-(11**9000), 13), F(10**5000), F(-(10**5000)), F(-1, 3)]
    try:
        sys.set_int_max_str_digits(4300)
        texts = [format_rational(q) for q in values]
        sys.set_int_max_str_digits(0)
        assert texts == [str(q) for q in values]
    finally:
        sys.set_int_max_str_digits(saved)


def _message(text):
    """The message parse_rational gives for a text it rejects."""
    with pytest.raises(ValueError) as info:
        parse_rational(text)
    return str(info.value)


def _chain_market(**fields):
    """Market document on the chain 0 -> 1 -> 2; ``fields`` maps a key to
    its three per-node values."""
    nodes = [{"id": n, "parent": n - 1 if n else None, "prob": "1", "S": "1"} for n in range(3)]
    for key, values in fields.items():
        for spec, value in zip(nodes, values):
            spec[key] = value
    return {"times": ["0", "1", "2"], "lambda": "1/4", "nodes": nodes}


class TestDocumentReader:
    """The loaders parse each distinct text once per document; what they
    accept, reject and report is parse_rational's, node by node."""

    def test_repeats_share_one_parse(self):
        read = rational_reader()
        assert read("3/4") is read("3/4")
        assert read(" 3/4") == read("6/8") == F(3, 4)
        assert read(2) == 2

    def test_failed_text_fails_again(self):
        read = rational_reader()
        for _ in range(2):
            with pytest.raises(ValueError, match="malformed rational '1/x'"):
                read("1/x")

    @pytest.mark.parametrize("bad", ["1/x", "1/0", "0.5"])
    def test_repeated_bad_text_is_reported_at_each_node(self, bad):
        msg = _message(bad)
        with pytest.raises(TreeError) as info:
            load_market(_chain_market(prob=["1", bad, bad]))
        assert info.value.problems == [f"node 1: {msg}", f"node 2: {msg}"]

        with pytest.raises(MarketError) as info:
            load_market(_chain_market(S=["1", bad, bad]))
        assert info.value.problems == [f"node 1: {msg}", f"node 2: {msg}"]

        tree = load_market(_chain_market()).tree
        holdings = [{"node": n, "phi0": bad, "phi1": "1"} for n in (0, 2)]
        with pytest.raises(StrategyError) as info:
            load_strategy({"holdings": holdings}, tree)
        assert info.value.problems == [f"node 0: {msg}", f"node 2: {msg}"]

        doc = {"S_tilde": {"0": "1"}, "Z": {"0": "1", "1": bad, "2": bad},
               "lambda_prime": "0", "epsilon": "0"}
        with pytest.raises(CpsError) as info:
            load_cps(doc, tree)
        assert info.value.problems == [
            f"Z: node 1: {msg}", f"Z: node 2: {msg}", "Z: missing nodes [1, 2]",
        ]

    def test_true_rejected_after_one(self):
        msg = "node 2: malformed rational True"
        with pytest.raises(TreeError) as info:
            load_market(_chain_market(prob=["1", 1, True]))
        assert info.value.problems == [msg]
        with pytest.raises(MarketError) as info:
            load_market(_chain_market(S=["1", 1, True]))
        assert info.value.problems == [msg]
        tree = load_market(_chain_market()).tree
        holdings = [{"node": n, "phi0": v, "phi1": "1"} for n, v in enumerate(["1", 1, True])]
        with pytest.raises(StrategyError) as info:
            load_strategy({"holdings": holdings}, tree)
        assert info.value.problems == [msg]

    def test_loaded_values_are_parse_rational_of_their_texts(self):
        rng = random.Random(83)

        def respell(text):
            # the same value in another spelling, or the text itself
            q = parse_rational(text)
            return rng.choice([text, text, f" {text}", f"{2 * q.numerator}/{2 * q.denominator}"])

        for i in range(40):
            market = random_market(rng, martingale=i % 2 == 0)
            tree = market.tree
            doc = market_to_doc(market)
            doc["times"] = [respell(t) for t in doc["times"]]
            doc["lambda"] = respell(doc["lambda"])
            for spec in doc["nodes"]:
                spec["prob"], spec["S"] = respell(spec["prob"]), respell(spec["S"])
            loaded = load_market(doc)
            assert loaded.tree.times == tuple(parse_rational(t) for t in doc["times"])
            assert loaded.fee == parse_rational(doc["lambda"])
            for spec in doc["nodes"]:
                assert loaded.tree.cond_prob[spec["id"]] == parse_rational(spec["prob"])
                assert loaded.price[spec["id"]] == parse_rational(spec["S"])

            sdoc = strategy_to_doc(random_sf_strategy(rng, market))
            for spec in sdoc["holdings"]:
                spec["phi0"], spec["phi1"] = respell(spec["phi0"]), respell(spec["phi1"])
            strategy = load_strategy(sdoc, tree)
            for spec in sdoc["holdings"]:
                assert strategy.bond[spec["node"]] == parse_rational(spec["phi0"])
                assert strategy.stock[spec["node"]] == parse_rational(spec["phi1"])

            z = random_density(rng, tree)
            cdoc = {
                "S_tilde": {str(n): respell(str(market.price[n])) for n in tree.nodes},
                "Z": {str(n): respell(str(z[n])) for n in tree.nodes},
                "lambda_prime": respell(doc["lambda"]),
                "epsilon": respell("1/1000000"),
            }
            cps, epsilon = load_cps(cdoc, tree)
            for n in tree.nodes:
                assert cps.shadow_price[n] == parse_rational(cdoc["S_tilde"][str(n)])
                assert cps.density[n] == parse_rational(cdoc["Z"][str(n)])
            assert cps.fee == parse_rational(cdoc["lambda_prime"])
            assert epsilon == parse_rational(cdoc["epsilon"])
