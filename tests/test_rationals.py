import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spreadlab import (
    AdaptedProcess,
    CpsError,
    CpsQuery,
    PredictableProcess,
    brute_force_cps,
    check_admissibility_theorem,
    cps_threshold,
    deterministic_counterexample,
    frictionless_check,
    make_market,
    max_equivalence_margin,
    replay_admissibility_argument,
    scale_cps,
    stochastic_counterexample,
    up_price_for_target_loss,
    MarketError,
    StrategyError,
    TreeError,
    format_rational,
    load_cps,
    load_market,
    load_strategy,
    market_to_doc,
    parse_rational,
    strategy_to_doc,
)
from spreadlab.rationals import rational_reader

from helpers import random_density, random_market, random_sf_strategy

F = Fraction


def test_parse_basic_forms():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational(5) == Fraction(5)
    assert parse_rational(Fraction(2, 6)) == Fraction(1, 3)


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
    "cps_threshold.epsilon": lambda bad: cps_threshold(_det().market, bad),
    "max_equivalence_margin.fee": lambda bad: max_equivalence_margin(_det().market, bad),
    "scale_cps.fee": lambda bad: scale_cps(_det().cps_witness, bad, F(1, 2)),
    "scale_cps.alpha": lambda bad: scale_cps(_det().cps_witness, F(1, 2), bad),
    "brute_force_cps.fee": lambda bad: brute_force_cps(_det().market, bad),
    "brute_force_cps.epsilon": lambda bad: brute_force_cps(_det().market, F(1, 2), bad),
    "make_market.fee": lambda bad: make_market(_det().market.tree, _det().market.price, bad),
    "check_admissibility_theorem.x": lambda bad: check_admissibility_theorem(
        _det().market, _det().strategy, bad
    ),
    "check_admissibility_theorem.epsilon": lambda bad: check_admissibility_theorem(
        _det().market, _det().strategy, 1, epsilon=bad
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
}


@pytest.mark.parametrize("bad", [0.5, True])
@pytest.mark.parametrize("site", sorted(NUMBER_ARGUMENTS))
def test_api_rejects_floats_and_bools(site, bad):
    # a float has no faithful rational reading, as on the wire; without the
    # check CpsQuery(0.1).fee was 3602879701896397/36028797018963968
    with pytest.raises(ValueError, match="malformed rational"):
        NUMBER_ARGUMENTS[site](bad)



@pytest.mark.parametrize("bad", ["", "1/0", "a/b", "1/2/3", None, [1, 2]])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


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

            sdoc = strategy_to_doc(tree, random_sf_strategy(rng, market))
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
