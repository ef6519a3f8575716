import random
from fractions import Fraction

import pytest

from spreadlab import (
    DETERMINISTIC,
    STOCHASTIC,
    CpsQuery,
    check_self_financing,
    cps_threshold,
    deterministic_counterexample,
    find_cps,
    liquidation_value,
    load_market,
    load_strategy,
    market_to_doc,
    report_to_doc,
    stochastic_counterexample,
    strategy_to_doc,
    up_price_for_target_loss,
    verify_cps,
)

F = Fraction


def post_value(market, strategy, node):
    return liquidation_value(market, strategy.bond[node], strategy.stock[node], node)


class TestDeterministic:
    @pytest.mark.parametrize("fee", [F(1, 2), F(1, 4)])
    def test_advertised_constants(self, fee):
        report = deterministic_counterexample(fee)
        assert report.variant == DETERMINISTIC
        assert report.expected_terminal_bound == -1
        assert report.expected_midtime_value == fee - 2
        assert report.expected_threshold == fee
        market, strategy = report.market, report.strategy
        leaf = market.tree.leaves[0]
        assert post_value(market, strategy, leaf) == -1
        assert post_value(market, strategy, report.midtime_node) == fee - 2
        assert check_self_financing(market, strategy).ok
        assert cps_threshold(market) == fee

    def test_constant_position(self):
        report = deterministic_counterexample(F(1, 2))
        assert set(report.strategy.stock.values.values()) == {F(2)}
        assert set(report.strategy.bond.values.values()) == {F(-2)}

    def test_witness_verifies_only_at_the_fee(self):
        report = deterministic_counterexample(F(1, 2))
        ok, violations = verify_cps(report.market, report.cps_witness)
        assert ok, violations
        ok, violations = verify_cps(report.market, report.cps_witness, fee=F(1, 4))
        assert not ok

    def test_longer_ladder(self):
        report = deterministic_counterexample(F(1, 4), steps=4)
        market = report.market
        assert len(market.tree.nodes) == 5
        assert report.midtime_node == 2
        assert market.price[2] == F(3, 4)
        assert market.price[1] == market.price[3] == F(7, 8)
        assert post_value(market, report.strategy, 2) == F(1, 4) - 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="fee must satisfy"):
            deterministic_counterexample(F(0))
        with pytest.raises(ValueError, match="fee must satisfy"):
            deterministic_counterexample(F(1))
        with pytest.raises(ValueError, match="even integer"):
            deterministic_counterexample(F(1, 2), steps=3)
        with pytest.raises(ValueError, match="even integer"):
            deterministic_counterexample(F(1, 2), steps=0)
        with pytest.raises(ValueError, match="steps must be an integer"):
            deterministic_counterexample(F(1, 2), steps=True)


class TestStochastic:
    def test_advertised_constants(self):
        report = stochastic_counterexample()
        assert report.variant == STOCHASTIC
        assert report.branch_probabilities["up"] == F(1, 7)
        assert report.sale_wealth == 1
        assert report.expected_midtime_value == F(-3, 2)
        assert report.midtime_node == 7
        assert post_value(report.market, report.strategy, 7) == F(-3, 2)
        market = report.market
        assert all(
            post_value(market, report.strategy, leaf) >= -1
            for leaf in market.tree.leaves
        )
        assert check_self_financing(market, report.strategy).ok

    def test_first_phase_is_fair(self):
        report = stochastic_counterexample()
        tree, price = report.market.tree, report.market.price
        for n in tree.internal:
            if tree.time_index[n] >= 2:
                break
            avg = sum(tree.cond_prob[c] * price[c] for c in tree.children[n])
            assert avg == price[n]

    def test_witness_verifies_at_quarter(self):
        report = stochastic_counterexample()
        ok, violations = verify_cps(report.market, report.cps_witness)
        assert ok, violations
        assert report.cps_witness.fee == F(1, 4)

    def test_feasibility_profile(self):
        market = stochastic_counterexample().market
        assert find_cps(market, CpsQuery(F(1, 2))).feasible
        assert find_cps(market, CpsQuery(F(1, 4))).feasible
        assert not find_cps(market, CpsQuery(F(1, 8))).feasible
        assert not find_cps(market, CpsQuery(F(1, 2048))).feasible

    def test_loss_diverges_in_jump_size(self):
        dips = [
            stochastic_counterexample(up_price=m).expected_midtime_value
            for m in (2, 4, 8, 16)
        ]
        assert dips == [F(-5, 4), F(-3, 2), F(-2), F(-3)]
        assert all(b < a for a, b in zip(dips, dips[1:]))

    def test_target_loss_search(self):
        up = up_price_for_target_loss(F(1, 2), F(1, 4), 10)
        assert up == 128
        report = stochastic_counterexample(up_price=up)
        assert report.expected_midtime_value == -17
        assert all(
            post_value(report.market, report.strategy, leaf) >= -1
            for leaf in report.market.tree.leaves
        )
        with pytest.raises(ValueError, match="target must exceed 1"):
            up_price_for_target_loss(F(1, 2), F(1, 4), 1)
        with pytest.raises(ValueError, match="witness_fee"):
            up_price_for_target_loss(F(1, 4), F(1, 2), 10)

    def test_literal_sale_breaks_self_financing(self):
        report = stochastic_counterexample(literal_sale=True)
        assert report.literal_sale
        assert report.sale_wealth == -1 + 4 * F(3, 4)
        sf = check_self_financing(report.market, report.strategy)
        assert not sf.ok and sf.violations == (1,)

    def test_parameter_ordering(self):
        with pytest.raises(ValueError, match="witness_fee"):
            stochastic_counterexample(fee=F(1, 4), witness_fee=F(1, 2))
        with pytest.raises(ValueError, match="witness_fee"):
            stochastic_counterexample(witness_fee=F(0))
        with pytest.raises(ValueError, match="up_price must exceed 1"):
            stochastic_counterexample(up_price=F(1))


class TestDocs:
    def test_deterministic_report_doc(self):
        report = deterministic_counterexample(F(1, 2))
        doc = report_to_doc(report)
        assert doc["variant"] == "det"
        assert doc["lambda"] == "1/2"
        assert doc["lambda_prime"] == "1/2"
        assert doc["terminal_bound"] == "-1"
        assert doc["midtime_value"] == "-3/2"
        assert doc["threshold"] == "1/2"
        assert "m_tilde" not in doc

    def test_stochastic_report_doc(self):
        doc = report_to_doc(stochastic_counterexample(up_price=F(8)))
        assert doc["variant"] == "stoch"
        assert doc["m_tilde"] == "8"
        assert doc["sale_wealth"] == "3"
        assert doc["branch_probabilities"]["up"] == "1/15"
        assert doc["literal_sale"] is False

    def test_emitted_market_and_strategy_round_trip(self):
        for report in (deterministic_counterexample(F(1, 4)),
                       stochastic_counterexample()):
            market = load_market(market_to_doc(report.market))
            assert market.fee == report.market.fee
            assert market.price.values == report.market.price.values
            strategy = load_strategy(strategy_to_doc(report.market.tree, report.strategy),
                                     market.tree)
            assert strategy.bond.values == report.strategy.bond.values
            assert strategy.stock.values == report.strategy.stock.values


class TestSelfChecks:
    def test_broken_sharpness_check_raises(self, monkeypatch):
        # the generator re-decides its advertised threshold; a wrong
        # answer must stop it even under python -O, where asserts vanish
        from spreadlab import counterexamples

        monkeypatch.setattr(counterexamples, "_threshold", lambda market, equivalent: (F(1, 2), False))
        with pytest.raises(RuntimeError, match="attained: False\\), expected the fee 1/2"):
            deterministic_counterexample(F(1, 2))
