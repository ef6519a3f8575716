import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from spreadlab import (
    CpsQuery,
    OssmReport,
    check_ossm,
    cps_to_doc,
    doob_decompose,
    find_cps,
    load_cps,
    load_market,
    load_strategy,
    market_to_doc,
    one_step_drift,
    shadow_decomposition,
    strategy_to_doc,
    verify_cps,
)
from spreadlab import cli as cli_module
from spreadlab import cps as cps_module
from spreadlab import theorems as theorems_module
from spreadlab import tree as tree_module
from spreadlab.cli import main, run_command
from spreadlab.tree import density_problems

from helpers import check_find_cps_report, random_market, random_sf_strategy
from test_cps_reference import family_market

F = Fraction


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def write_json(path, doc):
    with open(path, "w") as handle:
        json.dump(doc, handle)


@pytest.fixture
def det_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run_command([
        "counterexample", "--variant", "det", "--lambda", "1/2", "--out-dir", "det",
    ])
    assert result.exit_code == 0
    return tmp_path / "det"


class TestCounterexampleCommand:
    def test_deterministic_outputs(self, det_files):
        names = {p.name for p in det_files.iterdir()}
        assert names == {"market.json", "strategy.json", "cps.json", "report.json"}
        report = read_json(det_files / "report.json")
        assert report["variant"] == "det"
        assert report["threshold"] == "1/2"
        assert report["midtime_value"] == "-3/2"
        market = load_market(read_json(det_files / "market.json"))
        strategy = load_strategy(read_json(det_files / "strategy.json"), market.tree)
        assert strategy.stock[0] == 2
        cps, _ = load_cps(read_json(det_files / "cps.json"), market.tree)
        assert cps.fee == F(1, 2)

    def test_stochastic_flags(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = run_command([
            "counterexample", "--variant", "stoch", "--lambda-prime", "1/8",
            "--m-tilde", "8", "--out-dir", "stoch",
        ])
        assert result.exit_code == 0
        report = read_json(tmp_path / "stoch" / "report.json")
        assert report["m_tilde"] == "8"
        assert report["lambda_prime"] == "1/8"
        assert report["lambda"] == "1/2"

    def test_literal_sale_recorded(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = run_command([
            "counterexample", "--variant", "stoch", "--literal-sale", "--out-dir", "ls",
        ])
        assert result.exit_code == 0
        assert read_json(tmp_path / "ls" / "report.json")["literal_sale"] is True

    @pytest.mark.parametrize("variant", ["det", "stoch"])
    def test_cps_file_verifies_at_its_epsilon(self, tmp_path, monkeypatch, variant):
        monkeypatch.chdir(tmp_path)
        result = run_command(["counterexample", "--variant", variant, "--out-dir", "out"])
        assert result.exit_code == 0
        market = load_market(read_json(tmp_path / "out" / "market.json"))
        cps, epsilon = load_cps(read_json(tmp_path / "out" / "cps.json"), market.tree)
        ok, violations = verify_cps(market, cps, epsilon=epsilon)
        assert ok, violations

    def test_bad_parameters_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = run_command([
            "counterexample", "--variant", "det", "--lambda", "1/2", "--steps", "3",
        ])
        assert result.exit_code == 2
        assert "even integer" in result.human_summary


class TestValidate:
    def test_good_market_and_strategy(self, det_files, monkeypatch):
        result = run_command([
            "validate", "--market", "det/market.json", "--strategy", "det/strategy.json",
        ])
        assert result.exit_code == 0
        report = read_json(result.report_path)
        assert report["market_ok"] and report["strategy_ok"]

    def test_broken_market(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        doc = {
            "times": ["0", "1"],
            "lambda": "1/4",
            "nodes": [
                {"id": 0, "parent": None, "prob": "1", "S": "1"},
                {"id": 1, "parent": 0, "prob": "1/2", "S": "1"},
            ],
        }
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        result = run_command(["validate", "--market", "bad.json"])
        assert result.exit_code == 2
        report = read_json(result.report_path)
        assert report["market_ok"] is False
        assert report["market_problems"]

    def test_strategy_skipped_when_market_fails(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text("{}")
        (tmp_path / "s.json").write_text(json.dumps({"holdings": []}))
        result = run_command(["validate", "--market", "bad.json", "--strategy", "s.json"])
        assert result.exit_code == 2
        report = read_json(result.report_path)
        assert report["strategy_problems"] == ["market failed to load"]

    def test_bad_strategy(self, det_files):
        (det_files / "s.json").write_text(json.dumps(
            {"holdings": [{"node": 99, "phi0": "0", "phi1": "0"}]}
        ))
        result = run_command([
            "validate", "--market", "det/market.json", "--strategy", "det/s.json",
        ])
        assert result.exit_code == 2
        report = read_json(result.report_path)
        assert report["market_ok"] is True and report["strategy_ok"] is False

    def test_missing_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = run_command(["validate", "--market", "ghost.json"])
        assert result.exit_code == 2
        assert "file not found" in result.human_summary

    def test_malformed_json(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "junk.json").write_text("{not json")
        result = run_command(["validate", "--market", "junk.json"])
        assert result.exit_code == 2
        assert "not valid JSON" in result.human_summary


class TestBadPaths:
    @pytest.mark.parametrize("flag", ["--market", "--strategy", "--cps"])
    def test_directory_as_input(self, det_files, flag):
        argv = {"--market": "det/market.json", "--strategy": "det/strategy.json", "--cps": "det/cps.json"}
        argv[flag] = "det"
        result = run_command(["decompose", *(x for kv in argv.items() for x in kv)])
        assert result.exit_code == 2
        assert result.human_summary.startswith("error: det: cannot read (")

    def test_directory_as_report(self, det_files):
        result = run_command(["validate", "--market", "det/market.json", "--report", "det"])
        assert result.exit_code == 2
        assert result.human_summary.startswith("error: det: cannot write report (")

    def test_input_not_utf8(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("m.json").write_bytes(b"\xff\xfe{")
        result = run_command(["validate", "--market", "m.json"])
        assert result.exit_code == 2
        assert result.human_summary.startswith("error: m.json: not valid JSON (not UTF-8: ")

    def test_file_as_output_directory(self, det_files):
        result = run_command([
            "counterexample", "--variant", "det", "--out-dir", "det/market.json",
        ])
        assert result.exit_code == 2
        assert result.human_summary.startswith(
            "error: det/market.json: cannot create output directory ("
        )


class TestMalformedShapes:
    @pytest.mark.parametrize("key, value", [("times", 3), ("nodes", 5)])
    def test_market_key_of_wrong_type(self, det_files, key, value):
        doc = read_json(det_files / "market.json")
        doc[key] = value
        (det_files / "bad.json").write_text(json.dumps(doc))
        result = run_command(["validate", "--market", "det/bad.json"])
        assert result.exit_code == 2
        report = read_json(result.report_path)
        assert report["market_problems"] == [f"'{key}' must be a list, got int"]

    def test_parent_of_wrong_type(self, det_files):
        doc = read_json(det_files / "market.json")
        doc["nodes"][1]["parent"] = [0]
        (det_files / "bad.json").write_text(json.dumps(doc))
        result = run_command(["validate", "--market", "det/bad.json"])
        assert result.exit_code == 2
        problems = read_json(result.report_path)["market_problems"]
        assert problems == ["node 1: parent must be an integer id or null, got [0]"]

    def test_holdings_node_of_wrong_type_in_validate(self, det_files):
        (det_files / "s.json").write_text(json.dumps(
            {"holdings": [{"node": [1], "phi0": "0", "phi1": "0"}]}
        ))
        result = run_command([
            "validate", "--market", "det/market.json", "--strategy", "det/s.json",
        ])
        assert result.exit_code == 2
        report = read_json(result.report_path)
        assert report["strategy_problems"] == ["holdings[0]: 'node' must be an integer id, got [1]"]

    def test_holdings_node_of_wrong_type_in_check_strategy(self, det_files):
        (det_files / "s.json").write_text(json.dumps(
            {"holdings": [{"node": [1], "phi0": "0", "phi1": "0"}]}
        ))
        result = run_command([
            "check-strategy", "--market", "det/market.json", "--strategy", "det/s.json",
        ])
        assert result.exit_code == 2
        assert result.human_summary == "error: holdings[0]: 'node' must be an integer id, got [1]"

    def test_price_system_of_wrong_shape_in_decompose(self, det_files):
        (det_files / "c.json").write_text(json.dumps(
            {"S_tilde": 5, "Z": {}, "lambda_prime": "1/2", "epsilon": "0"}
        ))
        result = run_command([
            "decompose", "--market", "det/market.json", "--strategy", "det/strategy.json",
            "--cps", "det/c.json",
        ])
        assert result.exit_code == 2
        assert result.human_summary == "error: 'S_tilde' must be an object, got int"

    def test_price_system_level_and_floor_out_of_range_in_decompose(self, det_files):
        # a level of 2 makes every bid negative: one problem per key
        doc = read_json(det_files / "cps.json")
        doc["lambda_prime"], doc["epsilon"] = "2", "-5"
        write_json(det_files / "c.json", doc)
        result = run_command([
            "decompose", "--market", "det/market.json", "--strategy", "det/strategy.json",
            "--cps", "det/c.json",
        ])
        assert result.exit_code == 2
        assert result.human_summary == (
            "error: lambda_prime must satisfy 0 <= lambda' < 1, got 2; "
            "epsilon must be nonnegative, got -5"
        )

    def test_price_system_node_given_twice_in_decompose(self, det_files):
        doc = read_json(det_files / "cps.json")
        doc["S_tilde"]["00"] = doc["S_tilde"]["0"]
        write_json(det_files / "c.json", doc)
        result = run_command([
            "decompose", "--market", "det/market.json", "--strategy", "det/strategy.json",
            "--cps", "det/c.json",
        ])
        assert result.exit_code == 2
        assert result.human_summary == "error: S_tilde: node 0 given twice"

    def test_price_system_key_given_twice_in_decompose(self, det_files):
        # the same text twice is invisible to load_cps: json.load keeps the last
        text = (det_files / "cps.json").read_text()
        (det_files / "c.json").write_text(text.replace('"S_tilde": {', '"S_tilde": {"0": "999", ', 1))
        result = run_command([
            "decompose", "--market", "det/market.json", "--strategy", "det/strategy.json",
            "--cps", "det/c.json",
        ])
        assert result.exit_code == 2
        assert result.human_summary == "error: det/c.json: key '0' given twice"

    @pytest.mark.parametrize("file, old, new, key", [
        ("market", '"lambda": "1/2"', '"lambda": "1/2", "lambda": "0"', "lambda"),
        ("market", '"S": ', '"S": "7", "S": ', "S"),
        ("strategy", '"phi1": ', '"phi1": "5", "phi1": ', "phi1"),
    ])
    def test_key_given_twice_in_any_input(self, det_files, capsys, file, old, new, key):
        # json.load alone would keep the last value: a market at lambda = 0
        text = (det_files / f"{file}.json").read_text()
        (det_files / "twice.json").write_text(text.replace(old, new, 1))
        files = {"market": "det/market.json", "strategy": "det/strategy.json", file: "det/twice.json"}
        result = run_command(["validate", "--market", files["market"], "--strategy", files["strategy"]])
        assert result.exit_code == 2
        assert result.human_summary == f"error: det/twice.json: key {key!r} given twice"
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("flag", ["--market", "--cps"])
    def test_nested_too_deeply(self, det_files, flag):
        # json.load recurses once per level, through the duplicate-key hook
        (det_files / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
        argv = {"--market": "det/market.json", "--strategy": "det/strategy.json", "--cps": "det/cps.json"}
        argv[flag] = "det/deep.json"
        result = run_command(["decompose", *(x for kv in argv.items() for x in kv)])
        assert result.exit_code == 2
        assert result.human_summary == "error: det/deep.json: not valid JSON (nested too deeply)"

    def test_overlong_price_gets_a_short_message(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            write_json("m.json", {
                "times": ["0"], "lambda": "0",
                "nodes": [{"id": 0, "parent": None, "prob": "1", "S": "7" * 5000}],
            })
            result = run_command(["validate", "--market", "m.json"])
            assert result.exit_code == 2
            problem = "node 0: rational too long: an integer part has 5000 digits, over the limit of 4300"
            assert read_json(result.report_path)["market_problems"] == [problem]
            write_json("s.json", {"holdings": []})
            result = run_command(["check-strategy", "--market", "m.json", "--strategy", "s.json"])
            assert result.exit_code == 2
            assert result.human_summary == f"error: {problem}"
        finally:
            sys.set_int_max_str_digits(saved)

    def test_overlong_json_number_names_its_file(self, tmp_path, monkeypatch):
        # json.load itself refuses the integer, before any loader sees it
        monkeypatch.chdir(tmp_path)
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            Path("m.json").write_text('{"times": [' + "7" * 5000 + "]}")
            result = run_command(["cps-threshold", "--market", "m.json"])
            assert result.exit_code == 2
            assert result.human_summary.startswith("error: m.json: Exceeds the limit (4300 digits)")
        finally:
            sys.set_int_max_str_digits(saved)


class TestCheckStrategy:
    def test_modes_report_their_bounds(self, det_files):
        result = run_command([
            "check-strategy", "--market", "det/market.json",
            "--strategy", "det/strategy.json",
        ])
        assert result.exit_code == 0
        report = read_json(result.report_path)
        assert report["self_financing"] is True
        assert report["mode"] == "numeraire_based"
        assert report["minimal_bound"] == "3/2"
        assert report["worst_node"] == 1
        result = run_command([
            "check-strategy", "--market", "det/market.json",
            "--strategy", "det/strategy.json", "--mode", "nf",
        ])
        report = read_json(result.report_path)
        assert report["mode"] == "numeraire_free"
        assert report["minimal_bound"] == "1"

    def test_violations_exit_1(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_command([
            "counterexample", "--variant", "stoch", "--literal-sale", "--out-dir", "ls",
        ])
        result = run_command([
            "check-strategy", "--market", "ls/market.json", "--strategy", "ls/strategy.json",
        ])
        assert result.exit_code == 1
        report = read_json(result.report_path)
        assert report["self_financing"] is False
        assert report["slack_violations"] == [1]

    def test_outputs_past_the_digit_limit_are_exact(self, tmp_path, monkeypatch):
        # every input is under the interpreter's 4300-digit limit, the slacks are not
        monkeypatch.chdir(tmp_path)
        argv = ["check-strategy", "--market", "m.json", "--strategy", "s.json"]
        saved = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            price = f"1/{3**8000}"
            write_json("m.json", {
                "times": ["0", "1"], "lambda": "1/4",
                "nodes": [{"id": 0, "parent": None, "prob": "1", "S": price},
                          {"id": 1, "parent": 0, "prob": "1", "S": price}],
            })
            holding = {"phi0": f"-1/{11**4000}", "phi1": f"1/{7**5000}"}
            write_json("s.json", {"holdings": [{"node": n, **holding} for n in (0, 1)]})
            result = run_command(argv + ["--report", "limited.json"])
            sys.set_int_max_str_digits(0)
            lifted = run_command(argv + ["--report", "lifted.json"])
        finally:
            sys.set_int_max_str_digits(saved)
        assert result.exit_code == lifted.exit_code == 0
        assert result.human_summary.startswith("self-financing: yes")
        assert Path("limited.json").read_bytes() == Path("lifted.json").read_bytes()
        slack = read_json("limited.json")["slack"]
        assert max(len(text) for text in slack.values()) == 20253

    def test_decimal_summary_past_the_float_range(self, tmp_path, monkeypatch):
        # the minimal bound is 10^400 + 1/3: too large for a float
        monkeypatch.chdir(tmp_path)
        price = str(10**400)
        write_json("m.json", {
            "times": ["0", "1"], "lambda": "1/4",
            "nodes": [{"id": 0, "parent": None, "prob": "1", "S": price},
                      {"id": 1, "parent": 0, "prob": "1", "S": price}],
        })
        write_json("s.json", {"holdings": [
            {"node": n, "phi0": "-1/3", "phi1": "-1"} for n in (0, 1)
        ]})
        result = run_command([
            "check-strategy", "--market", "m.json", "--strategy", "s.json", "--decimal",
        ])
        assert result.exit_code == 0
        assert "(~1e+400) binding at node 0" in result.human_summary
        assert read_json("check-strategy-report.json")["self_financing"] is True


class TestFindCps:
    def test_feasible_report_round_trips(self, det_files):
        result = run_command([
            "find-cps", "--market", "det/market.json", "--lambda", "1/2",
        ])
        assert result.exit_code == 0
        report = read_json(result.report_path)
        assert report["feasible"] is True
        assert set(report) == {"S_tilde", "Z", "lambda_prime", "epsilon", "feasible"}
        market = load_market(read_json(det_files / "market.json"))
        cps, epsilon = load_cps(report, market.tree)
        assert epsilon == min(cps.density[leaf] for leaf in market.tree.leaves)
        assert all(v == F(1, 2) for v in cps.shadow_price.values())

    def test_infeasible_reports_certificate(self, det_files):
        result = run_command([
            "find-cps", "--market", "det/market.json", "--lambda", "1/4",
        ])
        assert result.exit_code == 3
        report = read_json(result.report_path)
        assert report["feasible"] is False
        cert = report["certificate"]
        assert cert["verified"] is True
        assert set(cert) == {"multipliers", "verified"}
        assert cert["multipliers"] and "0" not in cert["multipliers"].values()
        assert "infeasible" in result.human_summary

    def test_random_reports_check_from_their_bytes(self, tmp_path, monkeypatch):
        # random prices and lifted roots, where most systems fail, in both modes
        monkeypatch.chdir(tmp_path)
        rng = random.Random("find-cps-reports")
        infeasible = {(): 0, ("--ac",): 0}
        feasible_reports = 0
        for i in range(120):
            market = random_market(rng) if i % 2 else family_market(rng, "lifted_root")
            write_json("m.json", market_to_doc(market))
            for level in ("0", "1/8", "1/4"):
                for flags in infeasible:
                    result = run_command(["find-cps", "--market", "m.json", "--lambda", level, *flags])
                    feasible = check_find_cps_report(market, read_json(result.report_path))
                    assert result.exit_code == (0 if feasible else 3)
                    infeasible[flags] += not feasible
                    feasible_reports += feasible
        assert min(infeasible.values()) >= 200 and feasible_reports >= 50, (infeasible, feasible_reports)

    def test_ac_mode_reports_dead_branch(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        doc = {
            "times": ["0", "1", "2"],
            "lambda": "1/2",
            "nodes": [
                {"id": 0, "parent": None, "prob": "1", "S": "1"},
                {"id": 1, "parent": 0, "prob": "1/2", "S": "1/2"},
                {"id": 2, "parent": 0, "prob": "1/2", "S": "1"},
                {"id": 3, "parent": 1, "prob": "1", "S": "5"},
                {"id": 4, "parent": 2, "prob": "1", "S": "1"},
            ],
        }
        (tmp_path / "m.json").write_text(json.dumps(doc))
        result = run_command(["find-cps", "--market", "m.json", "--lambda", "0", "--ac"])
        assert result.exit_code == 0
        report = read_json(result.report_path)
        assert report["epsilon"] == "0"
        assert report["off_support"] == [1, 3]
        assert set(report["S_tilde"]) == {"0", "2", "4"}
        result = run_command(["find-cps", "--market", "m.json", "--lambda", "0"])
        assert result.exit_code == 3

    def test_level_above_an_unattained_threshold_is_feasible(self, tmp_path, monkeypatch):
        # the threshold is 0 and not attained; every equivalent system at
        # lambda' = 1/10^9 has a leaf density of the order of the level
        monkeypatch.chdir(tmp_path)
        doc = {
            "times": ["0", "1"],
            "lambda": "0",
            "nodes": [
                {"id": 0, "parent": None, "prob": "1", "S": "1"},
                {"id": 1, "parent": 0, "prob": "1/2", "S": "1"},
                {"id": 2, "parent": 0, "prob": "1/2", "S": "2"},
            ],
        }
        (tmp_path / "m.json").write_text(json.dumps(doc))
        result = run_command(["cps-threshold", "--market", "m.json"])
        report = read_json(result.report_path)
        assert (report["threshold"], report["attained"]) == ("0", False)
        result = run_command(["find-cps", "--market", "m.json", "--lambda", "1/1000000000"])
        assert result.exit_code == 0
        report = read_json(result.report_path)
        market = load_market(doc)
        cps, epsilon = load_cps(report, market.tree)
        assert epsilon > 0
        ok, violations = verify_cps(market, cps, epsilon=epsilon)
        assert ok, violations

    def test_epsilon_flag_removed(self, det_files):
        result = run_command([
            "find-cps", "--market", "det/market.json", "--lambda", "1/2", "--epsilon", "1/8",
        ])
        assert result.exit_code == 2


class TestThreshold:
    def test_deterministic_market(self, det_files):
        result = run_command(["cps-threshold", "--market", "det/market.json"])
        assert result.exit_code == 0
        report = read_json(result.report_path)
        assert report["threshold"] == "1/2"
        assert report["attained"] is True

    def test_decimal_summary(self, det_files):
        result = run_command([
            "cps-threshold", "--market", "det/market.json", "--decimal",
        ])
        assert "~0.5" in result.human_summary

    def test_ac_selects_the_reported_mode(self, det_files):
        for extra, mode in (([], "equivalent"), (["--ac"], "absolutely_continuous")):
            result = run_command(["cps-threshold", "--market", "det/market.json", *extra])
            assert result.exit_code == 0
            report = read_json(result.report_path)
            assert "epsilon" not in report
            assert report["mode"] == mode


class TestDecompose:
    def test_counterexample_decomposition(self, det_files):
        result = run_command([
            "decompose", "--market", "det/market.json",
            "--strategy", "det/strategy.json", "--cps", "det/cps.json",
        ])
        assert result.exit_code == 0
        report = read_json(result.report_path)
        assert set(report["value"].values()) == {"-1"}
        assert set(report["cost"].values()) == {"-1"}
        assert set(report["transform"].values()) == {"0"}
        assert report["supermartingale"] is True
        assert report["drift_violations"] == {}
        assert set(report["martingale"].values()) == {"-1"}
        assert set(report["compensator"].values()) == {"0"}

    def test_positive_drift_is_a_broken_invariant(self, det_files, monkeypatch):
        # the checks before the drift leave it no way to be positive, so a
        # positive drift is a fault of the program, not a verdict
        def rising(tree, process, density):
            return OssmReport(ok=False, violations=((0, F(1, 4)),))

        monkeypatch.setattr(cli_module, "_ossm", rising)
        with pytest.raises(RuntimeError, match="node 0: marked value has positive drift 1/4"):
            run_command([
                "decompose", "--market", "det/market.json",
                "--strategy", "det/strategy.json", "--cps", "det/cps.json",
            ])

    def test_precondition_failure_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_command([
            "counterexample", "--variant", "stoch", "--literal-sale", "--out-dir", "ls",
        ])
        result = run_command([
            "decompose", "--market", "ls/market.json",
            "--strategy", "ls/strategy.json", "--cps", "ls/cps.json",
        ])
        assert result.exit_code == 2
        assert "not self-financing" in result.human_summary

    def test_density_validated_once(self, det_files, monkeypatch):
        calls = []

        def counted(tree, density):
            calls.append(density)
            return density_problems(tree, density)

        for module in (cps_module, theorems_module):
            monkeypatch.setattr(module, "density_problems", counted)
        result = run_command([
            "decompose", "--market", "det/market.json",
            "--strategy", "det/strategy.json", "--cps", "det/cps.json",
        ])
        assert result.exit_code == 0
        assert len(calls) == 1

    def test_report_matches_library(self, tmp_path, monkeypatch):
        # random markets, self-financing strategies and the price systems
        # find_cps builds at the market's own cost level
        monkeypatch.chdir(tmp_path)
        rng = random.Random(79)
        checked = 0
        for i in range(40):
            market = random_market(rng, fee=F(0) if i % 4 == 0 else None, martingale=i % 2 == 0)
            found = find_cps(market, CpsQuery(market.fee))
            if not found.feasible:
                continue
            strategy = random_sf_strategy(rng, market)
            tree = market.tree
            write_json("m.json", market_to_doc(market))
            write_json("s.json", strategy_to_doc(strategy))
            write_json("c.json", cps_to_doc(found.cps, F(0)))
            result = run_command([
                "decompose", "--market", "m.json", "--strategy", "s.json", "--cps", "c.json",
            ])
            assert result.exit_code == 0
            report = read_json(result.report_path)

            def wire(process):
                return {str(n): str(process[n]) for n in tree.nodes}

            dec = shadow_decomposition(market, strategy, found.cps)
            assert report["value"] == wire(dec.value)
            assert report["cost"] == wire(dec.cost)
            assert report["transform"] == wire(dec.transform)
            ossm = check_ossm(tree, dec.value, found.cps.density)
            assert report["supermartingale"] is ossm.ok is True
            assert report["drift_violations"] == {str(n): str(d) for n, d in ossm.violations}
            doob = doob_decompose(tree, dec.value, found.cps.density)
            assert report["martingale"] == wire(doob.martingale)
            assert report["compensator"] == wire(doob.compensator)
            # the split itself: martingale part, predictable nondecreasing
            # compensator from zero, and value = martingale - compensator
            drift = one_step_drift(tree, doob.martingale, found.cps.density)
            assert all(drift[n] == 0 for n in tree.nodes)
            comp = doob.compensator
            assert comp[tree.root] == 0
            for n in tree.internal:
                kids = tree.children[n]
                assert len({comp[c] for c in kids}) == 1
                assert comp[kids[0]] >= comp[n]
            assert all(doob.martingale[n] - comp[n] == dec.value[n] for n in tree.nodes)
            checked += 1
        assert checked >= 20, checked


def _count_holdings_checks(monkeypatch):
    """Count the walks of a holdings leg by the per-node check: each call of
    `tree._adapted_problems`, or of its exactness test `tree._inexact` from
    outside it, on a value named as a bond or stock holding, in every module
    that holds them."""
    counts = {"bond": 0, "stock": 0}
    inside = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            what = args[2]  # the value's name, third in both functions
            if not inside and "holding" in what:
                counts[what.split()[0]] += 1
            inside.append(what)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    for name in ("_adapted_problems", "_inexact"):
        original = getattr(tree_module, name)
        wrapped = counted(original)
        for module in list(sys.modules.values()):
            if module.__name__.startswith("spreadlab") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapped)
    return counts


@pytest.mark.parametrize("argv", [
    ["check-strategy", "--market", "det/market.json", "--strategy", "det/strategy.json"],
    ["check-strategy", "--market", "det/market.json", "--strategy", "det/strategy.json", "--mode", "nf"],
    ["theorem", "--market", "det/market.json", "--strategy", "det/strategy.json", "--x", "1"],
    ["decompose", "--market", "det/market.json", "--strategy", "det/strategy.json", "--cps", "det/cps.json"],
    ["counterexample", "--variant", "det", "--out-dir", "again"],
    ["counterexample", "--variant", "stoch", "--out-dir", "again"],
], ids=lambda argv: "-".join(a for a in argv if not a.endswith(".json")))
def test_holdings_checked_once(det_files, monkeypatch, argv):
    # the holdings twin of test_density_validated_once: a strategy is checked
    # when it is built, and the functions handed it only ask for its tree
    counts = _count_holdings_checks(monkeypatch)
    result = run_command(argv)
    assert result.exit_code in (0, 1), result.human_summary
    assert counts == {"bond": 1, "stock": 1}


class TestTheorem:
    def test_witness_beats_hypothesis_failure(self, det_files):
        result = run_command([
            "theorem", "--market", "det/market.json",
            "--strategy", "det/strategy.json", "--x", "1",
        ])
        assert result.exit_code == 1
        report = read_json(result.report_path)
        assert report["holds"] is False
        assert report["witness"] == {"node": 1, "classification": "long", "value": "-3/2"}
        assert report["hypothesis_ok"] is False

    def test_holds_on_martingale_market(self, tmp_path, monkeypatch):
        # S = 1 over 2 and 1/2 is a martingale at p = 1/3; one share bought
        # at the root liquidates to 1/2 and -5/8 at the leaves
        monkeypatch.chdir(tmp_path)
        write_json("market.json", {
            "times": ["0", "1"],
            "lambda": "1/4",
            "nodes": [
                {"id": 0, "parent": None, "prob": "1", "S": "1"},
                {"id": 1, "parent": 0, "prob": "1/3", "S": "2"},
                {"id": 2, "parent": 0, "prob": "2/3", "S": "1/2"},
            ],
        })
        write_json("strategy.json", {"holdings": [
            {"node": n, "phi0": "-1", "phi1": "1"} for n in range(3)
        ]})
        result = run_command([
            "theorem", "--market", "market.json", "--strategy", "strategy.json", "--x", "5/8",
        ])
        assert result.exit_code == 0
        report = read_json(result.report_path)
        assert report["holds"] and report["hypothesis_ok"]
        assert report["cps_levels"] == [{"lambda_prime": "0", "feasible": True}]
        assert report["admissibility_bound"] == "5/8"

    def test_threshold_below_every_halving_exits_1(self, tmp_path, monkeypatch):
        # the dip to 9999/10000 breaks -2 at node 1; no price system exists
        # below 1/10000, so the hypothesis fails and the theorem is silent
        monkeypatch.chdir(tmp_path)
        write_json("market.json", {
            "times": ["0", "1", "2"],
            "lambda": "1/2",
            "nodes": [
                {"id": 0, "parent": None, "prob": "1", "S": "1"},
                {"id": 1, "parent": 0, "prob": "1", "S": "9999/10000"},
                {"id": 2, "parent": 1, "prob": "1", "S": "1"},
            ],
        })
        write_json("strategy.json", {"holdings": [
            {"node": n, "phi0": "-4", "phi1": "4"} for n in range(3)
        ]})
        result = run_command([
            "theorem", "--market", "market.json", "--strategy", "strategy.json", "--x", "2",
        ])
        assert result.exit_code == 1
        report = read_json(result.report_path)
        assert report["holds"] is False and report["hypothesis_ok"] is False
        assert report["witness"]["node"] == 1
        assert report["cps_levels"] == [{"lambda_prime": "1/10000", "feasible": True}]
        result = run_command(["cps-threshold", "--market", "market.json"])
        assert read_json(result.report_path) == {
            "threshold": "1/10000", "attained": True, "mode": "equivalent",
        }

    def test_hypothesis_only_failure_exits_3(self, det_files):
        result = run_command([
            "theorem", "--market", "det/market.json",
            "--strategy", "det/strategy.json", "--x", "3/2",
        ])
        assert result.exit_code == 3
        report = read_json(result.report_path)
        assert report["holds"] is True and report["hypothesis_ok"] is False
        assert report["witness"] is None

    def test_ac_premise(self, tmp_path, monkeypatch):
        # at lambda = 0 the only martingale measure puts no mass on node 2
        monkeypatch.chdir(tmp_path)
        write_json("market.json", {
            "times": ["0", "1"],
            "lambda": "0",
            "nodes": [
                {"id": 0, "parent": None, "prob": "1", "S": "1"},
                {"id": 1, "parent": 0, "prob": "1/2", "S": "1"},
                {"id": 2, "parent": 0, "prob": "1/2", "S": "2"},
            ],
        })
        write_json("strategy.json", {"holdings": []})
        argv = ["theorem", "--market", "market.json", "--strategy", "strategy.json", "--x", "0"]
        result = run_command(argv)
        assert result.exit_code == 3
        assert read_json(result.report_path)["cps_levels"] == [{"lambda_prime": "0", "feasible": False}]
        result = run_command([*argv, "--ac"])
        assert result.exit_code == 0
        report = read_json(result.report_path)
        assert report["hypothesis_ok"] is True
        assert report["cps_levels"] == [{"lambda_prime": "0", "feasible": True}]

    def test_numeraire_free_bound(self, det_files):
        result = run_command([
            "theorem", "--market", "det/market.json",
            "--strategy", "det/strategy.json", "--x", "3/2",
            "--numeraire-free",
        ])
        report = read_json(result.report_path)
        assert report["mode"] == "numeraire_free"
        assert report["admissibility_bound"] == "1"


# every command, on the deterministic counterexample's files
DET_ARGV = {
    "validate": ["--market", "det/market.json", "--strategy", "det/strategy.json"],
    "check-strategy": ["--market", "det/market.json", "--strategy", "det/strategy.json"],
    "find-cps": ["--market", "det/market.json", "--lambda", "1/2"],
    "cps-threshold": ["--market", "det/market.json"],
    "decompose": [
        "--market", "det/market.json", "--strategy", "det/strategy.json", "--cps", "det/cps.json",
    ],
    "theorem": ["--market", "det/market.json", "--strategy", "det/strategy.json", "--x", "1"],
    "counterexample": ["--variant", "det", "--out-dir", "cx"],
}


class TestParsing:
    def test_unknown_command(self):
        result = run_command(["frobnicate"])
        assert result.exit_code == 2
        assert result.human_summary.startswith("error: argument command: invalid choice: 'frobnicate'")

    def test_missing_required_flag(self):
        result = run_command(["find-cps", "--lambda", "1/2"])
        assert result.exit_code == 2
        assert result.human_summary == "error: the following arguments are required: --market"

    @pytest.mark.parametrize("argv, reason", [
        (["find-cps", "--market", "m.json", "--lambda", "1/0"],
         "argument --lambda: malformed rational '1/0': Fraction(1, 0)"),
        (["theorem", "--market", "m.json", "--strategy", "s.json", "--x", "abc"],
         "argument --x: malformed rational 'abc': invalid literal for int()"),
    ], ids=["lambda", "x"])
    def test_bad_rational_flag_keeps_its_reason(self, argv, reason, capsys):
        result = run_command(argv)
        assert result.exit_code == 2
        assert result.human_summary.startswith(f"error: {reason}")
        assert capsys.readouterr().err == ""

    def test_help_exits_0(self, capsys):
        assert run_command(["find-cps", "--help"]).exit_code == 0
        assert "--lambda" in capsys.readouterr().out

    def test_env_epsilon_refused_by_every_command(self, det_files, monkeypatch, capsys):
        # it once picked the measure class of cps-threshold and theorem
        for value in ("0", "2", ""):
            monkeypatch.setenv("SPREADLAB_EPSILON", value)
            for command, argv in DET_ARGV.items():
                result = run_command([command, *argv, "--report", "r.json"])
                assert result.exit_code == 2, (value, command)
                assert result.report_path is None
                assert "SPREADLAB_EPSILON" in result.human_summary
                assert "--ac" in result.human_summary
        assert not Path("r.json").exists() and not Path("cx").exists()
        assert run_command(["theorem", "--help"]).exit_code == 0
        out, err = capsys.readouterr()
        assert "--ac" in out and err == ""

    def test_float_flag_rejected(self, det_files):
        result = run_command([
            "find-cps", "--market", "det/market.json", "--lambda", "0.25",
        ])
        assert result.exit_code == 2

    def test_report_override(self, det_files):
        result = run_command([
            "cps-threshold", "--market", "det/market.json", "--report", "custom.json",
        ])
        assert result.report_path == "custom.json"
        assert read_json("custom.json")["threshold"] == "1/2"

    @pytest.mark.parametrize("command", list(DET_ARGV))
    def test_every_command_writes_its_report_at_report(self, det_files, command):
        result = run_command([command, *DET_ARGV[command], "--report", "r.json"])
        assert result.report_path == "r.json", result.human_summary
        assert isinstance(read_json("r.json"), dict)
        assert result.human_summary.splitlines()[-1] == "report: r.json"
        if command == "counterexample":
            assert {p.name for p in Path("cx").iterdir()} == {"market.json", "strategy.json", "cps.json"}

    def test_counterexample_report_defaults_to_its_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = run_command(["counterexample", "--variant", "det", "--out-dir", "cx"])
        assert result.report_path == str(Path("cx", "report.json"))
        assert result.human_summary.splitlines()[-2:] == [
            f"wrote {Path('cx', 'market.json')}, {Path('cx', 'strategy.json')}, {Path('cx', 'cps.json')}",
            f"report: {Path('cx', 'report.json')}",
        ]
        assert read_json(result.report_path)["variant"] == "det"


class TestMain:
    def test_prints_summary_and_returns_code(self, det_files, capsys):
        code = main(["cps-threshold", "--market", "det/market.json"])
        assert code == 0
        out = capsys.readouterr().out
        assert "smallest feasible cost level: 1/2" in out

    def test_error_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["validate", "--market", "ghost.json"])
        assert code == 2
        assert "file not found" in capsys.readouterr().out
