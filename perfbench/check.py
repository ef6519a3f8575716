"""Output checker: compares each op's exit code and report files with the
answer its workload generator knows from the construction.

It reads the reports back from disk, outside the timed loop, and never
reruns the search that produced an answer: feasible price systems are
re-verified with ``load_cps`` + ``verify_cps``, everything else is
compared with values computed by the generator.  Infeasible answers are
checked only through exit code 3 and ``"feasible": false``; the shape of
the certificate is not part of the contract.
"""

from __future__ import annotations

import json
from fractions import Fraction

from spreadlab.cps import load_cps, verify_cps
from spreadlab.market import load_market

from workloads import Op, path_market


class Checker:
    """Checks ops; caches parsed input markets across rounds."""

    def __init__(self):
        self._markets = {}

    def check(self, op: Op, exit_code) -> list:
        """Problems found with one op's outcome; empty when it is right."""
        expect = op.expect
        if exit_code != expect["exit"]:
            return [f"exit code {exit_code}, expected {expect['exit']}"]
        try:
            return getattr(self, "_" + expect["kind"])(op, expect)
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            return [f"report unreadable or malformed: {type(exc).__name__}: {exc}"]

    def _market(self, path: str):
        if path not in self._markets:
            self._markets[path] = load_market(_read(path))
        return self._markets[path]

    def _cps_feasible(self, op: Op, expect: dict) -> list:
        report = _read(op.reports[0])
        if report.get("feasible") is not True:
            return [f"feasible is {report.get('feasible')!r}, expected true"]
        market = self._market(expect["market"])
        cps, epsilon = load_cps(report, market.tree)
        problems = []
        if cps.fee != expect["level"]:
            problems.append(f"lambda_prime {cps.fee}, expected {expect['level']}")
        if expect["ac"]:
            if epsilon != 0:
                problems.append(f"epsilon {epsilon} in absolutely continuous mode")
        elif epsilon <= 0 or any(cps.density[leaf] <= 0 for leaf in market.tree.leaves):
            problems.append("equivalent mode answer is not equivalent (zero epsilon or leaf density)")
        ok, violations = verify_cps(market, cps, fee=expect["level"], epsilon=epsilon)
        if not ok:
            problems.extend(violations[:5])
        return problems

    def _cps_infeasible(self, op: Op, expect: dict) -> list:
        report = _read(op.reports[0])
        if report.get("feasible") is not False:
            return [f"feasible is {report.get('feasible')!r}, expected false"]
        return []

    def _threshold(self, op: Op, expect: dict) -> list:
        value = Fraction(_read(op.reports[0])["threshold"])
        if not expect["lo"] <= value <= expect["hi"]:
            return [f"threshold {value} outside [{expect['lo']}, {expect['hi']}]"]
        return []

    def _validate(self, op: Op, expect: dict) -> list:
        report = _read(op.reports[0])
        if report.get("market_ok") is not True or report.get("strategy_ok") is not True:
            return [f"market_ok {report.get('market_ok')!r}, strategy_ok {report.get('strategy_ok')!r}"]
        return []

    def _check_strategy(self, op: Op, expect: dict) -> list:
        report = _read(op.reports[0])
        problems = []
        if report.get("self_financing") is not True:
            problems.append("self_financing is not true")
        if report.get("mode") != expect["mode"]:
            problems.append(f"mode {report.get('mode')!r}, expected {expect['mode']!r}")
        slack = report["slack"]
        burn = expect["burn"]
        if len(slack) != len(burn):
            problems.append(f"slack covers {len(slack)} nodes, expected {len(burn)}")
        wrong = [n for n, b in burn.items() if Fraction(slack[str(n)]) != b]
        if wrong:
            problems.append(f"slack differs from the money burnt at nodes {wrong[:10]}")
        return problems

    def _decompose(self, op: Op, expect: dict) -> list:
        report = _read(op.reports[0])
        problems = []
        if report.get("supermartingale") is not True:
            problems.append("supermartingale is not true")
        value, cost, transform = report["value"], report["cost"], report["transform"]
        if len(value) != expect["nodes"]:
            problems.append(f"value covers {len(value)} nodes, expected {expect['nodes']}")
        wrong = [n for n in value if Fraction(value[n]) != Fraction(cost[n]) + Fraction(transform[n])]
        if wrong:
            problems.append(f"value != cost + transform at nodes {wrong[:10]}")
        return problems

    def _theorem(self, op: Op, expect: dict) -> list:
        report = _read(op.reports[0])
        problems = []
        for key in ("holds", "hypothesis_ok", "mode"):
            if report.get(key) != expect[key]:
                problems.append(f"{key} {report.get(key)!r}, expected {expect[key]!r}")
        if Fraction(report["x"]) != expect["x"]:
            problems.append(f"x {report['x']}, expected {expect['x']}")
        witness, want = report["witness"], expect["witness"]
        if want is None:
            if witness is not None:
                problems.append(f"unexpected witness {witness}")
        elif (
            witness is None
            or witness.get("node") != want["node"]
            or witness.get("classification") != want["classification"]
            or Fraction(witness["value"]) != want["value"]
        ):
            problems.append(f"witness {witness}, expected node {want['node']} value {want['value']}")
        if expect["hypothesis_ok"] and not all(level["feasible"] for level in report["cps_levels"]):
            problems.append("a sampled cost level is reported infeasible on a martingale market")
        return problems

    def _counterexample(self, op: Op, expect: dict) -> list:
        report = _read(op.reports[3])
        problems = []
        for key, want in expect["constants"].items():
            if not same(report.get(key), want):
                problems.append(f"report.json {key} = {report.get(key)!r}, expected {want}")
        for path in op.reports[:3]:
            _read(path)
        if "path" in expect:
            fee, steps = expect["path"]
            want = path_market(steps, fee).price
            nodes = _read(op.reports[0])["nodes"]
            got = {spec["id"]: Fraction(spec["S"]) for spec in nodes}
            if got != want:
                problems.append("market.json prices differ from the deterministic construction")
        return problems


def same(got, want) -> bool:
    """Does a wire value (rational text, map of them, or plain JSON) equal
    the expected value?"""
    if isinstance(want, dict):
        return isinstance(got, dict) and {k: Fraction(v) for k, v in got.items()} == want
    if isinstance(want, Fraction):
        return got is not None and Fraction(got) == want
    return got == want


def _read(path: str):
    with open(path) as handle:
        return json.load(handle)
