"""Self-test of the benchmark's known answers and of its output checker.

    python3 perfbench/selftest.py

First cross-checks every generator family's claimed verdict against the
library on small sizes: ``find_cps`` for each family and level,
``brute_force_cps`` where its scale allows (at most 3 periods and 3
children), ``cps_threshold`` on path markets, the self-financing slack of
the burning strategies, the theorem on the theorem markets, and the
advertised constants and theorem witnesses of both counterexamples.
Then runs one op of every kind through the CLI, confirms the checker
accepts it, and confirms that the checker rejects a wrong exit code and
a deliberately corrupted report.  Exits 1 on any disagreement.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spreadlab.cli as cli  # noqa: E402
from spreadlab.counterexamples import (  # noqa: E402
    deterministic_counterexample,
    report_to_doc,
    stochastic_counterexample,
)
from spreadlab.cps import (  # noqa: E402
    ABSOLUTELY_CONTINUOUS,
    DEFAULT_EPSILON,
    EQUIVALENT,
    CpsQuery,
    brute_force_cps,
    cps_threshold,
    find_cps,
)
from spreadlab.market import load_market  # noqa: E402
from spreadlab.strategy import check_self_financing, load_strategy  # noqa: E402
from spreadlab.theorems import check_admissibility_theorem  # noqa: E402

import workloads as w  # noqa: E402
from check import Checker, same  # noqa: E402

SEEDS = range(6)
errors = []


def expect(condition: bool, what: str) -> None:
    if not condition:
        errors.append(what)


def decide(market, level: Fraction, ac: bool) -> tuple[bool, bool]:
    """Feasibility by find_cps and by brute_force_cps (None where the
    tree exceeds the brute force's scale)."""
    epsilon = Fraction(0) if ac else DEFAULT_EPSILON
    lp = find_cps(market, CpsQuery(level, epsilon, ABSOLUTELY_CONTINUOUS if ac else EQUIVALENT)).feasible
    if market.tree.horizon > 3:
        return lp, None
    return lp, brute_force_cps(market, level, epsilon).feasible


def families() -> None:
    for seed in SEEDS:
        rng = random.Random(seed)
        for depth, arity in ((2, 2), (3, 2), (2, 3)):
            spec = w.martingale_market(rng, depth, arity, rng.choice([Fraction(1, 4), Fraction(1, 2)]))
            market = load_market(spec.doc())
            for level in (Fraction(0), Fraction(1, 8), spec.fee):
                for ac in (False, True):
                    lp, brute = decide(market, level, ac)
                    expect(lp and brute, f"seed {seed}: martingale {depth}/{arity} at {level} ac={ac}: {lp}, {brute}")
            delta = rng.choice([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)])
            lifted = load_market(w.lifted_root(spec, delta).doc())
            for level in (Fraction(0), delta / 2, delta * Fraction(1023, 1024)):
                for ac in (False, True):
                    lp, brute = decide(lifted, level, ac)
                    expect(not lp and not brute, f"seed {seed}: lifted {depth}/{arity} at {level} ac={ac}")
            lp, brute = decide(lifted, delta, True)
            expect(lp and brute, f"seed {seed}: lifted {depth}/{arity} infeasible in ac mode at delta")

            strategy_spec = w.burning_strategy(rng, spec, [Fraction(k, 2) for k in range(-4, 5)], [Fraction(0), Fraction(1, 8)])
            report = check_self_financing(market, load_strategy(strategy_spec.doc(), market.tree))
            expect(report.ok, f"seed {seed}: burning strategy not self-financing")
            expect(dict(report.slack.values) == strategy_spec.burn, f"seed {seed}: slack differs from burns")

        for steps in (4, 8):
            fee = rng.choice(w.PATH_FEES)
            market = load_market(w.path_market(steps, fee).doc())
            threshold = cps_threshold(market)
            expect(fee <= threshold <= fee + w.THRESHOLD_RESOLUTION, f"seed {seed}: path threshold {threshold} vs {fee}")
            lp, _ = decide(market, fee, False)
            expect(lp, f"seed {seed}: path infeasible at its fee")
            lp, _ = decide(market, fee * Fraction(1023, 1024), False)
            expect(not lp, f"seed {seed}: path feasible below its fee")

        for size in w.SMALL_SIZES:
            while True:
                spec = w.martingale_market(rng, rng.choice([2, 3]), w._small_arity, Fraction(1, 4))
                if len(spec.parent) == size:
                    break
            strategy_spec = w.burning_strategy(rng, spec, [Fraction(-1), Fraction(0), Fraction(1), Fraction(2)], [Fraction(0), Fraction(1, 16)])
            x = -min(w.pre_trade_liquidation(spec, strategy_spec, leaf) for leaf in spec.leaves)
            expect(w.first_breach(spec, strategy_spec, x) is None, f"seed {seed}: node-wise bound fails on a martingale market")
            market = load_market(spec.doc())
            verdict = check_admissibility_theorem(market, load_strategy(strategy_spec.doc(), market.tree), x)
            expect(verdict.holds and verdict.hypothesis_ok, f"seed {seed}: theorem verdict on a martingale market")

    for fee in (Fraction(1, 8), Fraction(1, 3), Fraction(3, 4)):
        for steps in (2, 4, 10):
            report = deterministic_counterexample(fee, steps)
            doc = report_to_doc(report)
            for key, want in w.det_constants(fee, steps).items():
                expect(same(doc.get(key), want), f"det {fee}/{steps}: {key} {doc.get(key)} != {want}")
            verdict = check_admissibility_theorem(report.market, report.strategy, 1)
            node, value = w.det_witness(fee, steps)
            expect(verdict.witness.node == node and verdict.witness.value == value, f"det {fee}/{steps}: witness")
            expect(not verdict.hypothesis_ok, f"det {fee}/{steps}: hypothesis met")
    for fee in (Fraction(1, 4), Fraction(2, 3)):
        for up in (Fraction(2), Fraction(16)):
            report = stochastic_counterexample(fee, Fraction(1, 4), up)
            doc = report_to_doc(report)
            constants = w.stoch_constants(fee, Fraction(1, 4), up)
            for key, want in constants.items():
                expect(same(doc.get(key), want), f"stoch {fee}/{up}: {key} {doc.get(key)} != {want}")
            verdict = check_admissibility_theorem(report.market, report.strategy, 1)
            expect(
                verdict.witness.node == 7 and verdict.witness.value == constants["midtime_value"],
                f"stoch {fee}/{up}: witness",
            )


def _bump(doc: dict, key: str) -> None:
    first = next(iter(doc[key]))
    doc[key][first] = w.fr(Fraction(doc[key][first]) + 1)


# one corruption per check kind: (report index, mutation)
CORRUPT = {
    "cps_feasible": (0, lambda d: _bump(d, "S_tilde")),
    "cps_infeasible": (0, lambda d: d.update(feasible=True)),
    "threshold": (0, lambda d: d.update(threshold="1")),
    "validate": (0, lambda d: d.update(strategy_ok=False)),
    "check_strategy": (0, lambda d: _bump(d, "slack")),
    "decompose": (0, lambda d: _bump(d, "cost")),
    "theorem": (0, lambda d: d.update(holds=not d["holds"])),
    "counterexample": (3, lambda d: d.update(midtime_value="-100")),
}


def checker() -> None:
    work = ROOT / ".perfbench-work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    os.chdir(work)
    ops = []
    for builder in (w.cps_ladder, w.linear_large, w.theorem_small):
        ops += builder(random.Random(0), 0, cli.run_command)
    chosen = {}
    for op in ops:
        chosen.setdefault(op.expect["kind"], op)
    expect(set(chosen) == set(CORRUPT), f"op kinds {sorted(chosen)}")
    check = Checker()
    for kind, op in chosen.items():
        code = cli.run_command(op.argv).exit_code
        expect(check.check(op, code) == [], f"{kind}: checker rejects a correct answer: {check.check(op, code)}")
        expect(check.check(op, code + 1) != [], f"{kind}: checker accepts a wrong exit code")
        index, mutate = CORRUPT[kind]
        with open(op.reports[index]) as handle:
            doc = json.load(handle)
        mutate(doc)
        w.write_json(op.reports[index], doc)
        expect(check.check(op, code) != [], f"{kind}: checker accepts a corrupted report")


def main() -> int:
    families()
    checker()
    for error in errors:
        print(f"FAIL {error}")
    print(f"selftest: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
