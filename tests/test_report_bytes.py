"""Report bytes pinned to files written by an earlier version.

Each case runs one CLI command on a small market and compares the report
file, byte for byte, with ``tests/reports/<case>.json``.  A change that
only makes a command faster must leave every one of them alone.  To
rewrite the files after an intended report change, run this module as a
script: ``PYTHONPATH=src python tests/test_report_bytes.py``.
"""

import json
import os
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from spreadlab import cps_to_doc, load_market, market_to_doc, strategy_to_doc
from spreadlab.cli import run_command
from spreadlab.cps import ConsistentPriceSystem
from spreadlab.tree import AdaptedProcess

from helpers import binomial_martingale_market, check_find_cps_report, random_sf_strategy

EXPECTED = Path(__file__).resolve().parent / "reports"


def market(probs_and_prices, times=("0", "1"), fee="1/2"):
    """Market document from (id, parent, prob, S) rows."""
    return {
        "times": list(times),
        "lambda": fee,
        "nodes": [
            {"id": n, "parent": up, "prob": p, "S": s} for n, up, p, s in probs_and_prices
        ],
    }


# two periods, three children under node 1: the children's P-means miss
# their parents' values, so the witness density is not 1
SKEWED = market(
    [
        (0, None, "1", "1"),
        (1, 0, "1/3", "3/2"),
        (2, 0, "2/3", "3/4"),
        (3, 1, "1/2", "2"),
        (4, 1, "1/4", "1"),
        (5, 1, "1/4", "1/2"),
        (6, 2, "1/2", "1"),
        (7, 2, "1/2", "1/4"),
    ],
    times=("0", "1", "2"),
)
# the root sits at the end of its children's hull that only node 1 attains
PINNED = market([(0, None, "1", "2"), (1, 0, "1/3", "2"), (2, 0, "2/3", "1")], fee="0")
# a single path forces one shadow price across the dip to 9999/10000
DIP = market(
    [(0, None, "1", "1"), (1, 0, "1", "9999/10000"), (2, 1, "1", "1")], times=("0", "1", "2")
)
# branch 1 dips to 9999/10000 between two 1s and dies at node 3, emptying
# node 1; the flat branch 2 at 1/2 cannot carry the root's 1 alone
DIP_AND_FLAT = market(
    [
        (0, None, "1", "1"),
        (1, 0, "1/2", "1"),
        (2, 0, "1/2", "1/2"),
        (3, 1, "1", "9999/10000"),
        (4, 2, "1", "1/2"),
        (5, 3, "1", "1"),
        (6, 4, "1", "1/2"),
    ],
    times=("0", "1", "2", "3"),
)
# an equivalent system at every positive level but not at 0
DELICATE = market([(0, None, "1", "1"), (1, 0, "1/2", "1"), (2, 0, "1/2", "2")])
# the same tree at lambda = 0: a martingale measure exists only if node 2 may lose its mass
DELICATE_FREE = {**DELICATE, "lambda": "0"}
# node 1 at 2 over a leaf at 3 is empty below level 1/3, yet the hull of
# its empty box with node 2's [(1 - lambda') / 2, 1/2] covers the root's spread
INNER = market(
    [
        (0, None, "1", "1"),
        (1, 0, "1/2", "2"),
        (2, 0, "1/2", "1/2"),
        (3, 1, "1", "3"),
        (4, 2, "1", "1/2"),
    ],
    times=("0", "1", "2"),
)
# the root takes 7/4, the midpoint of [3/2, 2]; node 2 cannot go below
# 9/4, so the children's P-mean lies above 7/4 and node 1 slides down to 13/8
LOW_SLIDE = market([(0, None, "1", "2"), (1, 0, "4/5", "2"), (2, 0, "1/5", "3")], fee="1/4")
# absolutely continuous: node 1's interval is the point 3/2, which only node
# 3 attains, so node 4 gets no mass and node 1's subtree loses mass; the
# root, at 3/2 too, then puts all its mass on node 1 and none on node 2
LOST_MASS = market(
    [
        (0, None, "1", "2"),
        (1, 0, "4/5", "3/2"),
        (2, 0, "1/5", "1/2"),
        (3, 1, "1/3", "2"),
        (4, 1, "2/3", "3"),
        (5, 2, "2/3", "1/2"),
        (6, 2, "1/3", "1"),
    ],
    times=("0", "1", "2"),
    fee="1/4",
)
# a price that only rises: no martingale measure at lambda = 0
RISING = market([(0, None, "1", "1"), (1, 0, "1", "2")], fee="0")
# two periods at lambda = 1/4 for the strategy reports
TRADED = market(
    [
        (0, None, "1", "2"),
        (1, 0, "1/2", "3"),
        (2, 0, "1/2", "1"),
        (3, 1, "1/2", "4"),
        (4, 1, "1/2", "2"),
        (5, 2, "1/2", "2"),
        (6, 2, "1/2", "1/2"),
    ],
    times=("0", "1", "2"),
    fee="1/4",
)
# buy one at the root; node 1 sells two at the bid 9/4 and goes short,
# throwing 1/2 away; node 2 sells out to flat; node 3 does not trade;
# node 4 covers at the ask 2 with 1/2 it does not have; node 5 stays flat;
# node 6 buys one at the ask 1/2
TRADED_STRATEGY = {
    "holdings": [
        {"node": 0, "phi0": "-2", "phi1": "1"},
        {"node": 1, "phi0": "2", "phi1": "-1"},
        {"node": 2, "phi0": "-5/4", "phi1": "0"},
        {"node": 4, "phi0": "1/2", "phi1": "0"},
        {"node": 6, "phi0": "-7/4", "phi1": "1"},
    ]
}
# a float, a node outside the tree, and a missing stock holding
BAD_STRATEGY = {
    "holdings": [
        {"node": 0, "phi0": 0.5, "phi1": "1"},
        {"node": 9, "phi0": "0", "phi1": "0"},
        {"node": 2, "phi0": "1"},
    ]
}
# TRADED's tree at lambda = 1/2: every spread is [S/2, S]
SPREAD = {**TRADED, "lambda": "1/2"}
# self-financing: buy one at the root at 2; node 1 sells two at the bid
# 3/2 and burns 1/4; node 3 covers at the ask 4; node 5 buys one at 2
SPREAD_STRATEGY = {
    "holdings": [
        {"node": 0, "phi0": "-2", "phi1": "1"},
        {"node": 1, "phi0": "3/4", "phi1": "-1"},
        {"node": 3, "phi0": "-13/4", "phi1": "0"},
        {"node": 5, "phi0": "-4", "phi1": "2"},
    ]
}


def price_system(shadow, density):
    """Price-system document at SPREAD's own cost level."""
    return {
        "S_tilde": {str(n): s for n, s in enumerate(shadow)},
        "Z": {str(n): z for n, z in enumerate(density)},
        "lambda_prime": "1/2",
        "epsilon": "0",
    }


# Q puts 1/4 on node 1 and 1/3 on node 3 below it, so Z is not 1
TILTED = price_system(
    ["5/4", "2", "1", "3", "3/2", "3/2", "1/2"], ["1", "1/2", "3/2", "1/3", "2/3", "3/2", "3/2"]
)
# shadow prices that are P-martingales: Z = 1
UNTILTED = price_system(["3/2", "2", "1", "3", "1", "3/2", "1/2"], ["1"] * 7)



def deep_inputs(seed: int = 255, depth: int = 7, fee=Fraction(1, 4)):
    """A 255-node binomial martingale market, a burning self-financing
    strategy on it, and a price system at its cost level whose measure
    is tilted wherever the tilt keeps the shadow price inside the spread.

    Bottom up, each leaf's shadow price is the middle of its spread and
    each internal node's the mean of its children's under the one-step
    weights, tilted by 1/16 toward the first child when that mean stays
    in the spread, else the plain P-weights.  P's mean always does: the
    children sit in their spreads and S is a P-martingale.  So the value
    processes of a `decompose` carry deep-tree denominators from the
    prices, the strategy and the density alike.
    """
    rng = random.Random(seed)
    market = binomial_martingale_market(rng, depth, fee)
    strategy = random_sf_strategy(rng, market)
    tree, price, keep = market.tree, market.price, 1 - fee
    shadow, weights = {}, {}
    for n in reversed(tree.nodes):
        kids = tree.children[n]
        if not kids:
            shadow[n] = (1 + keep) * price[n] / 2
            continue
        p = [tree.cond_prob[c] for c in kids]
        for q in ([p[0] + Fraction(1, 16), p[1] - Fraction(1, 16)], p):
            mean = sum(w * shadow[c] for w, c in zip(q, kids))
            if 0 < q[1] and keep * price[n] <= mean <= price[n]:
                break
        shadow[n] = mean
        weights.update(zip(kids, q))
    density = {tree.root: Fraction(1)}
    for n in tree.nodes[1:]:
        density[n] = density[tree.parent[n]] * weights[n] / tree.cond_prob[n]
    cps = ConsistentPriceSystem(shadow, AdaptedProcess(density), fee)
    return market_to_doc(market), strategy_to_doc(strategy), cps_to_doc(cps, Fraction(0))


DEEP, DEEP_STRATEGY, DEEP_CPS = deep_inputs()

CASES = {
    # name: (market, argv, exit code)
    "find_cps_equivalent": (SKEWED, ["find-cps", "--lambda", "1/8"], 0),
    "find_cps_low_slide": (LOW_SLIDE, ["find-cps", "--lambda", "1/4"], 0),
    "find_cps_ac_lost_mass": (LOST_MASS, ["find-cps", "--lambda", "1/4", "--ac"], 0),
    "find_cps_ac_off_support": (PINNED, ["find-cps", "--lambda", "0", "--ac"], 0),
    "find_cps_infeasible": (PINNED, ["find-cps", "--lambda", "0"], 3),
    "find_cps_ac_infeasible": (DIP_AND_FLAT, ["find-cps", "--lambda", "0", "--ac"], 3),
    "find_cps_inner_infeasible": (INNER, ["find-cps", "--lambda", "1/8"], 3),
    "threshold_attained": (DIP, ["cps-threshold"], 0),
    "threshold_unattained": (DELICATE, ["cps-threshold"], 0),
    # positive and not attained: at 1/10000 the root's bid 9999/10000 is the
    # top of its children's hull, which node 2 does not reach
    "threshold_positive_unattained": (DIP_AND_FLAT, ["cps-threshold"], 0),
    # the same market, absolutely continuous: node 2 may lose its mass
    "threshold_ac_attained": (DIP_AND_FLAT, ["cps-threshold", "--ac"], 0),
    # the theorem at lambda = 0, whose premise is a martingale measure
    "theorem_frictionless": (RISING, ["theorem", "--strategy", "idle-strategy.json", "--x", "0"], 3),
    # the same premise in the absolutely continuous class: it holds, and
    # exits 3 without --ac
    "theorem_ac": (
        DELICATE_FREE, ["theorem", "--strategy", "idle-strategy.json", "--x", "0", "--ac"], 0,
    ),
    # the market and strategy of `counterexample --variant det`
    "theorem_counterexample": (None, ["theorem", "--strategy", "det/strategy.json", "--x", "1"], 1),
    "validate_bad_strategy": (TRADED, ["validate", "--strategy", "bad-strategy.json"], 2),
    "check_strategy_nb": (
        TRADED, ["check-strategy", "--strategy", "traded-strategy.json", "--mode", "nb"], 1,
    ),
    "check_strategy_nf": (
        TRADED, ["check-strategy", "--strategy", "traded-strategy.json", "--mode", "nf"], 1,
    ),
    "decompose_tilted": (
        SPREAD,
        ["decompose", "--strategy", "spread-strategy.json", "--cps", "tilted-cps.json"],
        0,
    ),
    "decompose_untilted": (
        SPREAD,
        ["decompose", "--strategy", "spread-strategy.json", "--cps", "untilted-cps.json"],
        0,
    ),
    # 255 nodes: the denominators of a deep tree, byte for byte
    "check_strategy_deep_nf": (
        DEEP, ["check-strategy", "--strategy", "deep-strategy.json", "--mode", "nf"], 0,
    ),
    "decompose_deep": (
        DEEP, ["decompose", "--strategy", "deep-strategy.json", "--cps", "deep-cps.json"], 0,
    ),
}
# the other input files a case may read, written beside its market
INPUTS = {
    "idle-strategy.json": {"holdings": []},  # no trade anywhere
    "bad-strategy.json": BAD_STRATEGY,
    "traded-strategy.json": TRADED_STRATEGY,
    "spread-strategy.json": SPREAD_STRATEGY,
    "tilted-cps.json": TILTED,
    "untilted-cps.json": UNTILTED,
    "deep-strategy.json": DEEP_STRATEGY,
    "deep-cps.json": DEEP_CPS,
}


def run_case(name: str) -> "tuple[int, bytes]":
    """Run one case in the current directory; returns the exit code and
    the report bytes."""
    doc, argv, _ = CASES[name]
    if doc is None:
        result = run_command(["counterexample", "--variant", "det", "--out-dir", "det"])
        assert result.exit_code == 0, result.human_summary
        path = "det/market.json"
    else:
        path = f"{name}-market.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        for input_name, input_doc in INPUTS.items():
            with open(input_name, "w", encoding="utf-8") as handle:
                json.dump(input_doc, handle)
    report = f"{name}-report.json"
    result = run_command([*argv, "--market", path, "--report", report])
    assert result.report_path == report, result.human_summary
    return result.exit_code, Path(report).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_unchanged(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    code, data = run_case(name)
    assert code == CASES[name][2]
    assert data == (EXPECTED / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(name for name in CASES if name.startswith("find_cps_")))
def test_find_cps_report_checks_from_its_bytes(name):
    doc, _, code = CASES[name]
    report = json.loads((EXPECTED / f"{name}.json").read_bytes())
    assert check_find_cps_report(load_market(doc), report) is (code == 0)


if __name__ == "__main__":
    # rewrite the expected files from the package on sys.path
    EXPECTED.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for name in sorted(CASES):
            code, data = run_case(name)
            (EXPECTED / f"{name}.json").write_bytes(data)
            print(f"{name}: exit {code}, {len(data)} bytes")
