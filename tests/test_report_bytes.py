"""Report bytes pinned to files written by an earlier version.

Each case runs one CLI command on a small market and compares the report
file, byte for byte, with ``tests/reports/<case>.json``.  A change that
only makes a command faster must leave every one of them alone.  To
rewrite the files after an intended report change, run this module as a
script: ``PYTHONPATH=src python tests/test_report_bytes.py``.
"""

import json
import os
import tempfile
from pathlib import Path

import pytest

from spreadlab.cli import EPSILON_ENV, run_command

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

CASES = {
    # name: (market, argv, exit code, environment)
    "find_cps_equivalent": (SKEWED, ["find-cps", "--lambda", "1/8"], 0, {}),
    "find_cps_low_slide": (LOW_SLIDE, ["find-cps", "--lambda", "1/4"], 0, {}),
    "find_cps_ac_lost_mass": (LOST_MASS, ["find-cps", "--lambda", "1/4", "--ac"], 0, {}),
    "find_cps_ac_off_support": (PINNED, ["find-cps", "--lambda", "0", "--ac"], 0, {}),
    "find_cps_infeasible": (PINNED, ["find-cps", "--lambda", "0"], 3, {}),
    "find_cps_ac_infeasible": (DIP_AND_FLAT, ["find-cps", "--lambda", "0", "--ac"], 3, {}),
    "find_cps_inner_infeasible": (INNER, ["find-cps", "--lambda", "1/8"], 3, {}),
    "threshold_attained": (DIP, ["cps-threshold"], 0, {}),
    "threshold_unattained": (DELICATE, ["cps-threshold"], 0, {}),
    # positive and not attained: at 1/10000 the root's bid 9999/10000 is the
    # top of its children's hull, which node 2 does not reach
    "threshold_positive_unattained": (DIP_AND_FLAT, ["cps-threshold"], 0, {}),
    # the same market, absolutely continuous: node 2 may lose its mass
    "threshold_ac_attained": (DIP_AND_FLAT, ["cps-threshold"], 0, {EPSILON_ENV: "0"}),
    # the market and strategy of `counterexample --variant det`
    "theorem_counterexample": (
        None, ["theorem", "--strategy", "det/strategy.json", "--x", "1"], 1, {},
    ),
}


def run_case(name: str) -> "tuple[int, bytes]":
    """Run one case in the current directory; returns the exit code and
    the report bytes."""
    doc, argv, _, environment = CASES[name]
    if doc is None:
        result = run_command(["counterexample", "--variant", "det", "--out-dir", "det"])
        assert result.exit_code == 0, result.human_summary
        path = "det/market.json"
    else:
        path = f"{name}-market.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    report = f"{name}-report.json"
    os.environ.update(environment)
    try:
        result = run_command([*argv, "--market", path, "--report", report])
    finally:
        for key in environment:
            del os.environ[key]
    assert result.report_path == report, result.human_summary
    return result.exit_code, Path(report).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_unchanged(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(EPSILON_ENV, raising=False)
    code, data = run_case(name)
    assert code == CASES[name][2]
    assert data == (EXPECTED / f"{name}.json").read_bytes()


if __name__ == "__main__":
    # rewrite the expected files from the package on sys.path
    os.environ.pop(EPSILON_ENV, None)
    EXPECTED.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for name in sorted(CASES):
            code, data = run_case(name)
            (EXPECTED / f"{name}.json").write_bytes(data)
            print(f"{name}: exit {code}, {len(data)} bytes")
