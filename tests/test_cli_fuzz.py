"""Every command survives malformed input: exit code 0-3, never a traceback,
and an exit of 2 always comes with its reason.

The documents of ``counterexample --variant stoch`` are mutated a few
times each (a value replaced by an odd atom, a key deleted or added, a
list element duplicated), the flags take odd texts too, and all seven
commands run on the result.  ``--steps`` is not mutated: a huge even
value asks for a path that long, which exhausts memory rather than
failing.  ``SPREADLAB_EPSILON`` is set in some cases: then every command
that parses must refuse it with exit 2.
"""

import copy
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spreadlab.cli import EPSILON_ENV, run_command

ATOMS = [None, True, 1, -1, 1.5, "1/0", "", [], {}, "7" * 6000]
KEYS = ["id", "parent", "prob", "S", "lambda", "times", "nodes", "node", "phi0", "0", "99", "extra"]
# flag values: a valid one first, then texts that parse to odd or no rationals
TEXTS = ["1/4", "0", "1", "-1", "3/2", "1/0", "", "1.5", "7" * 6000]
DOCUMENTS = ("market", "strategy", "cps")


@pytest.fixture(scope="module")
def seed_documents(tmp_path_factory):
    out = tmp_path_factory.mktemp("stoch")
    assert run_command(["counterexample", "--variant", "stoch", "--out-dir", str(out)]).exit_code == 0
    return {name: json.loads((out / f"{name}.json").read_text()) for name in DOCUMENTS}


def containers(doc):
    """Every object and list in doc, the top level first."""
    found = [doc]
    for item in found:
        values = item.values() if isinstance(item, dict) else item
        found.extend(v for v in values if isinstance(v, (dict, list)))
    return found


@st.composite
def mutated(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(containers(doc)))
        keys = list(target) if isinstance(target, dict) else list(range(len(target)))
        kind = draw(st.sampled_from(["replace", "delete", "add", "duplicate"]))
        if kind == "add" or not keys:
            atom = copy.deepcopy(draw(st.sampled_from(ATOMS)))
            if isinstance(target, dict):
                target[draw(st.sampled_from(KEYS))] = atom
            else:
                target.append(atom)
            continue
        key = draw(st.sampled_from(keys))
        if kind == "replace":
            target[key] = copy.deepcopy(draw(st.sampled_from(ATOMS)))
        elif kind == "delete":
            del target[key]
        elif isinstance(target, list):
            target.insert(key, copy.deepcopy(target[key]))
        else:
            target[key] = copy.deepcopy(draw(st.sampled_from(ATOMS)))
    return doc


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_every_command_exits_with_a_contract_code(seed_documents, data):
    which = data.draw(st.sets(st.sampled_from(DOCUMENTS), min_size=1))
    docs = {
        name: data.draw(mutated(doc)) if name in which else doc
        for name, doc in seed_documents.items()
    }
    text = st.sampled_from(TEXTS)
    epsilon = data.draw(st.sampled_from([None, "0", "1/1000000", "-1", "x"]))
    with tempfile.TemporaryDirectory() as work:
        files = {}
        for name, doc in docs.items():
            files[name] = str(Path(work, f"{name}.json"))
            Path(files[name]).write_text(json.dumps(doc), encoding="utf-8")
        market, strategy, cps = files["market"], files["strategy"], files["cps"]
        variant = data.draw(st.sampled_from(["det", "stoch"]))
        # the deterministic variant refuses the stochastic one's flags
        stochastic = ["--lambda-prime", data.draw(text), "--m-tilde", data.draw(text)]
        flags = {
            "validate": ["--market", market, "--strategy", strategy],
            "check-strategy": [
                "--market", market, "--strategy", strategy, "--mode", data.draw(st.sampled_from(["nb", "nf"])),
            ],
            "find-cps": ["--market", market, "--lambda", data.draw(text)]
            + (["--ac"] if data.draw(st.booleans()) else []),
            "cps-threshold": ["--market", market] + (["--ac"] if data.draw(st.booleans()) else []),
            "decompose": ["--market", market, "--strategy", strategy, "--cps", cps],
            "theorem": ["--market", market, "--strategy", strategy, "--x", data.draw(text)]
            + (["--numeraire-free"] if data.draw(st.booleans()) else [])
            + (["--ac"] if data.draw(st.booleans()) else []),
            "counterexample": [
                "--variant", variant, "--lambda", data.draw(text), "--out-dir", str(Path(work, "cx")),
            ]
            + (stochastic if variant == "stoch" else [])
            + (["--literal-sale"] if variant == "stoch" and data.draw(st.booleans()) else []),
        }
        saved = os.environ.pop(EPSILON_ENV, None)
        if epsilon is not None:
            os.environ[EPSILON_ENV] = epsilon
        try:
            for command, argv in flags.items():
                report = str(Path(work, f"{command}-report.json"))
                result = run_command([command, *argv, "--report", report])
                assert result.exit_code in (0, 1, 2, 3), (command, result)
                assert result.exit_code != 2 or result.human_summary, (command, argv)
                if epsilon is not None:
                    # a usage error, reported as "argument --flag: ...", comes first
                    assert result.exit_code == 2, (command, result)
                    summary = result.human_summary
                    assert EPSILON_ENV in summary or summary.startswith("error: argument "), summary
        finally:
            os.environ.pop(EPSILON_ENV, None)
            if saved is not None:
                os.environ[EPSILON_ENV] = saved
