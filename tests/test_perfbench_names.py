"""The benchmark in ``perfbench/`` reaches the package by name: its tracer
wraps the functions ``tracing.WRAPPED`` lists, and its self-test, answer
checker and worker import names from ``spreadlab``.  A rename in the
package breaks the benchmark, so these tests read those files, without
running or changing them, and look each name up.  The workload builder
and the entry point must import nothing from the package."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _parse(name):
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def _lookup(module, dotted):
    """The object ``module.dotted`` names, or None if any part is missing."""
    obj = importlib.import_module(module)
    for part in dotted.split(".") if dotted else ():
        obj = getattr(obj, part, None)
    return obj


def _traced():
    """Every (module, name) that ``tracing.WRAPPED`` lists."""
    assignments = [
        node for node in _parse("tracing.py").body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["WRAPPED"]
    ]
    assert len(assignments) == 1
    wrapped = ast.literal_eval(assignments[0].value)
    return [(f"spreadlab.{module}", name) for module, names in wrapped.items() for name in names]


def test_every_traced_function_exists():
    names = _traced()
    assert len(names) > 20
    assert [f"{m}.{n}" for m, n in names if not callable(_lookup(m, n))] == []


def test_every_traced_method_is_static():
    """``Tracer.install`` unwraps a "Class.method" name as
    ``cls.__dict__[attr].__func__`` and puts back a staticmethod, so each
    must be a staticmethod in its class's own ``__dict__``: a classmethod
    or a plain function would break only the traced run."""
    methods = [(m, *n.split(".")) for m, n in _traced() if "." in n]
    assert methods
    assert [
        f"{m}.{cls}.{attr}" for m, cls, attr in methods
        if not isinstance(vars(_lookup(m, cls)).get(attr), staticmethod)
    ] == []


def _spreadlab_imports(script):
    """Every (module, name) that ``script`` imports from ``spreadlab``; a
    plain ``import spreadlab...`` gives the name ""."""
    names = []
    for node in ast.walk(_parse(script)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "spreadlab":
            names.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            names.extend((alias.name, "") for alias in node.names if alias.name.partition(".")[0] == "spreadlab")
    return names


@pytest.mark.parametrize(
    "script, least", [("selftest.py", 6), ("check.py", 3), ("worker.py", 1)], ids=["selftest.py", "check.py", "worker.py"]
)
def test_every_spreadlab_import_exists(script, least):
    names = _spreadlab_imports(script)
    assert len(names) >= least
    assert [f"{m}.{n}".rstrip(".") for m, n in names if _lookup(m, n) is None] == []


@pytest.mark.parametrize("script", ["workloads.py", "run.py"])
def test_answer_key_and_entry_point_import_no_spreadlab(script):
    """The workloads' expected answers come from the construction, never
    from the code they check, and the entry point only starts workers, so
    neither file imports the package, by a statement or by name."""
    assert _spreadlab_imports(script) == []
    calls = [
        node for node in ast.walk(_parse(script))
        if isinstance(node, ast.Call) and any(
            isinstance(arg, ast.Constant) and str(arg.value).partition(".")[0] == "spreadlab" for arg in node.args
        )
    ]
    assert calls == []
