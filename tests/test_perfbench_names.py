"""The benchmark in ``perfbench/`` reaches the package by name: its tracer
wraps the functions ``tracing.WRAPPED`` lists, and its self-test imports
names from ``spreadlab``.  A rename in the package breaks the benchmark,
so these tests read both files, without running or changing them, and
look each name up."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _parse(name):
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def _lookup(module, dotted):
    """The object ``module.dotted`` names, or None if any part is missing."""
    obj = importlib.import_module(module)
    for part in dotted.split(".") if dotted else ():
        obj = getattr(obj, part, None)
    return obj


def test_every_traced_function_exists():
    assignments = [
        node for node in _parse("tracing.py").body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["WRAPPED"]
    ]
    assert len(assignments) == 1
    wrapped = ast.literal_eval(assignments[0].value)
    names = [(f"spreadlab.{module}", name) for module, names in wrapped.items() for name in names]
    assert len(names) > 20
    assert [f"{m}.{n}" for m, n in names if not callable(_lookup(m, n))] == []


def test_every_selftest_import_exists():
    names = []
    for node in ast.walk(_parse("selftest.py")):
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "spreadlab":
            names.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            names.extend((alias.name, "") for alias in node.names if alias.name.partition(".")[0] == "spreadlab")
    assert len(names) > 5
    assert [f"{m}.{n}".rstrip(".") for m, n in names if _lookup(m, n) is None] == []
