"""The runtime is the standard library alone: every absolute import in the
package names a standard-library module.  And only the public `Fraction`
API: the private names of `fractions.Fraction` differ across the Python
versions the package supports (3.10 has ``_normalize=``, 3.12
``_from_coprime_ints``), so no source under ``src/`` may name one, as an
attribute, a keyword argument, a variable or a string."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "spreadlab").glob("*.py"))


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    assert SOURCES
    outside = {
        f"{path.name}: {name}"
        for path in SOURCES
        for name in _absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names
    }
    assert not outside


PRIVATE_FRACTION_NAMES = {"_normalize", "_from_coprime_ints", "_numerator", "_denominator"}


def _private_fraction_uses(source: str, filename: str = "<source>"):
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.keyword):
            name = node.arg
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in PRIVATE_FRACTION_NAMES:
            yield f"{filename}:{getattr(node, 'lineno', '?')}: {name}"


def test_package_uses_no_private_fraction_name():
    assert SOURCES
    found = [use for path in SOURCES for use in _private_fraction_uses(path.read_text(), path.name)]
    assert not found


def test_private_fraction_names_are_caught():
    snippets = [
        "Fraction(1, 2, _normalize=False)",
        "Fraction._from_coprime_ints(1, 2)",
        "x._numerator * y._denominator",
        "getattr(x, '_numerator')",
        "from fractions import _normalize",
    ]
    for snippet in snippets:
        assert list(_private_fraction_uses(snippet)), snippet
    assert not list(_private_fraction_uses("x.numerator * y.denominator + Fraction(*x.as_integer_ratio())"))
