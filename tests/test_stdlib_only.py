"""The runtime is the standard library alone: every absolute import in the
package names a standard-library module.  And only the public `Fraction`
API: the private names of `fractions.Fraction` differ across the Python
versions the package supports (3.10 has ``_normalize=``, 3.12
``_from_coprime_ints``), so no source under ``src/`` may name one, as an
attribute, a keyword argument, a variable or a string.  And no dead code:
every top-level function or class is used somewhere else in the package
or exported in ``spreadlab.__all__``."""

import ast
import sys
from pathlib import Path

import spreadlab

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



_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node):
    """Every name ``node`` uses: variables, attributes and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _unreferenced_definitions(sources: dict, exported=()):
    """``file: name`` of each top-level function or class in ``sources``
    (file name to text) that no code outside its own body names and that
    ``exported`` leaves out."""
    defined, used = [], set()
    for filename, source in sources.items():
        for top in ast.parse(source, filename=filename).body:
            own = top.name if isinstance(top, _DEFINITIONS) else None
            if own is not None:
                defined.append((filename, own))
            used.update(name for name in _names(top) if name != own)
    return [f"{filename}: {name}" for filename, name in defined if name not in used and name not in exported]


def test_package_defines_nothing_unused():
    assert SOURCES
    sources = {path.name: path.read_text() for path in SOURCES}
    assert not _unreferenced_definitions(sources, spreadlab.__all__)


def test_unused_definitions_are_caught():
    sources = {
        "a.py": "def used(): pass\n"
                "def recursive(n): return recursive(n - 1)\n"
                "class Exported: pass\n",
        "b.py": "from .a import used\n"
                "def caller(): return used()\n",
    }
    found = _unreferenced_definitions(sources, exported=["Exported"])
    assert found == ["a.py: recursive", "b.py: caller"]
