"""The package's export list names each public object once, each resolves, and each
export and each module-level function and class has a caller inside the package."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import gwdesc

PACKAGE = Path(gwdesc.__file__).resolve().parent

# exports kept without a caller in the package, each until the change that gives it one
UNCALLED = {
    # the benchmark's tracer times the primary-only route through this name (ROADMAP item 1)
    "two_point_from_primaries",
    # the divisor rule of the genus-0 TRR route differentiates by D·beta (ROADMAP item 13)
    "derivative_q",
}


def test_every_exported_name_resolves_once():
    assert [name for name, count in Counter(gwdesc.__all__).items() if count > 1] == []
    assert [name for name in gwdesc.__all__ if not hasattr(gwdesc, name)] == []


def _references(node: ast.AST, checked: set[str], enclosing: tuple[str, ...], found: set[str]) -> None:
    """Add to ``found`` each checked name that ``node`` reads, imports or calls outside
    the definition of that same name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing += (node.name,)
    names = []
    if isinstance(node, ast.Name):
        names = [node.id]
    elif isinstance(node, ast.Attribute):
        names = [node.attr]
    elif isinstance(node, ast.ImportFrom):
        names = [alias.name for alias in node.names]
    found.update(name for name in names if name in checked and name not in enclosing)
    for child in ast.iter_child_nodes(node):
        _references(child, checked, enclosing, found)


def test_every_export_has_a_caller_in_the_package():
    # private helpers included, so a helper that a merge leaves without a caller fails here
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    defined = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    checked = set(gwdesc.__all__) | defined
    found: set[str] = set()
    for name, tree in trees.items():
        if name != "__init__.py":
            _references(tree, checked, (), found)
    assert sorted(checked - found - UNCALLED) == []
    # an allowlisted name that gained a caller, or left the exports, leaves the list
    assert sorted(UNCALLED & found) == [] and UNCALLED <= set(gwdesc.__all__)
