"""Source hygiene: every module-level import in the package is used.

A name imported at module level must be read somewhere in its module, be
listed in that module's `__all__`, or be re-exported from that module by the
package `__init__`.  `from __future__` imports are compiler directives, not
names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hho2"


def _imported_names(tree: ast.Module):
    """(bound name, line) for each name bound by a module-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _exported(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _reexported_by_init():
    """{module: names} that the package `__init__` imports from each module."""
    out = {}
    for node in ast.parse((SRC / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            out.setdefault(node.module, set()).update(alias.name for alias in node.names)
    return out


def unused_imports(source: str, reexported=frozenset()):
    tree = ast.parse(source)
    # Names read anywhere, annotations and the roots of attribute chains included.
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _exported(tree) | set(reexported)
    return [(name, line) for name, line in _imported_names(tree) if name not in used and name not in exported]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    reexported = _reexported_by_init().get(path.stem, set())
    assert unused_imports(path.read_text(), reexported) == []


def test_checker_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "from typing import List, Tuple\n"
        "from .a import exported\n"
        "__all__ = ['exported']\n"
        "def f(x: List[int]):\n"
        "    return math.pi\n"
    )
    assert unused_imports(source) == [("Tuple", 3)]
    assert unused_imports(source, reexported={"Tuple"}) == []
