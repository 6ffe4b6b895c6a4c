"""Source hygiene: no unused module-level imports and no orphaned helpers.

A name imported at module level must be read somewhere in its module, be
listed in that module's `__all__`, or be re-exported from that module by the
package `__init__`.  `from __future__` imports are compiler directives, not
names.

A module-level private function or class (one leading underscore) must be
referenced somewhere in the package outside its own definition: read as a
name, imported, or reached as an attribute.  Tests do not count, so a helper
kept alive only by its tests is flagged.

sympy and mpmath are imported only inside the one function that needs each,
never at module level, so no other path loads them.

A module imports its hho2 siblings at module level only, never inside a
function or class, so the order in which the modules depend on each other
is read off their headers.

Every name the package exports is read somewhere in the package outside its
own definition, is read by the benchmark harness, or is named in the README
section "Library use"; an export that none of these reach is dead API.
"""

import ast
import functools
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hho2"


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


def private_definitions(tree: ast.Module):
    """Module-level functions and classes named with one leading underscore."""
    for node in tree.body:
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and not node.name.startswith("__")
        ):
            yield node


def name_counts(tree: ast.AST) -> Counter:
    """How often each name is read, imported or used as an attribute in tree."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias):
            counts[node.name] += 1
    return counts


def orphaned_private_definitions(sources):
    """(module, name) of each private definition that nothing else references.

    sources maps a module name to its source text.  A use inside the
    definition itself, such as a recursive call, does not count.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    total = sum((name_counts(tree) for tree in trees.values()), Counter())
    return [
        (module, node.name)
        for module, tree in trees.items()
        for node in private_definitions(tree)
        if total[node.name] == name_counts(node)[node.name]
    ]


@functools.lru_cache(maxsize=None)
def _package_orphans():
    return orphaned_private_definitions({path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))})


@pytest.mark.parametrize(
    "module, name",
    [
        (path.stem, node.name)
        for path in sorted(SRC.glob("*.py"))
        for node in private_definitions(ast.parse(path.read_text()))
    ],
)
def test_private_definition_is_referenced(module, name):
    assert (module, name) not in _package_orphans()


def test_checker_flags_an_orphaned_private_definition():
    sources = {
        "a": (
            "def _used():\n"
            "    return 1\n"
            "def _recursive(k):\n"
            "    return _recursive(k - 1) if k else 0\n"
            "class _Helper:\n"
            "    pass\n"
            "def public():\n"
            "    return _used()\n"
        ),
        "b": "from .a import _Helper\n",
    }
    assert orphaned_private_definitions(sources) == [("a", "_recursive")]


# Each optional heavy dependency and the (module, function) it may be
# imported in; a module-level import is never allowed.
LAZY_IMPORTS = {
    "sympy": {("poly", "_gcd_via_sympy")},
    "mpmath": {("diagnostics", "_float_diag")},
}


def lazy_imports(sources):
    """(module, enclosing function or None, line, package) for each import
    statement of a `LAZY_IMPORTS` package; the function is the dotted name of
    the innermost enclosing definition, None at module level."""
    out = []

    def visit(module, node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(module, child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Import):
                roots = [alias.name.split(".")[0] for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                roots = [child.module.split(".")[0]]
            else:
                roots = []
            out.extend((module, scope, child.lineno, root) for root in roots if root in LAZY_IMPORTS)
            visit(module, child, scope)

    for module, text in sources.items():
        visit(module, ast.parse(text), None)
    return out


def misplaced(sites):
    """The sites of `lazy_imports` outside the functions `LAZY_IMPORTS` allows."""
    return [site for site in sites if site[:2] not in LAZY_IMPORTS[site[3]]]


def test_heavy_dependencies_are_imported_only_where_needed():
    sites = lazy_imports({path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))})
    assert misplaced(sites) == []
    # Every allowed place still imports its package, so the table is not stale.
    assert {package: {site[:2] for site in sites if site[3] == package} for package in LAZY_IMPORTS} == LAZY_IMPORTS


def test_checker_flags_a_module_level_heavy_import():
    sources = {
        "poly": (
            "import os, sympy.polys\n"
            "def _gcd_via_sympy(f, g):\n"
            "    import sympy\n"
            "    return sympy\n"
        ),
        "diagnostics": (
            "try:\n"
            "    from mpmath import mp\n"
            "except ImportError:\n"
            "    mp = None\n"
            "def _float_diag():\n"
            "    import mpmath\n"
            "class Report:\n"
            "    def floats(self):\n"
            "        from mpmath import matrix\n"
        ),
    }
    assert misplaced(lazy_imports(sources)) == [
        ("poly", None, 1, "sympy"),
        ("diagnostics", None, 2, "mpmath"),
        ("diagnostics", "Report.floats", 9, "mpmath"),
    ]


def _names_hho2(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return bool(node.level) or node.module.split(".")[0] == "hho2"
    return isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "hho2" for alias in node.names)


def nested_sibling_imports(sources):
    """(module, top-level definition, line) for each import of an hho2 module
    inside a function or class body."""
    return [
        (module, top.name, node.lineno)
        for module, text in sources.items()
        for top in ast.parse(text).body
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for node in ast.walk(top)
        if _names_hho2(node)
    ]


def test_sibling_modules_are_imported_at_module_level():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert nested_sibling_imports(sources) == []


def test_checker_flags_a_nested_sibling_import():
    sources = {
        "systems": (
            "from .linalg import pfaffian\n"
            "import hho2.poly\n"
            "def report(points):\n"
            "    import json\n"
            "    from sympy import Poly\n"
            "    if points:\n"
            "        from .diagnostics import sqrt_charpoly_at\n"
            "class System:\n"
            "    def kernel(self):\n"
            "        from . import linalg\n"
            "        from hho2.poly import rat\n"
            "        import hho2.linalg as la\n"
        ),
    }
    assert nested_sibling_imports(sources) == [
        ("systems", "report", 7),
        ("systems", "System", 10),
        ("systems", "System", 11),
        ("systems", "System", 12),
    ]


def read_counts(tree: ast.AST) -> Counter:
    """How often each name is read in tree: loaded as a name or reached as an
    attribute.  Definitions, assignments and imports are not reads."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
    return counts


def unused_exports(exports, sources, outside=frozenset(), documented=""):
    """The names of `exports` that no module of `sources` reads outside the
    name's own definition, that are not in `outside` (the names read by other
    code) and that do not appear as a word in `documented`.  Dunder names are
    package metadata, not API, and are skipped."""
    trees = [ast.parse(text) for text in sources.values()]
    total = sum((read_counts(tree) for tree in trees), Counter())
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                total[node.name] -= read_counts(node)[node.name]
    return [
        name
        for name in exports
        if not name.startswith("__")
        and total[name] <= 0
        and name not in outside
        and not re.search(rf"\b{re.escape(name)}\b", documented)
    ]


def _library_use_section() -> str:
    text = (ROOT / "README.md").read_text()
    return text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def test_every_export_is_used():
    exports = _exported(ast.parse((SRC / "__init__.py").read_text()))
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    harness = sum((read_counts(ast.parse(path.read_text())) for path in sorted((ROOT / "perfbench").glob("*.py"))),
                  Counter())
    assert unused_exports(sorted(exports), sources, set(harness), _library_use_section()) == []


def test_checker_flags_an_unused_export():
    sources = {
        "a": (
            "VALUE = 1\n"
            "def used():\n"
            "    return VALUE\n"
            "def recursive(k):\n"
            "    return recursive(k - 1) if k else 0\n"
            "class Node:\n"
            "    def copy(self):\n"
            "        return Node()\n"
            "def benched():\n"
            "    pass\n"
            "def documented():\n"
            "    pass\n"
        ),
        "b": "from .a import used\nused()\n",
        "__init__": (
            "from .a import VALUE, Node, benched, documented, recursive, used\n"
            "__version__ = '1'\n"
            "__all__ = ['VALUE', 'Node', 'benched', 'documented', 'recursive', 'used', '__version__']\n"
        ),
    }
    exports = sorted(_exported(ast.parse(sources["__init__"])))
    assert unused_exports(exports, sources) == ["Node", "benched", "documented", "recursive"]
    assert unused_exports(exports, sources, {"benched"}, "`documented()` is library API") == ["Node", "recursive"]



# The places a two-index skew pattern may be written out by hand:
# `_index_pairs` holds the one pair order and `_skew_fill` the one mirror,
# `skew_dense` writes the three-index table, and the eigenvalue pencil of
# `sqrt_charpoly_at` holds coefficient lists, so its mirror negates a list.
SKEW_SITES = {
    ("linalg", "_index_pairs"),
    ("linalg", "_skew_fill"),
    ("threeform", "skew_dense"),
    ("diagnostics", "sqrt_charpoly_at"),
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scope_nodes(node):
    """The nodes under node, a nested definition included but not its body."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, _DEFINITIONS):
            yield from _scope_nodes(child)


def _mirror_keys(node):
    """The keys of a subscript x[a][b] and of its mirror x[b][a], or None;
    x[a][a] is its own mirror, so None too."""
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Subscript):
        base, a, b = ast.dump(node.value.value), ast.dump(node.value.slice), ast.dump(node.slice)
        if a != b:
            return (base, a, b), (base, b, a)
    return None


def _stores(statement):
    """(target, value) for each target of an assignment, a tuple target
    matched element by element with a tuple value."""
    for target in statement.targets:
        value = statement.value
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple) and len(value.elts) == len(target.elts):
            yield from zip(target.elts, value.elts)
        else:
            yield target, value


def _is_pair_combinations(node) -> bool:
    """Whether node is a call combinations(range(...), 2)."""
    if not (isinstance(node, ast.Call) and len(node.args) == 2):
        return False
    func, (first, second) = node.func, node.args
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return (name == "combinations" and isinstance(first, ast.Call) and getattr(first.func, "id", None) == "range"
            and isinstance(second, ast.Constant) and second.value == 2)


def skew_patterns(sources):
    """(module, enclosing function or None, line) of each hand-written
    two-index skew pattern: a call combinations(range(...), 2), or a store to
    x[a][b] in a function that stores a different value to x[b][a], or the
    store of -x[b][a] itself.  A symmetric fill, one value on both sides, is
    not skew.  The function is the dotted name of the innermost definition."""
    out = set()

    def visit(module, node, scope):
        stores = {}
        for child in _scope_nodes(node):
            if isinstance(child, _DEFINITIONS):
                visit(module, child, f"{scope}.{child.name}" if scope else child.name)
            elif _is_pair_combinations(child):
                out.add((module, scope, child.lineno))
            elif isinstance(child, ast.Assign):
                for target, value in _stores(child):
                    keys = _mirror_keys(target)
                    if keys is None:
                        continue
                    if isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.USub) \
                            and _mirror_keys(value.operand) == keys[::-1]:
                        out.add((module, scope, child.lineno))
                    stores.setdefault(keys, []).append((ast.dump(value), child.lineno))
        for (key, mirrored), found in stores.items():
            others = [value for value, _ in stores.get((mirrored, key), ())]
            out.update((module, scope, line) for value, line in found if any(other != value for other in others))

    for module, text in sources.items():
        visit(module, ast.parse(text), None)
    return sorted(out, key=lambda site: (site[0], site[2]))


def test_skew_patterns_are_written_in_one_place():
    sites = skew_patterns({path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))})
    assert [site for site in sites if site[:2] not in SKEW_SITES] == []
    # Every allowed place still holds its pattern, so the table is not stale.
    assert {site[:2] for site in sites} == SKEW_SITES


def test_checker_flags_a_hand_written_skew_pattern():
    sources = {
        "a": (
            "from itertools import combinations\n"
            "def fill(n, xs):\n"
            "    rows = [[0] * n for _ in range(n)]\n"
            "    for (i, j), x in zip(combinations(range(n), 2), xs):\n"
            "        rows[i][j] = x\n"
            "        rows[j][i] = -x\n"
            "    return rows\n"
            "def symmetric(s, p, l, value):\n"
            "    s[p][l] = value\n"
            "    s[l][p] = value\n"
            "    return combinations(range(4), 3)\n"
            "class M:\n"
            "    def mirror(self, i, j):\n"
            "        self.m[j][i] = -self.m[i][j]\n"
            "        self.m[i][i] = -self.m[i][i]\n"
            "    def swap(self, out, i, j, x):\n"
            "        out[i][j], out[j][i] = x, -x\n"
        ),
    }
    assert skew_patterns(sources) == [
        ("a", "fill", 4),
        ("a", "fill", 5),
        ("a", "fill", 6),
        ("a", "M.mirror", 14),
        ("a", "M.swap", 17),
    ]
