"""Static tripwires for test-only surface in the package and for unused
imports.

Every public top-level function or class in `src/operadforge/` must be named
somewhere in the package outside its own definition: as a name, or as an
attribute (`operad.trefoil`).  Code that only tests call belongs with the
tests.
"""

import ast
from pathlib import Path

from operadforge import operad


def test_every_public_definition_has_a_caller_in_the_package():
    package = Path(operad.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    named: dict[str, set[int]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                named.setdefault(node.attr, set()).add(id(node))
    uncalled = []
    for module, tree in trees.items():
        for d in tree.body:
            if not isinstance(d, (ast.FunctionDef, ast.ClassDef)) or d.name.startswith("_"):
                continue
            inside = {id(n) for n in ast.walk(d)}
            if not named.get(d.name, set()) - inside:
                uncalled.append(f"{module}: {d.name}")
    assert uncalled == []


def _unused_imports(path: Path) -> list[str]:
    """The names path imports and never reads, except on a `noqa` line (the
    package's re-exports) and `__future__` imports."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read:
                unused.append(f"{path.name}:{node.lineno}: {name}")
    return unused


def test_no_unused_imports():
    package = Path(operad.__file__).parent
    paths = sorted(package.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    assert [u for path in paths for u in _unused_imports(path)] == []
