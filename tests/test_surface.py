"""A static tripwire for test-only surface in the package.

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
