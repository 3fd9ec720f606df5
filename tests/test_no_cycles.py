"""A tripwire for reference cycles in the checking code.

Every intermediate term the normalizer builds should be freed by reference
counting when the call that built it returns.  A recursive nested function
is one reference cycle per call (the function's closure cell holds the
function), which keeps its arguments and partial results alive until the
cyclic collector runs; over criterion 11's checks those collections stall
single operations for milliseconds.  So with the collector off, a run of
equivariance checks and every axiom row must leave no cyclic garbage.
The CLI's parser is left out: argparse makes cycles of its own.

The package's modules form no import cycle either: each imports only the
modules below it in `LAYERS`, and only at module level.
"""

import ast
import gc
from pathlib import Path

from test_equivariance import checks
from test_operad import group_action
from operadforge import comb, operad, terms
from operadforge.normalize import Verdict

# The package's modules, lowest first; the entry modules sit above the layers.
LAYERS = (
    "braids", "terms", "normalize", "comb", "operad", "acceptance", "cli",
    "__init__", "__main__",
)


def test_checks_and_axiom_rows_leave_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        for f, gs, s in checks(200, seed=3):
            assert operad.check_equivariance(f, gs, s, comb.BCPMI) is Verdict.EQUAL
            acted = group_action(f, s, comb.BCPMI).elem
            comb.format_cterm(acted)
            terms.pretty(comb.comb_normal_form(acted, comb.BCPMI))
        for sig in comb.SIGNATURES.values():
            for ax in comb.AXIOM_TABLES[sig.tag]:
                report = comb.run_axiom(ax, sig, samples=2)
                assert report.status == "pass", report
        garbage = gc.collect()
        assert garbage == 0, f"{garbage} objects of cyclic garbage"
    finally:
        gc.enable()


def test_no_recursive_nested_function_in_the_package():
    # the static form of the rule, for the code the run above does not reach:
    # no nested function names a function nested beside it, itself included
    package = Path(operad.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text())):
            if not isinstance(outer, ast.FunctionDef):
                continue
            nested = [f for f in ast.walk(outer) if isinstance(f, ast.FunctionDef)][1:]
            names = {f.name for f in nested}
            for f in nested:
                used = {n.id for n in ast.walk(f) if isinstance(n, ast.Name)}
                found += [f"{path.name}: {outer.name}.{f.name} names {g}" for g in used & names]
    assert found == []


def _imported(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The package modules an import statement names, by file stem."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif node.level == 0:
        names = [node.module]
    elif node.module is None:
        names = [f"operadforge.{a.name}" for a in node.names]
    else:
        names = [f"operadforge.{node.module}"]
    parts = [n.split(".") for n in names]
    return [p[1] if len(p) > 1 else "__init__" for p in parts if p[0] == "operadforge"]


def test_each_module_imports_only_the_layers_below_it():
    package = Path(operad.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        assert path.stem in LAYERS, f"{path.name} has no place in LAYERS"
        tree = ast.parse(path.read_text())
        local = {
            id(n)
            for f in ast.walk(tree)
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            for n in ast.walk(f)
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            where = f"{path.name}:{node.lineno}"
            if id(node) in local:
                found.append(f"{where} imports inside a function")
            for name in _imported(node):
                if LAYERS.index(name) >= LAYERS.index(path.stem):
                    found.append(f"{where} imports {name}, not below {path.stem}")
    assert found == []
