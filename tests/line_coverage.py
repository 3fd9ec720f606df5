"""The statements of `src/operadforge/` that Tier-1 never runs.

Runs the Tier-1 suite in this process under a `sys.settrace` line tracer
that records only frames whose code lives in `src/operadforge/`, then prints,
module by module, each statement none of whose own lines ran (a compound
statement's own lines are its header, not its body).  A statement with no
bytecode, such as a docstring, is never listed.  It needs no package beyond
pytest.  It is a script, not a collected test; extra arguments go to pytest:

    PYTHONPATH=src python tests/line_coverage.py [pytest args]

Something in the run clears the trace function (hypothesis installs its own
tracer for some phases), so a `pytest_runtest_call` hookwrapper installs it
again before each test; without that, most of `cli.py` reads as unrun.  A
test can still lose it during its call: Python removes a trace function that
raises, and a `RecursionError` overflows the tracer too.  The hookwrapper
checks after each call, and the report names every test that lost it, since
the statements such a test reached after the loss read as unrun.
"""

from __future__ import annotations

import ast
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "operadforge"

# The lines run, by code path as the frames name it, and whether a code
# path is the package's.
_ran: dict[str, set[int]] = {}
_ours: dict[str, bool] = {}
# The tests whose call ended without the tracer installed.
_lost: list[str] = []


def _local(frame, event, arg):
    if event == "line":
        _ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    path = frame.f_code.co_filename
    ours = _ours.get(path)
    if ours is None:
        ours = _ours[path] = Path(path).resolve().parent == PACKAGE
    if not ours:
        return None
    _ran.setdefault(path, set()).add(frame.f_lineno)
    return _local


class _Reinstall:
    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        sys.settrace(_global)
        yield
        if sys.gettrace() is not _global:
            _lost.append(item.nodeid)


def _code_lines(code: types.CodeType, out: set[int]) -> None:
    out.update(line for _, _, line in code.co_lines() if line)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            _code_lines(const, out)


def _own_lines(stmt: ast.stmt) -> set[int]:
    """stmt's lines less those of the statements nested in it."""
    lines = set(range(stmt.lineno, stmt.end_lineno + 1))
    for child in ast.walk(stmt):
        if child is not stmt and isinstance(child, ast.stmt):
            lines -= set(range(child.lineno, child.end_lineno + 1))
    return lines


def unrun(path: Path, ran: set[int]) -> list[tuple[int, str]]:
    """(line, source) of each statement of path with bytecode and no line run."""
    source = path.read_text()
    executable: set[int] = set()
    _code_lines(compile(source, str(path), "exec"), executable)
    lines = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            own = _own_lines(node)
            if own & executable and not own & ran:
                out.append((node.lineno, lines[node.lineno - 1].strip()))
    return sorted(out)


def main(argv: list[str]) -> int:
    sys.settrace(_global)
    code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                        str(ROOT), *argv], plugins=[_Reinstall()])
    sys.settrace(None)
    ran: dict[Path, set[int]] = {}
    for name, lines in _ran.items():
        ran.setdefault(Path(name).resolve(), set()).update(lines)
    for path in sorted(PACKAGE.glob("*.py")):
        missed = unrun(path, ran.get(path, set()))
        print(f"{path.name}: {len(missed)} statements never run")
        for line, text in missed:
            print(f"  {line:4d}  {text}")
    print(f"tests that lost the tracer, so that what each reached after the loss reads as unrun: {len(_lost)}")
    for nodeid in _lost:
        print(f"  {nodeid}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
