"""Behaviour contract: the CLI prints exactly the recorded output in
tests/golden/, byte for byte.

`--json axioms <sig>` is pinned per signature; `cli.json` pins the exit code,
stdout and stderr of each invocation in `CLI_ARGVS`.  `suite.json` holds
`operadforge --json suite`'s output, which `test_acceptance.py` compares
each criterion's result with, so that no extra battery run is needed.  To
record `cli.json` again from the current code (only when an output change is
intended):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from operadforge.cli import main

GOLDEN = Path(__file__).parent / "golden"
CLI_GOLDEN = GOLDEN / "cli.json"

# Every subcommand that reads terms, across all signatures and disciplines,
# with each exit code: 0 success, 1 error, 2 fuel exhaustion, 3 Tr equality.
CLI_ARGVS = [
    # abstract, per signature: weakening, contraction, exchange, closed
    # coefficients and the planar order condition.
    ["abstract", "-s", "bibullet", "x a"],
    ["abstract", "-s", "bibullet", "x0 (a x1)"],
    ["abstract", "-s", "bibullet", "(x0 a*) x1"],
    ["abstract", "-s", "bibullet", "x1 x0"],
    ["abstract", "-s", "bibullet", "x0 a"],
    ["abstract", "-s", "bci", "--certify", "a x0 x1"],
    ["abstract", "-s", "bci", "x1 x0"],
    ["abstract", "-s", "bci", "x0 x0"],
    ["abstract", "-s", "bci", "x1"],
    ["abstract", "-s", "bcpmi", "x1 x0"],
    ["abstract", "-s", "bcpmi", "--certify", "x0 a x1"],
    ["abstract", "-s", "bcpmi", "x0 x0"],
    ["abstract", "-s", "bciwk", "(x0 x2) (x1 x2)"],
    ["abstract", "-s", "bciwk", "x0 x0"],
    ["abstract", "-s", "bciwk", "--certify", "x2 x0"],
    ["abstract", "-s", "bciwk", "a"],
    # norm, per discipline, with primitive names resolved.
    ["norm", "-d", "planar", "B I"],
    ["norm", "-d", "planar", "C M N"],
    ["norm", "-d", "planar", "--tree", r"\f x. f x"],
    ["norm", "-d", "linear", "C M N"],
    ["norm", "-d", "linear", r"\f x. f x x"],
    ["norm", "-d", "braided", "C+ M N"],
    ["norm", "-d", "braided", "C+ o C+"],
    ["norm", "-d", "braided", r"\x y. [{2; 1}] (y x)"],
    ["norm", "-d", "braided", "W M"],
    ["norm", "-d", "cartesian", "W K M"],
    ["norm", "-d", "cartesian", "C+ M"],
    ["--fuel", "50", "norm", "-d", "cartesian", r"(\x. x x) (\x. x x)"],
    # a braid wider than its body, an unknown discipline and fuel below 1.
    ["norm", "-d", "braided", "[{3; 1}] c"],
    ["norm", "-d", "nope", "x"],
    ["--fuel", "0", "norm", "-d", "planar", "x"],
    # eq, by discipline and by signature.
    ["eq", "-d", "planar", "B I", "I"],
    ["eq", "-d", "linear", "C (C M)", "M"],
    ["eq", "-d", "braided", "C+ (C- M)", "M"],
    ["eq", "-d", "braided", "C+ (C+ M)", "M"],
    # the pending braid reaches an argument that rides every strand
    ["eq", "-d", "braided", r"\x y. [{2; 1}] (c (y x))", r"\x y. [{2; -1}] (c (y x))"],
    # function parts of different wire counts hold braids of different widths
    ["eq", "-d", "braided", r"\x y. h (\z. [{3; 1}] (g x z y)) c",
     r"\x y. h (\z. [{2; 1}] (g z x)) (k y)"],
    ["eq", "-d", "cartesian", "W K", "I"],
    ["--fuel", "30", "eq", "-d", "cartesian", r"(\x. x x) (\x. x x)", r"\y. y"],
    ["eq", "-s", "bibullet", "B I", "I"],
    ["eq", "-s", "bibullet", "C", "C"],
    ["eq", "-s", "bci", "C o C", "I"],
    ["eq", "-s", "bcpmi", "C+", "C-"],
    ["eq", "-s", "bcpmi", "Tr (Tr (C+ o C+ o C+))", "I"],
    ["eq", "-s", "bciwk", "W o K", "I"],
    ["eq", "a", "b"],
    ["eq", "-s", "nope", "x", "y"],
    # member, per signature.
    ["member", "-s", "bibullet", "a* o B", "1"],
    ["member", "-s", "bci", "C o B", "2"],
    ["member", "-s", "bcpmi", "C+ o B", "2"],
    ["member", "-s", "bcpmi", "C+", "2"],
    ["member", "-s", "bciwk", "W o B", "1"],
    # compose and arity.
    ["compose", "-s", "bibullet", "B", "a*", "b*"],
    ["compose", "-s", "bcpmi", "--verify", "C+ o B", "I", "a*"],
    ["compose", "-s", "bci", "B", "C"],
    ["arity", "B"],
    ["arity", "-s", "bcpmi", "C+"],
    ["arity", "--bound", "2", "C I"],
    # braid, with a negative width.
    ["braid", "cable", "{2; 1}", "-1", "1"],
    # trace syntax.
    ["trace", "trefoil"],
    ["trace", "eta"],
    ["trace", "eps"],
]


def run_cli(argv: list[str]) -> list:
    """[exit code, stdout, stderr] of one CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return [code, out.getvalue(), err.getvalue()]


@pytest.mark.parametrize("sig", ["BIbullet", "BCI", "BCpmI", "BCIWK"])
def test_axioms_json_matches_golden(capsys, sig):
    assert main(["--json", "axioms", sig]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"axioms_{sig}.json").read_text()


def test_cli_matches_golden():
    recorded = json.loads(CLI_GOLDEN.read_text())
    assert [r["argv"] for r in recorded] == CLI_ARGVS
    for r in recorded:
        assert run_cli(r["argv"]) == r["result"], r["argv"]


if __name__ == "__main__":
    rows = [{"argv": argv, "result": run_cli(argv)} for argv in CLI_ARGVS]
    CLI_GOLDEN.write_text(json.dumps(rows, indent=1) + "\n")
