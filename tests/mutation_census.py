"""Mutation census: which of a fixed table of hand-made mutants Tier-1 kills.

Each row of `MUTANTS` names a file, an old text that occurs in it exactly
once, the new text, and what the mutant breaks.  For each row the script
copies the repository's files (those git tracks or would track) to a
temporary directory, applies the mutant there, runs Tier-1 with `-x`, and
prints killed or survived.  The unmutated copy runs first and must pass.  At
the end it prints the totals.

Each Tier-1 run is a child process bounded in address space (`MEMORY_BYTES`,
set by `resource.setrlimit(RLIMIT_AS)` in the child only) and in time
(`TIMEOUT_S`).  A mutant is killed when a test fails, or when its run
passes either bound; so a mutant that keeps a loop from ending, or its
memory from growing, counts as killed.

A survivor is either marked equivalent in its row, with the reason, or it
names a missing test.  A row whose line `tests/line_coverage.py` lists as
unrun survives by construction, so the table has none.  It is a script, not
a collected test; a killed row stops at its first failing test, so the 33 rows
take about 12 minutes on 2 cores.  The arguments, if any, pick rows by name:

    python tests/mutation_census.py [name ...]
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
TIMEOUT_S = 300
MEMORY_BYTES = 2 << 30


def _bounded() -> None:
    """Run in the Tier-1 child before it starts: cap its address space."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    breaks: str
    equivalent: str | None = None  # why no test can kill it, if none can


MUTANTS = [
    Mutant(
        "canon_app blocks swapped",
        "src/operadforge/terms.py",
        "return BraidNode(direct_sum([wa, wf]), node, canon=node.canon)",
        "return BraidNode(direct_sum([wf, wa]), node, canon=node.canon)",
        "lifts the function's word onto the argument's strands",
    ),
    Mutant(
        "canon_wrap outer word first",
        "src/operadforge/terms.py",
        "word = braid_compose(body.braid, word)",
        "word = braid_compose(word, body.braid)",
        "fuses a braid with the one below it in the wrong order",
    ),
    Mutant(
        "_Slot.shed lift behind the slot word",
        "src/operadforge/normalize.py",
        "word = braid_compose(lifted, self.word)",
        "word = braid_compose(self.word, lifted)",
        "composes a shed braid after the slot's word instead of before it",
    ),
    Mutant(
        "_split without the direct-sum check",
        "src/operadforge/normalize.py",
        "if not braid_equal(delta, direct_sum([arg, fn])):",
        "if False:",
        "splits a pending braid that links the argument's strands with the function's",
    ),
    Mutant(
        "pending braid not inverted",
        "src/operadforge/normalize.py",
        "words.append(braid_inverse(a.braid))",
        "words.append(a.braid)",
        "matches the left side's braid against the right's instead of cancelling it",
    ),
    Mutant(
        "cable negative crossing unreversed",
        "src/operadforge/braids.py",
        "cross = [-x for x in reversed(_positive_block_crossing(q, p, offset))]",
        "cross = [-x for x in _positive_block_crossing(q, p, offset)]",
        "cables a negative letter between blocks into a word that is not its inverse crossing",
    ),
    Mutant(
        "remove_strand_one unreduced",
        "src/operadforge/braids.py",
        "reduced = handle_reduce(u).letters",
        "reduced = u.letters",
        "decides strand removal on the spelling, not on the braid",
    ),
    Mutant(
        "braid_is_trivial identity test inverted",
        "src/operadforge/braids.py",
        "if underlying_permutation(u) != tuple(range(1, u.strands + 1)):",
        "if underlying_permutation(u) == tuple(range(1, u.strands + 1)):",
        "rejects exactly the braids whose permutation is the identity",
    ),
    Mutant(
        "underlying_permutation not inverted",
        "src/operadforge/braids.py",
        "image[strand - 1] = pos",
        "image[pos - 1] = strand",
        "returns where each position's strand started, the inverse image",
    ),
    Mutant(
        "equivariance with s for its inverse",
        "src/operadforge/operad.py",
        "permuted = permute_contents(braid_inverse(s), gs)",
        "permuted = permute_contents(s, gs)",
        "permutes the law's arguments by s instead of s^-1",
    ),
    Mutant(
        "chain order reversed",
        "src/operadforge/operad.py",
        "for q in reversed(parts):",
        "for q in parts:",
        "composes each side's parts last first",
    ),
    Mutant(
        "lhs action dropped",
        "src/operadforge/operad.py",
        "lhs = args + _action_parts(s, sig) + op",
        "lhs = args + op",
        "leaves the action of s out of the law's left side",
    ),
    Mutant(
        "part cache without the signature",
        "src/operadforge/operad.py",
        "@functools.lru_cache(maxsize=512)\n"
        "def _part(part: CTerm | BraidWord, sig: Signature) -> LTerm:\n",
        "@functools.lru_cache(maxsize=512)\n"
        "def _part_of(part: CTerm | BraidWord) -> LTerm:\n"
        "    return _image(part, _sig[0])\n"
        "\n"
        "\n"
        "def _part(part: CTerm | BraidWord, sig: Signature) -> LTerm:\n"
        "    _sig[0] = sig\n"
        "    return _part_of(part)\n"
        "\n"
        "\n"
        "_sig = [None]\n"
        "_part.cache_clear, _part.cache_info = _part_of.cache_clear, _part_of.cache_info\n"
        "\n"
        "\n"
        "def _image(part: CTerm | BraidWord, sig: Signature) -> LTerm:\n",
        "reuses a part's image from one signature in another",
    ),
    Mutant(
        "part cache of size 0",
        "src/operadforge/operad.py",
        "@functools.lru_cache(maxsize=512)",
        "@functools.lru_cache(maxsize=0)",
        "normalizes every part again on every check",
    ),
    Mutant(
        "B power off by one",
        "src/operadforge/comb.py",
        "    for _ in range(k):\n        t = CApp(B, t)",
        "    for _ in range(k + 1):\n        t = CApp(B, t)",
        "applies one B too many in each argument part and each B^k t",
    ),
    Mutant(
        "S rule forms swapped",
        "src/operadforge/comb.py",
        "capp(C, f, g) if lo_arg < v else capp(B, capp(C, I, g), f)",
        "capp(B, capp(C, I, g), f) if lo_arg < v else capp(C, f, g)",
        "prints each duplication in the other of its two equal forms",
    ),
    Mutant(
        "occurrence read from the least index",
        "src/operadforge/comb.py",
        "in_fn = bounds[id(p.fn)][1] == v",
        "in_fn = bounds[id(p.fn)][0] == v",
        "misses the indeterminate in a function part that also holds a smaller one",
    ),
    Mutant(
        "occurrence record walked again",
        "src/operadforge/comb.py",
        "    b = bounds.get(id(p))\n    if b is not None:\n        return b\n",
        "",
        "walks every node again at each abstraction step, built or not",
    ),
    Mutant(
        "placeholders a polynomial can name",
        "src/operadforge/comb.py",
        'names = [f"?{i}" for i in range(poly_arity(p))]',
        'names = [f"q{i}" for i in range(poly_arity(p))]',
        "binds a polynomial's own constant q0 in the sampled instances",
    ),
    Mutant(
        "runner budget off by one",
        "src/operadforge/comb.py",
        "elif v is Verdict.FUEL_EXHAUSTED and retries < redraws:",
        "elif v is Verdict.FUEL_EXHAUSTED and retries <= redraws:",
        "redraws a fuel-exhausted instance once more than the budget",
    ),
    Mutant(
        "closed law redrawn",
        "src/operadforge/comb.py",
        "if metavars else (1, 0)",
        "if metavars else (1, FUEL_RETRIES_PER_SAMPLE * samples)",
        "repeats a closed law's one instance after it runs out of fuel",
    ),
    Mutant(
        "size cap absolute",
        "src/operadforge/normalize.py",
        "    return _NormalOrder(None if d.exactly_once else fuel).scope(canon_braids(t))",
        "    order = _NormalOrder(None if d.exactly_once else fuel)\n"
        "    order.grown = t.size\n"
        "    return order.scope(canon_braids(t))",
        "counts the input's own size as growth, so a large input is never decided",
    ),
    Mutant(
        "cap fallback dropped",
        "src/operadforge/normalize.py",
        "> SIZE_CAP:\n                g = 1\n",
        "> SIZE_CAP:\n                pass\n",
        "contracts a whole group past the binder where the size cap fires",
    ),
    Mutant(
        "group fuel cut off by one",
        "src/operadforge/normalize.py",
        "g = min(g, self.fuel - self.steps + 1)",
        "g = min(g, self.fuel - self.steps + 2)",
        "contracts one binder past the fuel before it reports exhaustion",
    ),
    Mutant(
        "growth charged once per group",
        "src/operadforge/normalize.py",
        "for u, a in zip(uses, args):",
        "for u, a in zip(uses[:1], args):",
        "charges only a group's first binder against the size cap",
    ),
    Mutant(
        "steps charged once per group",
        "src/operadforge/normalize.py",
        "self.steps += g",
        "self.steps += 1",
        "charges a whole group as one step against the fuel",
    ),
    Mutant(
        "cartesian fuel off by one",
        "src/operadforge/normalize.py",
        "if self.steps > self.fuel:",
        "if self.steps > self.fuel + 1:",
        "allows one beta step more than the fuel",
    ),
    Mutant(
        "strand counts not compared",
        "src/operadforge/normalize.py",
        "if len({w.strands for w in words}) > 1:\n                return Verdict.NOT_EQUAL",
        "if len({w.strands for w in words}) > 1:\n                return Verdict.EQUAL",
        "calls equal two normal forms whose braids have different widths",
    ),
    Mutant(
        "handle reduction of the reversed word",
        "src/operadforge/braids.py",
        "for a in reversed(u.letters):\n        if todo and todo[-1] == -a:",
        "for a in u.letters:\n        if todo and todo[-1] == -a:",
        "spells the reduced word of the reversed braid, trivial exactly when the braid is",
    ),
    Mutant(
        "trace equality decided reads as a pass",
        "src/operadforge/acceptance.py",
        'return Result("trace syntax", False, f"equality on Tr returned',
        'return Result("trace syntax", True, f"equality on Tr returned',
        "passes criterion 12 when an equality involving Tr is decided, not refused",
    ),
    Mutant(
        "classical S derived from swapped arguments",
        "src/operadforge/comb.py",
        'parse_cterm("x0 x2 (x1 x2)")',
        'parse_cterm("x1 x2 (x0 x2)")',
        "derives S a b c = b c (a c), the classical S with its first two arguments swapped",
    ),
    Mutant(
        "negative index admitted",
        "src/operadforge/terms.py",
        "if index < 0:",
        "if index < -1:",
        "builds a variable with de Bruijn index -1",
    ),
    Mutant(
        "permute_contents count unchecked",
        "src/operadforge/braids.py",
        "if len(items) != u.strands:",
        "if len(items) > u.strands:",
        "pushes fewer items than strands through a word",
    ),
]


def tracked_files() -> list[str]:
    out = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    return [name for name in out.splitlines() if (ROOT / name).is_file()]


def tier1_passes(tree: Path) -> bool:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    try:
        run = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                             capture_output=True, timeout=TIMEOUT_S, preexec_fn=_bounded)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def copy_tree(files: list[str], dest: Path) -> None:
    for name in files:
        (dest / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(ROOT / name, dest / name)


def main(names: list[str]) -> int:
    rows = [m for m in MUTANTS if not names or m.name in names]
    files = tracked_files()
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        copy_tree(files, base)
        if not tier1_passes(base):
            print("the unmutated tree fails Tier-1; no census")
            return 1
    killed = equivalent = missing = 0
    for m in rows:
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp) / "tree"
            copy_tree(files, tree)
            target = tree / m.path
            text = target.read_text()
            if text.count(m.old) != 1:
                print(f"{m.name}: old text occurs {text.count(m.old)} times in {m.path}")
                return 1
            target.write_text(text.replace(m.old, m.new))
            dead = not tier1_passes(tree)
        if dead:
            killed += 1
            verdict = "killed"
        elif m.equivalent:
            equivalent += 1
            verdict = f"survived, equivalent: {m.equivalent}"
        else:
            missing += 1
            verdict = "SURVIVED: a missing test"
        print(f"{m.name} ({m.path}; {m.breaks}): {verdict}", flush=True)
    print(f"{len(rows)} mutants: {killed} killed, {equivalent} equivalent, {missing} survived")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
