"""Digest of what `normalize` returns on a fixed corpus of its real inputs.

A differential check for changes that must leave every normal form as it
was: run it before and after the change, and compare the two lines it
prints.  The corpus is every distinct input that `normalize` receives from

* the first 300 operations of the `equivariance` benchmark workload, seeds
  0, 1 and 2 (`bench/workloads.py`);
* the four signatures' axiom suites at 6 samples, seed 0;
* the acceptance battery, `run_all(4, 0, 2000)`.

An input is (term, discipline, fuel, context).  The script prints
the number of distinct inputs and a SHA-256 over the sorted lines
"input <tab> outcome", the outcome being the printed normal form or the
exception's type and text.

A second line covers the equality decision: the number of checks that
`operad.check_equivariance` makes on the same 300 operations of each seed,
once for criterion 11's law and once for its mirror (each word's letters
negated before cabling, as in `tests/test_equivariance.py`), and a SHA-256
over their lines "lhs = rhs <tab> verdict" in order.  The sides are the
combinator expressions the law states (`test_equivariance.law_sides`), and
the verdict, the check's, must be the one `comb.comb_equal` gets on them.
It is a script, not a collected test:

    PYTHONPATH=src python tests/normalize_digest.py
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import operadforge
import operadforge.cli  # noqa: F401  (so that its `normalize` is recorded too)
from operadforge import acceptance, comb, operad
from operadforge import normalize as normalize_module
from operadforge.braids import cable
from operadforge.terms import Context, pretty

from test_equivariance import law_sides, mirrored_cable
from workloads import equivariance_blocks

EQUIVARIANCE_OPS = 300


def _record(outcomes: dict):
    """Point every module's `normalize` at a wrapper that records each
    distinct input's outcome in outcomes; returns a function that undoes it."""
    original = normalize_module.normalize

    # other keywords pass through unrecorded, so that the script also runs
    # on a `normalize` that takes more of them
    def recording(t, d, fuel=normalize_module.DEFAULT_FUEL, ctx=Context(), **options):
        key = (t, d, fuel, ctx)
        try:
            out = original(t, d, fuel=fuel, ctx=ctx, **options)
        except Exception as e:  # the outcome is recorded, then re-raised
            outcomes.setdefault(key, f"{type(e).__name__}: {e}")
            raise
        outcomes.setdefault(key, pretty(out))
        return out

    patched = [
        m for m in vars(operadforge).values()
        if getattr(m, "normalize", None) is original
    ]
    for m in patched:
        m.normalize = recording

    def restore():
        for m in patched:
            m.normalize = original

    return restore


def collect() -> dict:
    outcomes: dict = {}
    restore = _record(outcomes)
    try:
        for seed in range(3):
            for op in _equivariance_ops(seed):
                op.call()
        for sig in comb.SIGNATURES.values():
            comb.axiom_suite(sig, samples=6)
        acceptance.run_all(4, 0, 2000, progress=False)
    finally:
        restore()
    return outcomes


def digest(outcomes: dict) -> str:
    lines = sorted(
        f"{pretty(t)} | {d.value} | {fuel} | {' '.join(ctx.names)}\t{out}"
        for (t, d, fuel, ctx), out in outcomes.items()
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _equivariance_ops(seed: int):
    ops = itertools.chain.from_iterable(equivariance_blocks(seed))
    return itertools.islice(ops, EQUIVARIANCE_OPS)


def verdicts() -> list[str]:
    """One line per check of the law and of its mirror, in order."""
    lines = []
    check = operad.check_equivariance

    def recording(f, gs, s, sig, fuel=normalize_module.DEFAULT_FUEL):
        v = check(f, gs, s, sig, fuel=fuel)
        lhs, rhs = law_sides(f, gs, s, sig)
        raw = comb.comb_equal(lhs, rhs, sig, fuel=fuel)
        if raw is not v:
            raise AssertionError(f"check says {v}, the raw sides {raw}: {lhs} = {rhs}")
        lines.append(f"{comb.format_cterm(lhs)} = {comb.format_cterm(rhs)}\t{v}")
        return v

    operad.check_equivariance = recording
    try:
        for seed in range(3):
            for op in _equivariance_ops(seed):
                op.call()
                operad.cable = mirrored_cable
                try:
                    op.call()
                finally:
                    operad.cable = cable
    finally:
        operad.check_equivariance = check
    return lines


def main() -> None:
    outcomes = collect()
    print(f"{len(outcomes)} distinct normalize inputs, sha256 {digest(outcomes)}")
    lines = verdicts()
    sha = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{len(lines)} law and mirror verdicts, sha256 {sha}")


if __name__ == "__main__":
    main()
