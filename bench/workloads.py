"""Seeded inputs and known answers for the benchmark's workloads.

Every workload is a stream of operations generated block by block from the
seed, so a run never exhausts its inputs and never repeats an operation.  An
operation is one call into operadforge's public API whose verdict is known by
construction; `judge` compares what the call returned with that answer.

The generators use only the library's public constructors, never its own
samplers, so a change inside the library cannot change the inputs that a
given seed produces.

operadforge is imported inside the generators, not at module level: the
harness times the import as part of set-up and re-imports it between
repetitions.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator

OK, WRONG, FAILED = "ok", "wrong", "failed"


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: `call()` returns the raw result, and
    `judge(result)` classifies it as OK, WRONG or FAILED."""

    label: str
    call: Callable[[], Any]
    judge: Callable[[Any], str]
    expected: str


# -- equivariance ---------------------------------------------------------------
# A seeded draw from criterion 11's grid: arities 1..3, argument widths in
# {0, 1, 2}, braid words of length <= 2, over pools of eight BCpmI operad
# elements per arity 0..3 built as a* o B^m with a of depth <= 1.  Each pool
# serves EQ_CHECKS_PER_POOL checks, so pool elements recur as they do in the
# battery.

EQ_CHECKS_PER_POOL = 64
EQ_POOL_SIZE = 8


def _words(k: int, maxlen: int) -> list[tuple[int, ...]]:
    """Every word in B_k of length <= maxlen, in the order criterion 11
    enumerates them.  The enumeration is the battery's, restated here so that
    a change inside the library cannot change a seed's inputs."""
    letters = [i for i in range(-(k - 1), k) if i != 0]
    return [w for n in range(maxlen + 1) for w in itertools.product(letters, repeat=n)]


def equivariance_blocks(seed: int) -> Iterator[list[Op]]:
    from operadforge import comb, operad
    from operadforge.braids import BraidWord

    sig = comb.BCPMI
    prims = [comb.Prim(name) for name in sorted(sig.primitives)]
    grid = [
        (k, word, js)
        for k in (1, 2, 3)
        for word in _words(k, 2)
        for js in itertools.product((0, 1, 2), repeat=k)
    ]

    def depth1(rng: random.Random):
        roll = rng.random()
        if roll < 0.45:
            return rng.choice(prims)
        if roll < 0.6:
            return comb.Bullet(rng.choice(prims))
        return comb.CApp(rng.choice(prims), rng.choice(prims))

    def judge(v) -> str:
        if str(v) == "Equal":
            return OK
        return FAILED if str(v) == "FuelExhausted" else WRONG

    def check(f, gs, s):
        return lambda: operad.check_equivariance(f, gs, s, sig)

    rng = random.Random(seed)
    for block in itertools.count():
        pools = {
            m: [
                operad.OperadElem(
                    comb.compose(comb.Bullet(depth1(rng)), comb.b_power_element(m)), m
                )
                for _ in range(EQ_POOL_SIZE)
            ]
            for m in range(4)
        }
        ops = []
        for _ in range(EQ_CHECKS_PER_POOL):
            k, word, js = rng.choice(grid)
            i = rng.randrange(EQ_POOL_SIZE)
            f = pools[k][i]
            gs = [pools[j][(i + off + 1) % EQ_POOL_SIZE] for off, j in enumerate(js)]
            label = f"equivariance pool={block} k={k} word={word} widths={js} f={i}"
            ops.append(Op(label, check(f, gs, BraidWord(k, word)), judge, "Equal"))
        yield ops


# -- axiom_suites ------------------------------------------------------------------
# Every row of all four signatures' axiom tables, as `operadforge axioms <sig>`
# runs them (row k of a table at seed base + k), over a seeded range of bases.
# One block is one sweep of all rows in a shuffled order.


def axiom_blocks(seed: int) -> Iterator[list[Op]]:
    from operadforge import comb

    sigs = {sig.tag: sig for sig in comb.SIGNATURES.values()}
    rows = [
        (sigs[tag], k, ax)
        for tag, table in comb.AXIOM_TABLES.items()
        for k, ax in enumerate(table)
    ]

    def judge(report) -> str:
        if report.status == "pass":
            return OK
        return FAILED if report.lhs_nf == "<fuel>" else WRONG

    def row(ax, sig, s):
        return lambda: comb.run_axiom(ax, sig, seed=s)

    rng = random.Random(seed)
    while True:
        base = rng.randrange(1_000_000)
        ops = [
            Op(f"axiom {sig.tag} {ax.name} seed={base + k}", row(ax, sig, base + k), judge, "pass")
            for sig, k, ax in rows
        ]
        rng.shuffle(ops)
        yield ops


# -- braid_words -------------------------------------------------------------------
# braid_equal(w, w') on B4..B8, where w' is w rewritten by commutations, braid
# moves and inserted relators and free pairs, so the pair is equal but not
# freely equal; half the pairs compare w with w'.c, where c is the commutator
# [s_i^2, s_{i+1}^2], which is nontrivial but has exponent sum 0 and the
# identity permutation, so the fast rejects cannot decide it.  w has
# 40..140 letters and w' about twice as many, which puts the word that handle
# reduction sees, w.w'^-1, at about 100..400 letters.  Longer words make a
# run's throughput depend on a handful of operations: an unequal pair at
# 250 letters of w costs 0.5 s on average and up to 3.6 s.  A block holds
# BR_BLOCK pairs: lengths are stratified across the range and half of each
# block is unequal.

BR_BLOCK = 8
BR_MIN_LEN, BR_MAX_LEN = 40, 140


def _random_word(n: int, length: int, rng: random.Random) -> list[int]:
    word: list[int] = []
    while len(word) < length:
        a = rng.randrange(1, n) * rng.choice((1, -1))
        if not word or word[-1] != -a:
            word.append(a)
    return word


def _relator(n: int, rng: random.Random) -> list[int]:
    """A cyclic rotation of a defining relator of B_n, or of its inverse."""
    if n < 4 or rng.random() < 0.6:
        i = rng.randrange(1, n - 1)
        r = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
    else:
        i = rng.randrange(1, n - 2)
        j = rng.randrange(i + 2, n)
        r = [i, j, -i, -j]
    if rng.random() < 0.5:
        r = [-a for a in reversed(r)]
    k = rng.randrange(len(r))
    return r[k:] + r[:k]


def _rewrite(word: list[int], n: int, rng: random.Random) -> list[int]:
    """Apply len(word)/2 random moves that preserve the braid."""
    w = list(word)
    for _ in range(len(word) // 2):
        roll = rng.random()
        p = rng.randrange(len(w) + 1)
        if roll < 0.5 and len(w) >= 3:
            p = min(p, len(w) - 3)
            a, b = w[p], w[p + 1]
            if abs(abs(a) - abs(b)) >= 2:
                w[p], w[p + 1] = b, a
            elif abs(abs(a) - abs(b)) == 1 and w[p + 2] == a and (a > 0) == (b > 0):
                w[p : p + 3] = [b, a, b]
        elif roll < 0.75:
            w[p:p] = _relator(n, rng)
        else:
            a = rng.randrange(1, n) * rng.choice((1, -1))
            w[p:p] = [a, -a]
    return w


def braid_blocks(seed: int) -> Iterator[list[Op]]:
    from operadforge import braids

    def judge_for(want: bool):
        return lambda got: OK if got is want else WRONG

    def equal(u, v):
        return lambda: braids.braid_equal(u, v)

    rng = random.Random(seed)
    span = (BR_MAX_LEN - BR_MIN_LEN) / BR_BLOCK
    for block in itertools.count():
        ops = []
        for slot in range(BR_BLOCK):
            n = rng.randrange(4, 9)
            length = BR_MIN_LEN + int(span * (slot + rng.random()))
            w = _random_word(n, length, rng)
            w2 = _rewrite(w, n, rng)
            want = slot % 2 == 0
            if not want:
                i = rng.randrange(1, n - 1)
                w2 += [i, i, i + 1, i + 1, -i, -i, -(i + 1), -(i + 1)]
            u, v = braids.BraidWord(n, tuple(w)), braids.BraidWord(n, tuple(w2))
            label = f"braid_equal block={block} slot={slot} B{n} |w|={len(w)} |w'|={len(w2)}"
            ops.append(Op(label, equal(u, v), judge_for(want), str(want)))
        rng.shuffle(ops)
        yield ops


WORKLOADS: dict[str, Callable[[int], Iterator[list[Op]]]] = {
    "equivariance": equivariance_blocks,
    "axiom_suites": axiom_blocks,
    "braid_words": braid_blocks,
}
