import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from operadforge import operad
from operadforge.braids import BraidWord

# Each run draws the same examples and keeps no example database, so what a
# run reaches, and any failure it finds, repeats; each test keeps its own
# `max_examples`.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def empty_part_cache():
    """Each test starts with `operad._part`'s cache empty, so that no
    test's work counts or cache statistics depend on which tests ran
    before it."""
    operad._part.cache_clear()


def braid_words(max_strands: int = 5, max_len: int = 8, min_strands: int = 0):
    """Hypothesis strategy for small braid words."""

    def build(n: int):
        if n <= 1:
            return st.just(BraidWord(n, ()))
        letters = st.integers(min_value=1, max_value=n - 1).flatmap(
            lambda i: st.sampled_from([i, -i])
        )
        return st.lists(letters, max_size=max_len).map(lambda ls: BraidWord(n, tuple(ls)))

    return st.integers(min_value=min_strands, max_value=max_strands).flatmap(build)


def paired_braid_words(max_strands: int = 5, max_len: int = 6):
    """Two words on the same strand count."""

    def build(n: int):
        if n <= 1:
            return st.tuples(st.just(BraidWord(n, ())), st.just(BraidWord(n, ())))
        letters = st.integers(min_value=1, max_value=n - 1).flatmap(
            lambda i: st.sampled_from([i, -i])
        )
        word = st.lists(letters, max_size=max_len).map(lambda ls: BraidWord(n, tuple(ls)))
        return st.tuples(word, word)

    return st.integers(min_value=2, max_value=max_strands).flatmap(build)


def _letter(n: int, rng: random.Random) -> int:
    return rng.randrange(1, n) * rng.choice((1, -1))


def _relator(n: int, rng: random.Random) -> list[int]:
    """A cyclic rotation of a defining relator of B_n or of its inverse."""
    if n >= 4 and rng.random() < 0.4:
        i = rng.randrange(1, n - 2)
        j = rng.randrange(i + 2, n)
        r = [i, j, -i, -j]
    else:
        i = rng.randrange(1, n - 1)
        r = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
    if rng.random() < 0.5:
        r = [-a for a in reversed(r)]
    k = rng.randrange(len(r))
    return r[k:] + r[:k]


def long_braid_pair(n: int, length: int, equal: bool, rng: random.Random):
    """(w, w') in B_n with w of `length` letters and w' = w rewritten by
    commutations, braid moves and inserted relators and free pairs.  When
    `equal` is false, the commutator [s_i^2, s_(i+1)^2] follows w': it is
    nontrivial, with exponent sum 0 and the identity permutation."""
    w: list[int] = []
    while len(w) < length:
        a = _letter(n, rng)
        if not w or w[-1] != -a:
            w.append(a)
    v = list(w)
    for _ in range(length // 2):
        roll, p = rng.random(), rng.randrange(len(v) - 2)
        a, b = v[p], v[p + 1]
        if roll < 0.5:
            if abs(abs(a) - abs(b)) >= 2:
                v[p], v[p + 1] = b, a
            elif abs(abs(a) - abs(b)) == 1 and v[p + 2] == a and (a > 0) == (b > 0):
                v[p : p + 3] = [b, a, b]
        elif roll < 0.75:
            v[p:p] = _relator(n, rng)
        else:
            a = _letter(n, rng)
            v[p:p] = [a, -a]
    if not equal:
        i = rng.randrange(1, n - 1)
        v += [i, i, i + 1, i + 1, -i, -i, -(i + 1), -(i + 1)]
    return BraidWord(n, tuple(w)), BraidWord(n, tuple(v))


def long_braid_pairs(count: int, seed: int):
    """`count` pairs in B4..B8 with w of 40..140 letters, so that w.w'^-1 has
    about 100..400; every other pair is unequal.  Yields (w, w', equal)."""
    rng = random.Random(seed)
    for k in range(count):
        equal = k % 2 == 0
        w, v = long_braid_pair(rng.randrange(4, 9), rng.randrange(40, 141), equal, rng)
        yield w, v, equal


@pytest.fixture
def rng():
    return random.Random(0)
