"""Handle reduction against Dynnikov coordinates (tests/dynnikov.py), two
exact decision procedures that share no code."""

import random

from hypothesis import given, settings

import dynnikov
from conftest import braid_words, long_braid_pair, long_braid_pairs, paired_braid_words
from operadforge.braids import BraidWord, braid_compose, braid_equal, braid_inverse, braid_is_trivial


def test_relators_and_generators():
    for n in range(2, 9):
        assert dynnikov.is_trivial(BraidWord(n, ()))
        for i in range(1, n):
            assert dynnikov.is_trivial(BraidWord(n, (i, -i, -i, i)))
            assert not dynnikov.is_trivial(BraidWord(n, (i,)))
            assert not dynnikov.is_trivial(BraidWord(n, (-i, -i)))
            for j in range(i + 2, n):
                assert dynnikov.is_trivial(BraidWord(n, (i, j, -i, -j)))
        for i in range(1, n - 1):
            assert dynnikov.is_trivial(BraidWord(n, (i, i + 1, i, -(i + 1), -i, -(i + 1))))


@settings(max_examples=400, deadline=None)
@given(braid_words(min_strands=2, max_strands=6, max_len=14))
def test_short_words(u):
    assert dynnikov.is_trivial(u) == braid_is_trivial(u)


@settings(max_examples=200, deadline=None)
@given(paired_braid_words(max_strands=6, max_len=6))
def test_short_pairs(uv):
    u, v = uv
    # u v v^-1 u^-1 is trivial by construction; u v^-1 only sometimes
    x = braid_compose(braid_compose(u, v), braid_inverse(braid_compose(u, v)))
    assert dynnikov.is_trivial(x) and braid_is_trivial(x)
    assert dynnikov.equal(u, v) == braid_equal(u, v)


def test_benchmark_pairs():
    # w . w'^-1 for pairs drawn as the braid_words benchmark draws them
    for w, v, equal in long_braid_pairs(200, seed=7):
        assert dynnikov.equal(w, v) is equal
        assert braid_equal(w, v) is equal


def test_long_trivial_words():
    # w . w'^-1 with w' a rewriting of w: trivial by construction
    rng = random.Random(12)
    lengths = []
    while len(lengths) < 20:
        w, v = long_braid_pair(rng.randrange(4, 9), rng.randrange(130, 261), True, rng)
        x = braid_compose(w, braid_inverse(v))
        if 400 <= len(x.letters) <= 800:
            lengths.append(len(x.letters))
            assert dynnikov.is_trivial(x)
            assert braid_is_trivial(x)
    assert max(lengths) > 700


def test_commutators_past_the_fast_rejects():
    # [s_i^2, s_(i+1)^2] has exponent sum 0 and the identity permutation, so
    # only the word problem itself can tell that it is not trivial
    for n in range(3, 9):
        for i in range(1, n - 1):
            c = BraidWord(n, (i, i, i + 1, i + 1, -i, -i, -(i + 1), -(i + 1)))
            assert not dynnikov.is_trivial(c)
            assert not braid_is_trivial(c)
            conj = braid_compose(braid_compose(BraidWord(n, (1, -(n - 1))), c), BraidWord(n, (n - 1, -1)))
            assert not dynnikov.is_trivial(conj)
            assert not braid_is_trivial(conj)
