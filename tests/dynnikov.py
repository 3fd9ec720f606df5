"""Dynnikov coordinates: a second exact decision procedure for braid words.

The braid group B_n acts faithfully on integer vectors (a1, b1, ..., an, bn),
the coordinates of curve diagrams in a punctured disk (Dynnikov 2002;
Dehornoy, Dynnikov, Rolfsen and Wiest, *Ordering Braids*, ch. 12).  A letter
+-i changes the pairs i and i+1 by piecewise-linear formulas, so a word of
length L costs O(L) integer operations and the braid is trivial exactly when
it fixes the coordinates (0, 1, ..., 0, 1) of the standard diagram.  Nothing
here shares code with handle reduction, which makes it an independent oracle
for `operadforge.braids.braid_is_trivial` and `braid_equal`.
"""

from __future__ import annotations

from operadforge.braids import BraidWord, braid_compose, braid_inverse


def _pos(x: int) -> int:
    return x if x > 0 else 0


def _neg(x: int) -> int:
    return x if x < 0 else 0


def coordinates(u: BraidWord) -> tuple[int, ...]:
    """The image of (0, 1, ..., 0, 1) under u, one (a, b) pair per strand."""
    a = [0] * u.strands
    b = [1] * u.strands
    for letter in u.letters:
        i = abs(letter) - 1
        ai, bi, aj, bj = a[i], b[i], a[i + 1], b[i + 1]
        if letter > 0:
            z = ai - _neg(bi) - aj + _pos(bj)
            a[i] = ai + _pos(bi) + _pos(_pos(bj) - z)
            b[i] = bj - _pos(z)
            a[i + 1] = aj + _neg(bj) + _neg(_neg(bi) + z)
            b[i + 1] = bi + _pos(z)
        else:
            z = ai + _neg(bi) - aj - _pos(bj)
            a[i] = ai - _pos(bi) - _pos(_pos(bj) + z)
            b[i] = bj + _neg(z)
            a[i + 1] = aj - _neg(bj) - _neg(_neg(bi) - z)
            b[i + 1] = bi - _neg(z)
    return tuple(x for pair in zip(a, b) for x in pair)


def is_trivial(u: BraidWord) -> bool:
    return coordinates(u) == (0, 1) * u.strands


def equal(u: BraidWord, v: BraidWord) -> bool:
    return is_trivial(braid_compose(u, braid_inverse(v)))
