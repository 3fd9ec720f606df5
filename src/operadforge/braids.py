"""Exact computation in Artin braid groups and symmetric groups.

A braid word on n strands is stored as a sequence of nonzero integers: the
letter i (with 1 <= |i| <= n-1) is the elementary crossing of the strands at
positions |i| and |i|+1, positive for one crossing sense, negative for its
inverse.  Letters apply in storage order: `compose(u, v)` means "u, then v".

Width vectors for `cable` index the strand blocks at the *end* of the word
(the last-letter side); width 0 deletes a strand.

Word equality is decided by handle reduction: a terminating rewriting
procedure that sends a word to a form with no handles.  A reduced word is
empty iff the braid is trivial, and contains its lowest generator index with
a single sign otherwise, which also yields an exact test for membership in
the subgroup generated by the higher-index crossings (`remove_strand_one`).
The prefix before the leftmost-closing handle's last letter holds no handle,
and replacing the handle only changes the word from the low-water mark of
free cancellation on, so the scan for the next handle resumes there instead
of at the start.  The state it resumes from is one back pointer per scanned
position, so a round rescans only the handle's reduct, at most n-1 pointer
steps per letter, instead of the whole word.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence


class DimensionError(ValueError):
    """Strand or width counts do not line up."""


@dataclass(frozen=True)
class BraidWord:
    """Element of the braid group on `strands` strands, as a generator word."""

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.strands < 0:
            raise ValueError("strand count must be non-negative")
        for a in self.letters:
            if a == 0 or not 1 <= abs(a) <= self.strands - 1:
                raise ValueError(f"letter {a} out of range for {self.strands} strands")

    def __str__(self) -> str:
        return format_braid(self)


def trivial(n: int) -> BraidWord:
    return BraidWord(n, ())


def braid_compose(u: BraidWord, v: BraidWord) -> BraidWord:
    """Concatenation in diagram order: u first, then v."""
    if u.strands != v.strands:
        raise DimensionError(f"strand mismatch: {u.strands} vs {v.strands}")
    return BraidWord(u.strands, u.letters + v.letters)


def braid_inverse(u: BraidWord) -> BraidWord:
    return BraidWord(u.strands, tuple(-a for a in reversed(u.letters)))


def exponent_sum(u: BraidWord) -> int:
    """Image in the abelianization; an invariant of the braid."""
    return sum(1 if a > 0 else -1 for a in u.letters)


def permute_contents(u: BraidWord, items: Sequence) -> list:
    """Push a list riding on the strands through the diagram of u."""
    if len(items) != u.strands:
        raise DimensionError("item count must equal strand count")
    contents = list(items)
    for a in u.letters:
        i = abs(a)
        contents[i - 1], contents[i] = contents[i], contents[i - 1]
    return contents


def underlying_permutation(u: BraidWord) -> tuple[int, ...]:
    """Forget crossing signs: the one-line image, whose entry k-1 is where the
    strand that starts at k ends up."""
    image = [0] * u.strands
    for pos, strand in enumerate(permute_contents(u, range(1, u.strands + 1)), start=1):
        image[strand - 1] = pos
    return tuple(image)


# -- handle reduction ---------------------------------------------------------

def handle_reduce(u: BraidWord) -> BraidWord:
    """Fully handle-reduced word representing the same braid.

    Always reduces the leftmost-closing handle of the freely reduced word.
    `word` is the scanned prefix, freely reduced and free of handles, and
    `todo` holds the rest of the word, freely reduced, next letter last.
    `prev[p]` is the nearest position before p whose letter has a smaller
    index (-1 if none), so the letters of index <= i nearest the end of
    `word` are found by following `prev` from its last position.
    """
    todo: list[int] = []
    for a in reversed(u.letters):
        if todo and todo[-1] == -a:
            todo.pop()
        else:
            todo.append(a)
    word: list[int] = []
    prev: list[int] = []
    while todo:
        a = todo.pop()
        i = abs(a)
        q = len(word) - 1
        while q >= 0 and abs(word[q]) > i:
            q = prev[q]
        if q < 0 or word[q] != -a:
            prev.append(prev[q] if q >= 0 and word[q] == a else q)
            word.append(a)
            continue
        # word[q] .. a is a handle (a free pair if nothing lies between):
        # hand its reduct back to `todo`, freely reducing against the rest.
        e = -1 if a > 0 else 1
        body = word[q + 1 :]
        del word[q:], prev[q:]
        for b in reversed(body):
            if abs(b) == i + 1:
                reduct = ((i + 1) * e, i if b > 0 else -i, -(i + 1) * e)
            else:
                reduct = (b,)
            for c in reduct:
                if todo and todo[-1] == -c:
                    todo.pop()
                else:
                    todo.append(c)
    return BraidWord(u.strands, tuple(word))


def braid_is_trivial(u: BraidWord) -> bool:
    """Exact triviality test: fast rejects, then handle reduction."""
    if not u.letters:
        return True
    if exponent_sum(u) != 0:
        return False
    if underlying_permutation(u) != tuple(range(1, u.strands + 1)):
        return False
    return len(handle_reduce(u).letters) == 0


def braid_equal(u: BraidWord, v: BraidWord) -> bool:
    return braid_is_trivial(braid_compose(u, braid_inverse(v)))


def remove_strand_one(u: BraidWord) -> BraidWord | None:
    """Delete strand 1 if u needs no index-1 crossing; None if it does."""
    reduced = handle_reduce(u).letters
    if any(abs(a) == 1 for a in reduced):
        return None
    return BraidWord(u.strands - 1, tuple((abs(a) - 1) * (1 if a > 0 else -1) for a in reduced))


# -- cabling and block sums ---------------------------------------------------

def _positive_block_crossing(p: int, q: int, offset: int) -> list[int]:
    """Positive crossing of a p-wide block (lower) with a q-wide block (upper),
    strands offset+1..offset+p+q; emits p*q positive letters."""
    word: list[int] = []
    for row in range(q):
        word += [offset + p + row - j for j in range(p)]
    return word


def cable(u: BraidWord, widths: Sequence[int]) -> BraidWord:
    """Replace each strand by a parallel block of the given width.

    `widths[k-1]` is the width of the block at position k on the end side of
    the word; width 0 deletes the strand.
    """
    if len(widths) != u.strands:
        raise DimensionError(f"need {u.strands} widths, got {len(widths)}")
    if any(w < 0 for w in widths):
        raise ValueError("widths must be non-negative")
    # carry the widths back to the start side, then cable letter by letter
    w = list(widths)
    for a in reversed(u.letters):
        i = abs(a)
        w[i - 1], w[i] = w[i], w[i - 1]
    out: list[int] = []
    for a in u.letters:
        i = abs(a)
        p, q = w[i - 1], w[i]
        offset = sum(w[: i - 1])
        if a > 0:
            out += _positive_block_crossing(p, q, offset)
        else:
            out += [-x for x in reversed(_positive_block_crossing(q, p, offset))]
        w[i - 1], w[i] = q, p
    return BraidWord(sum(widths), tuple(out))


def direct_sum(ts: Iterable[BraidWord]) -> BraidWord:
    """Side-by-side block sum, shifting letters past earlier summands."""
    letters: list[int] = []
    total = 0
    for t in ts:
        letters += [(abs(a) + total) * (1 if a > 0 else -1) for a in t.letters]
        total += t.strands
    return BraidWord(total, tuple(letters))


def shift_strands(u: BraidWord, by: int) -> BraidWord:
    """u acting on strands by+1 .. by+u.strands inside a larger group."""
    return direct_sum([trivial(by), u])


# -- text syntax --------------------------------------------------------------

# (?!\d) makes a letter take its whole digit run, so a literal splits into
# letters one way only and a failed match backtracks in linear time.
_LETTER = r"-?\d+(?!\d)"
_BRAID_RE = re.compile(rf"\s*\{{\s*(\d+)\s*;((?:\s*{_LETTER})*)\s*\}}\s*")


def parse_braid(text: str) -> BraidWord:
    """Parse the literal syntax `{n; i1 i2 ...}` (letters optional), the one
    braid grammar of the package.  A letter is an optionally signed integer,
    so `{3; 1-2}` is the word 1 -2."""
    m = _BRAID_RE.fullmatch(text)
    if not m:
        raise ValueError(f"malformed braid literal: {text!r}")
    letters = tuple(int(a) for a in re.findall(_LETTER, m.group(2)))
    return BraidWord(int(m.group(1)), letters)


def format_braid(u: BraidWord) -> str:
    if not u.letters:
        return f"{{{u.strands};}}"
    return f"{{{u.strands}; {' '.join(str(a) for a in u.letters)}}}"
