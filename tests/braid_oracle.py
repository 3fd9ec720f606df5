"""A rescanning handle-reduction oracle, independent of the incremental scan.

This is the straightforward form of the procedure: after every handle it
free-reduces the whole word and looks for the next handle from position 0.
It applies the same rule as `operadforge.braids.handle_reduce` (always the
leftmost-closing handle), so the two must return identical words.  Used to
cross-check the incremental scan on long words.
"""


def _free_reduce(word: list[int]) -> list[int]:
    out: list[int] = []
    for a in word:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return out


def _find_handle(word: list[int]) -> tuple[int, int] | None:
    """Leftmost-closing handle: positions (s, t) with word[s] = -word[t],
    equal index, and nothing of index <= that index strictly between."""
    last_seen: dict[int, int] = {}
    for t, a in enumerate(word):
        i = abs(a)
        s = last_seen.get(i)
        if s is not None and word[s] == -a:
            if all(abs(word[k]) > i for k in range(s + 1, t)):
                return s, t
        last_seen[i] = t
    return None


def handle_reduce_letters(letters) -> tuple[int, ...]:
    """Fully handle-reduced letters of the braid that `letters` spell."""
    word = _free_reduce(list(letters))
    while True:
        h = _find_handle(word)
        if h is None:
            return tuple(word)
        s, t = h
        i, e = abs(word[s]), (1 if word[s] > 0 else -1)
        mid: list[int] = []
        for a in word[s + 1 : t]:
            if abs(a) == i + 1:
                mid += [-(i + 1) * e, i * (1 if a > 0 else -1), (i + 1) * e]
            else:
                mid.append(a)
        word = _free_reduce(word[:s] + mid + word[t + 1 :])
