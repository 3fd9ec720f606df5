"""Controls and a work-count tripwire for criterion 11's equivariance law.

The battery expects Equal in every check, so an equality procedure that said
Equal too readily would still pass it.  Two controls have known answers:

* mirror: the right side acts by cable(mirror(s), widths) in place of
  cable(s, widths).  The verdict must be Equal exactly when the two cabled
  braids are equal, which `tests/dynnikov.py` decides with no code shared
  with the normalizer.
* forgetful: sending C+ and C- to C maps BC±I into BCI, where the action
  sees only a word's permutation, which a word and its mirror share.  So
  both sides of either law, forgotten, must be Equal in BCI, whatever the
  braided verdict.

`check_equivariance` decides each side as a lambda term over the cached
normal forms of its parts, so the controls also hold each verdict, law and
mirror, to the one `comb.comb_equal` gets on the raw sides: the combinator
expressions the law states, in which every element is itself (`law_sides`).

Neither control can see a swapped crossing sign in `Signature.exchange`:
the law and its mirror are symmetric under exchanging every σ with σ⁻¹, so
every verdict comes out the same.  `test_comb.py::test_exchange` guards the
sign.
"""

import itertools
import random

import dynnikov
from operadforge import comb, operad
from operadforge import normalize as normalize_module
from operadforge.acceptance import _words
from operadforge.braids import BraidWord, cable, underlying_permutation
from operadforge.normalize import Verdict
from test_operad import group_action


def checks(count, seed=0, sig=comb.BCPMI):
    """`count` cells of criterion 11's grid whose word has a letter, drawn
    with a seeded generator, on pools built as acceptance.criterion_11
    builds them from the same seed, in `sig`: (f, gs, s) per cell."""
    rng = random.Random(seed)
    pools = {
        m: [operad.sample_operad_elem(m, sig, rng) for _ in range(8)]
        for m in range(4)
    }
    cells = [
        (k, word, js, i)
        for k in (1, 2, 3)
        for word in _words(k, 2)
        if word
        for js in itertools.product((0, 1, 2), repeat=k)
        for i in range(8)
    ]
    for k, word, js, i in random.Random(seed).sample(cells, count):
        gs = [pools[j][(i + off + 1) % 8] for off, j in enumerate(js)]
        yield pools[k][i], gs, BraidWord(k, word)


def mirror(s):
    return BraidWord(s.strands, tuple(-a for a in s.letters))


def forget(c):
    """The image of a BC±I expression in BCI."""
    if c in (comb.CPLUS, comb.CMINUS):
        return comb.C
    if isinstance(c, comb.CApp):
        return comb.CApp(forget(c.fn), forget(c.arg))
    if isinstance(c, comb.Bullet):
        return comb.Bullet(forget(c.arg))
    return c


def law_sides(f, gs, s, sig):
    """The two sides of the law as the combinator expressions it states,
    (f . s)(g_1, .., g_k) and f(g_perm(1), .., g_perm(k)) . cable(s, widths),
    with the cabling by `operad.cable`, so that a control that replaces it
    for the check replaces it here too."""
    perm = underlying_permutation(s)
    permuted = [gs[perm[i - 1] - 1] for i in range(1, f.m + 1)]
    cabled = operad.cable(s, [g.m for g in gs])
    lhs = operad.operad_compose(group_action(f, s, sig), gs, sig)
    rhs = group_action(operad.operad_compose(f, permuted, sig), cabled, sig)
    return lhs.elem, rhs.elem


def decided(f, gs, s, sig):
    """(lhs, rhs, verdict): the raw sides and check_equivariance's verdict."""
    return (*law_sides(f, gs, s, sig), operad.check_equivariance(f, gs, s, sig))


def mirrored_cable(s, widths):
    return cable(mirror(s), widths)


def test_mirror_and_forgetful_controls(monkeypatch):
    verdicts = {Verdict.EQUAL: 0, Verdict.NOT_EQUAL: 0}
    sides = []
    for f, gs, s in checks(120):
        widths = [g.m for g in gs]
        sides.append(decided(f, gs, s, comb.BCPMI))
        assert sides[-1][2] is Verdict.EQUAL
        with monkeypatch.context() as m:
            m.setattr(operad, "cable", mirrored_cable)
            sides.append(decided(f, gs, s, comb.BCPMI))
        got = sides[-1][2]
        same = dynnikov.equal(cable(s, widths), cable(mirror(s), widths))
        assert got is (Verdict.EQUAL if same else Verdict.NOT_EQUAL), (s, widths)
        verdicts[got] += 1
    # the mirror control has bite both ways
    assert min(verdicts.values()) >= 30, verdicts
    assert len(sides) == 240
    for lhs, rhs, v in sides:
        # the verdict the raw sides get
        assert comb.comb_equal(lhs, rhs, comb.BCPMI) is v
        assert comb.comb_equal(forget(lhs), forget(rhs), comb.BCI) is Verdict.EQUAL


def skewed_cable(s, widths):
    return cable(BraidWord(s.strands, s.letters + (1,)), widths)


def test_linear_verdicts_match_the_raw_sides(monkeypatch):
    """The law in BCI holds in every cell, and fails when the cabling is
    followed by one more crossing of its first two strands, which carry
    different parts; each verdict must be the one the raw sides get.  Each
    cell's word first acts in BCpmI, so a part cache that did not tell the
    signatures apart would hand BCI a braided normal form."""
    pools = {
        sig: {m: [operad.sample_operad_elem(m, sig, rng) for _ in range(4)] for m in range(4)}
        for sig, rng in ((comb.BCI, random.Random(4)), (comb.BCPMI, random.Random(5)))
    }
    verdicts = {Verdict.EQUAL: 0, Verdict.NOT_EQUAL: 0}
    for k in (2, 3):
        for word in _words(k, 1):
            for js in itertools.product((1, 2), repeat=k):
                f, gs = {}, {}
                for sig, pool in pools.items():
                    f[sig] = pool[k][len(word) % 4]
                    gs[sig] = [pool[j][(off + 1) % 4] for off, j in enumerate(js)]
                s = BraidWord(k, word)
                braided = operad.check_equivariance(f[comb.BCPMI], gs[comb.BCPMI], s, comb.BCPMI)
                assert braided is Verdict.EQUAL
                cell = (f[comb.BCI], gs[comb.BCI], s, comb.BCI)
                found = [decided(*cell)]
                with monkeypatch.context() as m:
                    m.setattr(operad, "cable", skewed_cable)
                    found.append(decided(*cell))
                assert [v for _, _, v in found] == [Verdict.EQUAL, Verdict.NOT_EQUAL]
                for lhs, rhs, v in found:
                    assert comb.comb_equal(lhs, rhs, comb.BCI) is v
                    verdicts[v] += 1
    assert verdicts == {Verdict.EQUAL: 52, Verdict.NOT_EQUAL: 52}


def test_contraction_and_traversal_counts(monkeypatch):
    """A tripwire for the work normalization does: a binder group takes its
    arguments in one traversal, the binders contracted match what
    contracting one binder per traversal contracts, and each part is
    normalized once (the cache starts empty, see conftest.py)."""
    traverse = normalize_module.beta_step_at
    counts = {"traversals": 0, "binders": 0}

    def counting(fn, args):
        counts["traversals"] += 1
        counts["binders"] += len(args)
        return traverse(fn, args)

    monkeypatch.setattr(normalize_module, "beta_step_at", counting)
    for f, gs, s in checks(150, seed=1):
        assert operad.check_equivariance(f, gs, s, comb.BCPMI) is Verdict.EQUAL
    # one binder per traversal makes 6,483 traversals (the stepping oracle,
    # tests/normalize_oracle.py, on the same 426 normalize inputs)
    assert counts == {"traversals": 2_928, "binders": 6_483}


def reparsed(t):
    """An operad element equal to t, built afresh from its printed source."""
    return operad.OperadElem(comb.parse_cterm(comb.format_cterm(t.elem)), t.m)


def test_equal_parts_share_one_cache_entry():
    """The part cache is keyed by value: the same cell rebuilt from source
    (equal, distinct objects) is all hits."""
    for f, gs, s in checks(20, seed=2):
        copy = (reparsed(f), [reparsed(g) for g in gs], BraidWord(s.strands, s.letters))
        assert copy[0] == f and copy[0].elem is not f.elem
        assert operad.check_equivariance(f, gs, s, comb.BCPMI) is Verdict.EQUAL
        misses = operad._part.cache_info().misses
        assert operad.check_equivariance(*copy, comb.BCPMI) is Verdict.EQUAL
        assert operad._part.cache_info().misses == misses
    assert operad._part.cache_info().misses > 0


def test_action_word_is_built_only_on_a_miss(monkeypatch):
    """An action part is keyed by its word, so its element is built only
    when the word's part is not cached."""
    action_word = operad.action_word
    built = []

    def counting(s, sig):
        built.append(s)
        return action_word(s, sig)

    monkeypatch.setattr(operad, "action_word", counting)
    for f, gs, s in checks(20, seed=3):
        before = len(built)
        assert operad.check_equivariance(f, gs, s, comb.BCPMI) is Verdict.EQUAL
        assert operad.check_equivariance(f, gs, s, comb.BCPMI) is Verdict.EQUAL
        # the first check builds at most the word's and the cabled word's
        # actions; the second builds none
        assert len(built) - before <= 2
        assert len(built) == len(set(built))
    assert built


def test_cartesian_parts_are_raw_images():
    """In the cartesian signature a part enters as its own image, not its
    normal form, and each verdict is the one the raw sides get."""
    e = comb.parse_cterm("B I I")
    image = comb.to_lambda(e, comb.BCIWK.discipline)
    assert normalize_module.normalize(image, comb.BCIWK.discipline) != image
    assert operad._part(e, comb.BCIWK) == image
    for f, gs, s in checks(100, seed=6, sig=comb.BCIWK):
        lhs, rhs, v = decided(f, gs, s, comb.BCIWK)
        assert v is Verdict.EQUAL
        assert comb.comb_equal(lhs, rhs, comb.BCIWK) is v
