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

`check_equivariance` enters its elements as cached normal forms
(`comb.NormalLeaf`), so the controls also hold each verdict, law and mirror,
to the one the raw sides get, in which every element is itself.

Neither control can see a swapped crossing sign in `Signature.exchange`:
the law and its mirror are symmetric under exchanging every σ with σ⁻¹, so
every verdict comes out the same.  `test_comb.py::test_exchange` guards the
sign.
"""

import itertools
import random

import pytest

import dynnikov
from operadforge import comb, operad
from operadforge import normalize as normalize_module
from operadforge.acceptance import _words
from operadforge.braids import BraidWord, cable
from operadforge.normalize import Verdict


def checks(count, seed=0):
    """`count` cells of criterion 11's grid whose word has a letter, drawn
    with a seeded generator, on pools built as acceptance.criterion_11
    builds them from the same seed: (f, gs, s) per cell."""
    rng = random.Random(seed)
    pools = {
        m: [operad.sample_operad_elem(m, comb.BCPMI, rng) for _ in range(8)]
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
    """The image of a BC±I expression in BCI; an element entered as a leaf
    stays a leaf, of its own image in BCI."""
    if c in (comb.CPLUS, comb.CMINUS):
        return comb.C
    if isinstance(c, comb.CApp):
        return comb.CApp(forget(c.fn), forget(c.arg))
    if isinstance(c, comb.Bullet):
        return comb.Bullet(forget(c.arg))
    if isinstance(c, comb.NormalLeaf):
        return comb.NormalLeaf(forget(c.elem), comb.BCI)
    return c


def raw(c):
    """c with each element entered as a leaf put back as itself."""
    if isinstance(c, comb.CApp):
        return comb.CApp(raw(c.fn), raw(c.arg))
    if isinstance(c, comb.Bullet):
        return comb.Bullet(raw(c.arg))
    if isinstance(c, comb.NormalLeaf):
        return raw(c.elem)
    return c


@pytest.fixture
def sides(monkeypatch):
    """The (lhs, rhs, verdict) triples that check_equivariance decides, in
    order."""
    seen = []

    def recording(lhs, rhs, sig, fuel=normalize_module.DEFAULT_FUEL):
        v = comb.comb_equal(lhs, rhs, sig, fuel=fuel)
        seen.append((lhs, rhs, v))
        return v

    monkeypatch.setattr(operad, "comb_equal", recording)
    return seen


def test_mirror_and_forgetful_controls(monkeypatch, sides):
    verdicts = {Verdict.EQUAL: 0, Verdict.NOT_EQUAL: 0}
    for f, gs, s in checks(120):
        widths = [g.m for g in gs]
        assert operad.check_equivariance(f, gs, s, comb.BCPMI) is Verdict.EQUAL
        with monkeypatch.context() as m:
            m.setattr(operad, "cable", lambda s, widths: cable(mirror(s), widths))
            got = operad.check_equivariance(f, gs, s, comb.BCPMI)
        same = dynnikov.equal(cable(s, widths), cable(mirror(s), widths))
        assert got is (Verdict.EQUAL if same else Verdict.NOT_EQUAL), (s, widths)
        verdicts[got] += 1
    # the mirror control has bite both ways
    assert min(verdicts.values()) >= 30, verdicts
    assert len(sides) == 240
    for lhs, rhs, v in sides:
        # the verdict the raw sides get
        assert comb.comb_equal(raw(lhs), raw(rhs), comb.BCPMI) is v
        assert comb.comb_equal(forget(lhs), forget(rhs), comb.BCI) is Verdict.EQUAL


def test_contraction_and_traversal_counts(monkeypatch):
    """A tripwire for the work normalization does: a binder group takes its
    arguments in one traversal, a saturated proper combinator is contracted
    by filling in its template, with no traversal, the binders contracted
    match what contracting one binder per traversal contracts, and each
    element is normalized once (the cache starts empty, see conftest.py)."""
    traverse, fill = normalize_module.beta_step_at, normalize_module.fill_template
    counts = {"traversals": 0, "templates": 0, "binders": 0}

    def counted(key, contract):
        def counting(fn, args):
            counts[key] += 1
            counts["binders"] += len(args)
            return contract(fn, args)

        return counting

    monkeypatch.setattr(normalize_module, "beta_step_at", counted("traversals", traverse))
    monkeypatch.setattr(normalize_module, "fill_template", counted("templates", fill))
    for f, gs, s in checks(150, seed=1):
        assert operad.check_equivariance(f, gs, s, comb.BCPMI) is Verdict.EQUAL
    # one traversal per group made 4,538 traversals, and one binder per
    # traversal 10,627; normalizing every element inside both sides of each
    # check made 3,727 traversals, 6,572 templates and 24,569 binders
    assert counts == {"traversals": 2_349, "templates": 2_189, "binders": 10_627}
