"""Beta/eta normalization and per-discipline equality decisions.

For the exactly-once disciplines every beta step strictly shrinks the term,
so normalization needs no fuel; the cartesian discipline reduces in
normal order under a fuel bound and reports exhaustion.

Braided terms normalize in three phases: braid nodes are floated to canonical
slots (directly under the innermost binder of each binder group, or at the
root), beta/eta steps run with braid-aware substitution, and the result is
read off as a skeleton plus one braid word per slot.  Equality then compares
skeletons structurally and slot words by the braid-group word problem.  An
eta step under a braid fires only when the bound wire's strand is provably
unentangled (its reduced word avoids the first strand).
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field

from .braids import (
    BraidWord,
    braid_compose,
    braid_equal,
    braid_is_trivial,
    direct_sum,
    remove_strand_one,
    shift_strands,
    trivial,
)
from .terms import (
    App,
    BraidNode,
    Const,
    Context,
    Discipline,
    DisciplineError,
    LTerm,
    Lam,
    TermError,
    Var,
    beta_step_at,
    bind_context,
    check_discipline,
    shift,
    wires,
)


class Verdict(enum.Enum):
    EQUAL = "Equal"
    NOT_EQUAL = "NotEqual"
    FUEL_EXHAUSTED = "FuelExhausted"

    def __str__(self) -> str:
        return self.value


class FuelExhausted(Exception):
    """Cartesian normalization ran out of beta steps (or grew past the size
    cap before doing so, which spends the budget just as surely)."""


DEFAULT_FUEL = 10_000

# Divergent cartesian terms can double in size per step; cap growth so a
# doomed reduction fails fast instead of exhausting memory or the stack.
SIZE_CAP = 10_000

_MIN_RECURSION = 30_000
if sys.getrecursionlimit() < _MIN_RECURSION:
    sys.setrecursionlimit(_MIN_RECURSION)


# -- canonical braid placement -------------------------------------------------

def _strip_braid(t: LTerm) -> tuple[BraidWord | None, LTerm]:
    if isinstance(t, BraidNode):
        return t.braid, t.body
    return None, t


def _wrap(word: BraidWord | None, t: LTerm) -> LTerm:
    if word is None or braid_is_trivial(word):
        return t
    return BraidNode(word, t)


def canon_braids(t: LTerm) -> LTerm:
    """Float braid nodes to canonical slots.

    After this pass a braid node only wraps a non-Lam body and never sits in
    the function or argument position of an application, so beta redexes are
    syntactically visible.  Node identity: applications lift their children's
    braids (block-shifted), Lams swallow braids from above (strand-shifted by
    one), and adjacent braids fuse (inner word first).
    """
    if t.canon or not t.has_braid:
        t.canon = True
        return t
    out = _canon(t)
    out.canon = True
    return out


def _canon(t: LTerm) -> LTerm:
    if isinstance(t, (Var, Const)):
        return t
    if isinstance(t, Lam):
        return Lam(canon_braids(t.body))
    if isinstance(t, App):
        fn = canon_braids(t.fn)
        arg = canon_braids(t.arg)
        wf, fn = _strip_braid(fn)
        wa, arg = _strip_braid(arg)
        word = None
        if wf is not None or wa is not None:
            nf = len(wires(fn))
            na = len(wires(arg))
            lifted_f = shift_strands(wf, na) if wf is not None else trivial(nf + na)
            lifted_a = direct_sum([wa, trivial(nf)]) if wa is not None else trivial(nf + na)
            word = braid_compose(lifted_a, lifted_f)
        return _wrap(word, App(fn, arg))
    if isinstance(t, BraidNode):
        body = canon_braids(t.body)
        word = t.braid
        while isinstance(body, BraidNode):
            word = braid_compose(body.braid, word)
            body = body.body
        if isinstance(body, Lam):
            # push under the binder: the bound wire becomes strand 1
            return canon_braids(Lam(BraidNode(shift_strands(word, 1), body.body)))
        if braid_is_trivial(word):
            return body
        return BraidNode(word, body)
    raise TermError(f"unknown node {t!r}")


# -- beta reduction -------------------------------------------------------------

def _find_and_reduce(t: LTerm, innermost: bool) -> LTerm | None:
    """One beta step at the leftmost-outermost (or -innermost) redex."""
    if isinstance(t, (Var, Const)):
        return None
    if isinstance(t, App):
        if not innermost and isinstance(t.fn, Lam):
            return beta_step_at(t.fn, t.arg)
        r = _find_and_reduce(t.fn, innermost)
        if r is not None:
            return App(r, t.arg)
        r = _find_and_reduce(t.arg, innermost)
        if r is not None:
            return App(t.fn, r)
        if innermost and isinstance(t.fn, Lam):
            return beta_step_at(t.fn, t.arg)
        return None
    if isinstance(t, Lam):
        r = _find_and_reduce(t.body, innermost)
        return None if r is None else Lam(r)
    if isinstance(t, BraidNode):
        r = _find_and_reduce(t.body, innermost)
        return None if r is None else BraidNode(t.braid, r)
    raise TermError(f"unknown node {t!r}")


def _beta_normalize_once_checked(t: LTerm, innermost: bool) -> LTerm:
    """Beta-normalize an exactly-once term, asserting strict size decrease."""
    t = canon_braids(t)
    while True:
        r = _find_and_reduce(t, innermost)
        if r is None:
            return t
        r = canon_braids(r)
        if r.size >= t.size:
            raise AssertionError(
                f"beta step failed to shrink an exactly-once term: {t.size} -> {r.size}"
            )
        t = r


def _beta_normalize_fuelled(t: LTerm, fuel: int) -> LTerm:
    steps = 0
    while True:
        r = _find_and_reduce(t, innermost=False)
        if r is None:
            return t
        steps += 1
        if steps > fuel:
            raise FuelExhausted(f"no beta-normal form within {fuel} steps")
        if r.size > SIZE_CAP:
            raise FuelExhausted(
                f"term grew past {SIZE_CAP} nodes after {steps} steps"
            )
        t = r


# -- eta contraction -------------------------------------------------------------

def _eta_once(t: LTerm) -> LTerm | None:
    if isinstance(t, (Var, Const)):
        return None
    if isinstance(t, Lam):
        body = t.body
        if isinstance(body, App) and body.arg == Var(0) and 0 not in wires(body.fn):
            return shift(body.fn, -1)
        if (
            isinstance(body, BraidNode)
            and isinstance(body.body, App)
            and body.body.arg == Var(0)
            and 0 not in wires(body.body.fn)
        ):
            reduced = remove_strand_one(body.braid)
            if reduced is not None:
                return _wrap(reduced, shift(body.body.fn, -1))
        r = _eta_once(t.body)
        return None if r is None else Lam(r)
    if isinstance(t, App):
        r = _eta_once(t.fn)
        if r is not None:
            return App(r, t.arg)
        r = _eta_once(t.arg)
        return None if r is None else App(t.fn, r)
    if isinstance(t, BraidNode):
        r = _eta_once(t.body)
        return None if r is None else BraidNode(t.braid, r)
    raise TermError(f"unknown node {t!r}")


def eta_contract(t: LTerm) -> LTerm:
    """Apply \\x.M x -> M (x not free in M) to a fixed point.

    Under a braid the step fires only when the bound wire's strand can be
    removed from the word; the remaining braid stays in place.
    """
    while True:
        r = _eta_once(t)
        if r is None:
            return canon_braids(t)
        t = canon_braids(r)


# -- normalization ---------------------------------------------------------------

def normalize(
    t: LTerm,
    d: Discipline,
    fuel: int = DEFAULT_FUEL,
    ctx: Context = Context(),
    innermost: bool = False,
    check: bool = True,
) -> LTerm:
    """Beta-normal, maximally eta-contracted form of t.

    Exactly-once disciplines ignore fuel (termination is structural);
    cartesian reduction is normal-order and raises FuelExhausted.
    """
    if check:
        r = check_discipline(t, d, ctx)
        if not r.ok:
            raise DisciplineError(r.message)
    t = bind_context(t, ctx)
    if d.exactly_once:
        t = _beta_normalize_once_checked(t, innermost)
    else:
        t = _beta_normalize_fuelled(t, fuel)
    return eta_contract(t)


# -- canonical forms for braided terms ---------------------------------------------

@dataclass
class CanonicalForm:
    """Skeleton with braid words keyed by slot path.

    Slot paths are strings over {L, F, A} (Lam body / App function / App
    argument) addressing the node the braid wraps in the skeleton.  Trivial
    words are omitted.
    """

    skeleton: LTerm
    braids: dict[str, BraidWord] = field(default_factory=dict)

    def rebuild(self) -> LTerm:
        def go(u: LTerm, path: str) -> LTerm:
            here = self.braids.get(path)
            if isinstance(u, Lam):
                out: LTerm = Lam(go(u.body, path + "L"))
            elif isinstance(u, App):
                out = App(go(u.fn, path + "F"), go(u.arg, path + "A"))
            else:
                out = u
            return BraidNode(here, out) if here is not None else out

        return go(self.skeleton, "")


def braid_canonicalize(t: LTerm) -> CanonicalForm:
    """Canonical form of a beta-normal braided term."""
    t = canon_braids(t)
    braids: dict[str, BraidWord] = {}

    def go(u: LTerm, path: str) -> LTerm:
        if isinstance(u, BraidNode):
            braids[path] = u.braid
            u = u.body
        if isinstance(u, Lam):
            return Lam(go(u.body, path + "L"))
        if isinstance(u, App):
            return App(go(u.fn, path + "F"), go(u.arg, path + "A"))
        if isinstance(u, BraidNode):
            raise AssertionError("adjacent braids survived canonicalization")
        return u

    skeleton = go(t, "")
    return CanonicalForm(skeleton, braids)


def canonical_equal(a: CanonicalForm, b: CanonicalForm) -> Verdict:
    if a.skeleton != b.skeleton:
        return Verdict.NOT_EQUAL
    for path in set(a.braids) | set(b.braids):
        wa = a.braids.get(path)
        wb = b.braids.get(path)
        if wa is None:
            wa = trivial(wb.strands)
        if wb is None:
            wb = trivial(wa.strands)
        if wa.strands != wb.strands or not braid_equal(wa, wb):
            return Verdict.NOT_EQUAL
    return Verdict.EQUAL


# -- the equality oracle -------------------------------------------------------------

def lam_equal(
    t1: LTerm,
    t2: LTerm,
    d: Discipline,
    fuel: int = DEFAULT_FUEL,
    ctx: Context = Context(),
) -> Verdict:
    """Decide t1 = t2 in the beta-eta theory of discipline d."""
    for t in (t1, t2):
        r = check_discipline(t, d, ctx)
        if not r.ok:
            raise DisciplineError(r.message)
    try:
        n1 = normalize(t1, d, fuel=fuel, ctx=ctx, check=False)
        n2 = normalize(t2, d, fuel=fuel, ctx=ctx, check=False)
    except FuelExhausted:
        return Verdict.FUEL_EXHAUSTED
    return normal_forms_equal(n1, n2, d)


def normal_forms_equal(n1: LTerm, n2: LTerm, d: Discipline) -> Verdict:
    """Decide equality of two normal forms of discipline d."""
    if d is Discipline.BRAIDED:
        return canonical_equal(braid_canonicalize(n1), braid_canonicalize(n2))
    return Verdict.EQUAL if n1 == n2 else Verdict.NOT_EQUAL
