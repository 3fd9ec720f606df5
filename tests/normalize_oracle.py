"""Reference beta/eta normalizer: the step-and-rescan stepper.

Each beta step searches the whole term from the root for its
leftmost-outermost (or leftmost-innermost) redex, contracts it by
substitution followed by a downward shift, rebuilds the path back to the
root and re-canonicalizes the whole term's braids.  Eta contraction then
steps the same way, outermost redex first, to a fixed point.
`operadforge.normalize.normalize` contracts the same beta redexes in the
same order in one pass, and contracts eta as that pass rebuilds each
abstraction; this module is the differential oracle that checks it, and
the second strategy that strategy-independence tests compare against.

A reference equality on normal forms lives here too: `braid_canonicalize`
copies a normal form into a braid-free skeleton and a dict of slot words
keyed by path, and `forms_equal` compares two such copies.
`operadforge.normalize.canonical_equal` decides the same by one walk over
both terms, with no copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from operadforge.braids import BraidWord, braid_equal, cable, remove_strand_one, trivial
from operadforge.normalize import (
    DEFAULT_FUEL,
    SIZE_CAP,
    FuelExhausted,
    Verdict,
    canon_braids,
)
from operadforge.terms import (
    App,
    BraidNode,
    Const,
    Context,
    Discipline,
    DisciplineError,
    Lam,
    LTerm,
    TermError,
    Var,
    bind_context,
    canon_wrap,
    check_discipline,
    shift,
    wires,
)


def subst(t: LTerm, level: int, arg: LTerm) -> LTerm:
    """Substitute arg for Var(level) in t (arg already lifted to t's depth).

    Under a braid node the strand carrying the substituted variable is
    replaced by as many parallel strands as arg has wires (width 0 deletes
    it), by cabling the word.
    """
    if t.max_free <= level:
        return t
    if isinstance(t, Var):
        return arg if t.index == level else t
    if isinstance(t, Const):
        return t
    if isinstance(t, Lam):
        return Lam(subst(t.body, level + 1, shift(arg, 1)))
    if isinstance(t, App):
        return App(subst(t.fn, level, arg), subst(t.arg, level, arg))
    if isinstance(t, BraidNode):
        outer = wires(t)
        if level not in outer:
            return BraidNode(t.braid, subst(t.body, level, arg))
        if outer.count(level) != 1:
            raise DisciplineError("duplicated wire under a braid node")
        pos = outer.index(level)
        strand = len(outer) - pos
        widths = [1] * len(outer)
        widths[strand - 1] = len(wires(arg))
        return BraidNode(cable(t.braid, widths), subst(t.body, level, arg))
    raise TermError(f"unknown node {t!r}")


def beta_step_at(fn: Lam, arg: LTerm) -> LTerm:
    """Contract the redex (\\x.body) arg."""
    return shift(subst(fn.body, 0, shift(arg, 1)), -1)


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
    steps, size = 0, t.size
    while True:
        r = _find_and_reduce(t, innermost=False)
        if r is None:
            return t
        steps += 1
        if steps > fuel:
            raise FuelExhausted(f"no beta-normal form within {fuel} steps")
        if r.size - size > SIZE_CAP:  # growth past the input's own size
            raise FuelExhausted(f"term grew past {SIZE_CAP} extra nodes after {steps} steps")
        t = r


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
                return canon_wrap(reduced, shift(body.body.fn, -1))
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


def normalize(
    t: LTerm,
    d: Discipline,
    fuel: int = DEFAULT_FUEL,
    ctx: Context = Context(),
    innermost: bool = False,
) -> LTerm:
    """Beta-normal, maximally eta-contracted form of t, by stepping."""
    check_discipline(t, d, ctx)
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


def forms_equal(a: CanonicalForm, b: CanonicalForm) -> Verdict:
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
