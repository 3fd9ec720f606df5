"""Beta/eta normalization and per-discipline equality decisions.

Beta normalization is one normal-order pass: contract head redexes until the
head is a variable, a constant or an abstraction with nothing applied, then
normalize the arguments left to right, and the bodies of abstractions.  The
redexes contracted, and their order, are those of leftmost-outermost
stepping, which contracts a head binder group binder after binder: in
every discipline the group is contracted with every argument it can take
in one traversal of its body (`terms.beta_step_at`), which leaves the term
as contracting its binders one at a time would.  The input is checked
first, and contraction keeps the discipline, so in the exactly-once
disciplines every binder is used once, every contraction strictly shrinks
the term, and normalization needs no fuel.  The cartesian discipline counts
each binder as a step against a fuel bound and the growth past the input's
size against a cap, and reports exhaustion.

Braided terms keep their braid nodes in canonical slots: directly under the
innermost binder of each binder group, or at the root.  Reducts are built
canonical: `terms.beta_step_at` applies the node rules (`terms.canon_app`,
`terms.canon_wrap`) at every node it rebuilds, and the braid a reduct sheds
joins its slot's word, as canonicalizing the whole term after the step
would.  The nodes the pass builds carry the `canon` flag, so its output is
not canonicalized again.

A normal form is a fixed point of the pass, so the pass marks every node it
returns `normal` (see `terms`) and returns a marked term unchanged.  A
contraction keeps the subterms it does not touch, and `shift` keeps their
mark, so a normal argument substituted into a normal body is not walked
again: only the nodes the contraction rebuilt are.

Eta contraction happens in the same pass, bottom-up: each abstraction the
pass rebuilds goes through the one-node rule `eta_contract`, innermost
binder first.  In a beta-normal term an eta contraction creates no beta
redex, and the only eta redex it can expose is at its parent, which the
pass rebuilds next; so the output is eta-normal.  An eta step under a braid
fires only when the bound wire's strand is provably unentangled (its
reduced word avoids the first strand), and the braid it leaves in argument
position joins its slot's word like a reduct's.

Two normal forms are compared by one walk over both in lockstep
(`canonical_equal`).  Where a braid sits is not unique: one whose crossings
avoid a binder's strand may sit above the binder or under it, and two
reduction strategies can leave it in different places.  So the walk does
not compare slot words; it carries a pending braid delta, meaning "a equals
b followed by delta", trivial at the root:

* at a braid node, delta absorbs both words: w_b, then delta, then the
  inverse of w_a (a missing node counts as trivial);
* under an abstraction, delta gains the bound wire as strand 1
  (`shift_strands`);
* at an application, delta must be the direct sum of a braid on the
  argument's strands and one on the function's.  Each part is delta with
  the other block's strands deleted (`cable` with widths 0 and 1); the
  verdict is NotEqual unless delta keeps the two blocks and equals the sum
  of its parts, and each part goes down its own side.

Node types must match and leaves be equal.  Each move is a node rule read
backwards, so an Equal verdict is sound; the word problem decides each
braid equality.  Delta stays None while trivial, so braid-free terms, which
all disciplines but the braided one have, walk with no braid arithmetic.
"""

from __future__ import annotations

import enum
import sys
from functools import reduce

from .braids import (
    BraidWord,
    braid_compose,
    braid_equal,
    braid_inverse,
    braid_is_trivial,
    cable,
    direct_sum,
    remove_strand_one,
    shift_strands,
    trivial,
    underlying_permutation,
)
from .terms import (
    App,
    BraidNode,
    Context,
    Discipline,
    LTerm,
    Lam,
    Var,
    app,
    beta_step_at,
    bind_context,
    canon_app,
    canon_wrap,
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

# Divergent cartesian terms can double in size per step; cap growth past the
# input's size so a doomed reduction fails fast instead of exhausting memory.
SIZE_CAP = 10_000

_MIN_RECURSION = 30_000
if sys.getrecursionlimit() < _MIN_RECURSION:
    sys.setrecursionlimit(_MIN_RECURSION)


# -- canonical braid placement -------------------------------------------------

def canon_braids(t: LTerm) -> LTerm:
    """Float braid nodes to canonical slots.

    After this pass a braid node only wraps a non-Lam body and never sits in
    the function or argument position of an application, so beta redexes are
    syntactically visible.  The node rules are `terms.canon_app` and
    `terms.canon_wrap`: applications lift their children's braids
    (block-shifted), Lams swallow braids from above (strand-shifted by one),
    and adjacent braids fuse (inner word first).
    """
    if t.canon:
        return t
    out = _canon(t)
    out.canon = True
    return out


def _canon(t: LTerm) -> LTerm:
    """Canonical form of t, which is t itself when no rule fires under it."""
    if isinstance(t, Lam):
        body = canon_braids(t.body)
        return t if body is t.body else Lam(body)
    if isinstance(t, App):
        out = canon_app(canon_braids(t.fn), canon_braids(t.arg))
        same = type(out) is App and out.fn is t.fn and out.arg is t.arg
    else:  # a BraidNode: leaves are canonical, so `canon_braids` returned them
        out = canon_wrap(t.braid, canon_braids(t.body))
        same = type(out) is BraidNode and out.braid is t.braid and out.body is t.body
    return t if same else out


# -- beta reduction -------------------------------------------------------------

class _Slot:
    """Where the braids shed by contractions in a binder group's body (or in
    the root) land: the braid word over that body, None when trivial, and
    the body as the pass found it.  Contracting exactly-once redexes keeps
    every wire, so that body's wire count is the word's width throughout."""

    __slots__ = ("word", "body")

    def __init__(self, word: BraidWord | None, body: LTerm):
        self.word = word
        self.body = body

    def shed(self, r: LTerm, right: tuple | None) -> LTerm:
        """Lift the braid of the reduct r, if it has one, into the slot
        word, in front of it; returns r without it.

        `right` is the chain (terms, start, outer) of the terms to the
        reduct's right in the slot's body: terms[start:], then outer's.
        Their wires ride the strands below the reduct's.
        """
        if type(r) is not BraidNode:
            return r
        w = r.braid
        k = 0
        while right is not None:
            seq, start, right = right
            for u in seq[start:]:
                k += len(wires(u))
        width = self.word.strands if self.word is not None else len(wires(self.body))
        lifted = direct_sum([trivial(k), w, trivial(width - k - w.strands)])
        if self.word is None:
            self.word = lifted
        else:
            word = braid_compose(lifted, self.word)
            self.word = None if braid_is_trivial(word) else word
        return r.body


class _NormalOrder:
    """One normal-order pass: contract head redexes, then normalize the
    arguments left to right, and eta-contract each abstraction as it is
    rebuilt.

    This contracts the leftmost-outermost redexes, in the order stepping
    from the root would, without rescanning the normal prefix.  The head's
    binder group takes all the stacked arguments it can in one
    `beta_step_at`, whose reduct is that of the single contractions; it
    comes out canonical and the braid it sheds is lifted into its slot
    (`_Slot.shed`), which leaves the term exactly as canonicalizing it whole
    after each step would.  The pass expects a checked term, in which each
    exactly-once binder occurs once; `_contract` asserts it of every group
    it contracts.  With `fuel` set (cartesian) each binder is a step, and
    the steps and the growth past the input's size are kept up to date
    against the fuel and SIZE_CAP.  Eta contractions are not counted
    against them: they shrink only finished parts of the term, which no
    later redex contains.
    """

    def __init__(self, fuel: int | None):
        self.fuel = fuel
        self.grown = 0
        self.steps = 0

    def scope(self, t: LTerm) -> LTerm:
        """Normal form of t, the content of a slot (the root or a λ body);
        the binders of t's leading abstractions are eta-contracted
        innermost first, each after the body under it is final."""
        if t.normal:
            return t
        binders = 0
        while True:
            word = None
            if isinstance(t, BraidNode):
                word, t = t.braid, t.body
            slot = _Slot(word, t)
            head, stack = self._head(t, slot, None)
            if stack or not isinstance(head, Lam):
                break
            # the body became a λ: the slot word moves under the binder
            if slot.word is not None:
                head = canon_wrap(slot.word, head)
            binders += 1
            t = head.body
        body = self._args(head, stack, slot, None)
        if slot.word is not None:
            body = BraidNode(slot.word, body, canon=body.canon)
        for _ in range(binders):
            body = eta_contract(Lam(body))
        body.normal = True
        return body

    def _nf(self, t: LTerm, slot: _Slot, right: tuple | None) -> LTerm:
        """Normal form of t, an argument inside slot's body.  An
        abstraction is eta-contracted once its body is final; a braid the
        contraction leaves lifts into the slot, as a reduct's does.  A
        marked t is its own normal form, and no braid of it lifts, since a
        canonical argument has none at its root."""
        if t.normal:
            return t
        head, stack = self._head(t, slot, right)
        if not stack and isinstance(head, Lam):
            out = slot.shed(eta_contract(Lam(self.scope(head.body))), right)
            out.normal = True
            return out
        return self._args(head, stack, slot, right)

    def _head(self, t: LTerm, slot: _Slot, right: tuple | None) -> tuple[LTerm, list]:
        """Contract t's head redexes; returns the head and the arguments,
        the first one last."""
        stack = []
        while True:
            while isinstance(t, App):
                stack.append(t.arg)
                t = t.fn
            if not (stack and isinstance(t, Lam)):
                return t, stack
            t = self._contract(t, stack, slot, (stack, 0, right))

    def _args(self, head: LTerm, stack: list, slot: _Slot, right: tuple | None) -> LTerm:
        """head, a variable or a constant, applied to the normal forms of
        the arguments on the stack."""
        args = stack[::-1]
        for j, a in enumerate(args):
            args[j] = self._nf(a, slot, (args, j + 1, right))
        out = app(head, *args)
        out.normal = True
        return out

    def _contract(self, fn: Lam, stack: list, slot: _Slot, right: tuple) -> LTerm:
        """Contract the g >= 1 binders of fn's group that have an argument
        on top of the stack in one `beta_step_at`, and pop those arguments.
        Exactly-once: `beta_step_at` must find each binder once.  Counting
        fuel: each binder is a step and grows the term by uses * (|a| - 1) -
        |a| - 2, as its own contraction would.  The group is cut so that only
        its last binder can pass the fuel, and to one binder unless the
        bound body.size * max |a| on its growth keeps it inside SIZE_CAP; so
        fuel and cap fire at the binder where stepping fires them."""
        g, body = 1, fn.body
        while g < len(stack) and type(body) is Lam:
            g, body = g + 1, body.body
        if self.fuel is not None:
            g = min(g, self.fuel - self.steps + 1)
            if g > 1 and self.grown + body.size * max(a.size for a in stack[-g:]) > SIZE_CAP:
                g = 1
        args = stack[: -g - 1 : -1]
        r, uses = beta_step_at(fn, args)
        del stack[-g:]
        if self.fuel is None:
            if uses.count(1) != g:
                raise AssertionError(f"exactly-once binders used {uses} times")
            return slot.shed(r, right)
        self.steps += g
        if self.steps > self.fuel:
            raise FuelExhausted(f"no beta-normal form within {self.fuel} steps")
        for u, a in zip(uses, args):
            self.grown += u * (a.size - 1) - a.size - 2
        if self.grown > SIZE_CAP:
            raise FuelExhausted(f"term grew past {SIZE_CAP} extra nodes after {self.steps} steps")
        return r


# -- eta contraction -------------------------------------------------------------

def eta_contract(t: Lam) -> LTerm:
    """The eta rule at one abstraction of a beta-normal canonical term:
    \\x. M x -> M when x is not free in M, and t itself otherwise.

    Under a braid the rule fires only when the bound wire's strand can be
    removed from the word; what is left of the braid stays over M.
    """
    body = t.body
    word = None
    if type(body) is BraidNode:
        word, body = body.braid, body.body
    x = body.arg if type(body) is App else None
    if type(x) is not Var or x.index != 0 or 0 in wires(body.fn):
        return t
    if word is None:
        return shift(body.fn, -1)
    reduced = remove_strand_one(word)
    if reduced is None:
        return t
    return canon_wrap(reduced, shift(body.fn, -1))


# -- normalization ---------------------------------------------------------------

def normalize(
    t: LTerm, d: Discipline, fuel: int = DEFAULT_FUEL, ctx: Context = Context()
) -> LTerm:
    """Beta-normal, maximally eta-contracted form of t, which must be
    well-formed under d in ctx (else DisciplineError).

    Exactly-once disciplines ignore fuel (termination is structural);
    cartesian reduction is normal-order and raises FuelExhausted.  The
    result carries the `normal` mark, so normalizing it again returns it.
    """
    check_discipline(t, d, ctx)
    t = bind_context(t, ctx)
    return _NormalOrder(None if d.exactly_once else fuel).scope(canon_braids(t))


# -- the equality oracle -------------------------------------------------------------

def lam_equal(t1: LTerm, t2: LTerm, d: Discipline, fuel: int = DEFAULT_FUEL) -> Verdict:
    """Decide t1 = t2 in the beta-eta theory of discipline d.  Both sides
    are checked before either is normalized, so an ill-formed side raises
    DisciplineError even when the other runs out of fuel; `normalize`'s own
    check then finds each side's cached pass."""
    check_discipline(t1, d)
    check_discipline(t2, d)
    try:
        n1 = normalize(t1, d, fuel=fuel)
        n2 = normalize(t2, d, fuel=fuel)
    except FuelExhausted:
        return Verdict.FUEL_EXHAUSTED
    return canonical_equal(n1, n2)


def canonical_equal(t1: LTerm, t2: LTerm) -> Verdict:
    """Decide equality of two normal forms of the same discipline: one walk
    over both in lockstep with a pending braid (see the module docstring)."""
    todo = [(canon_braids(t1), canon_braids(t2), None)]
    while todo:
        a, b, delta = todo.pop()
        if a is b and delta is None:  # one normal form met twice, as parts are
            continue
        if type(a) is BraidNode or type(b) is BraidNode:
            # w_b, then delta, then the inverse of w_a
            words = [] if delta is None else [delta]
            if type(b) is BraidNode:
                words.insert(0, b.braid)
                b = b.body
            if type(a) is BraidNode:
                words.append(braid_inverse(a.braid))
                a = a.body
            if len({w.strands for w in words}) > 1:
                return Verdict.NOT_EQUAL
            delta = reduce(braid_compose, words)
            if braid_is_trivial(delta):
                delta = None
        if type(a) is not type(b):
            return Verdict.NOT_EQUAL
        if type(a) is Lam:
            todo.append((a.body, b.body, None if delta is None else shift_strands(delta, 1)))
        elif type(a) is App:
            if delta is None:
                todo.append((a.arg, b.arg, None))
                todo.append((a.fn, b.fn, None))
                continue
            n = len(wires(a.arg))
            split = _split(delta, n) if n == len(wires(b.arg)) else None
            if split is None:
                return Verdict.NOT_EQUAL
            todo.append((a.arg, b.arg, split[0]))
            todo.append((a.fn, b.fn, split[1]))
        elif a != b:
            return Verdict.NOT_EQUAL
    return Verdict.EQUAL


def _split(delta: BraidWord, n: int) -> tuple[BraidWord | None, BraidWord | None] | None:
    """delta over an application whose argument rides strands 1..n (n may be
    all of them), as the pair (argument part, function part), each None when
    trivial; None when delta is not the direct sum of its two parts."""
    if n == 0:
        return None, delta
    if any(k > n for k in underlying_permutation(delta)[:n]):
        return None
    rest = delta.strands - n
    arg = cable(delta, [1] * n + [0] * rest)
    fn = cable(delta, [0] * n + [1] * rest)
    if not braid_equal(delta, direct_sum([arg, fn])):
        return None
    return (
        None if braid_is_trivial(arg) else arg,
        None if braid_is_trivial(fn) else fn,
    )
