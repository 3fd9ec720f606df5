"""Arities, the internal operad, group actions, and trace syntax.

An element a has arity m -> n when a* o B^{m+1} equals (B a) o B^n, where
B^k is the k-fold composition power of B (the identity when k = 0) and
composition chains associate to the right.  The internal operad at arity m
consists of the elements equal to (a I)* o B^m; its identity is I and its
binary application element is B.

Braid-group actions on operad elements encode the generator at index i as
the i-1 fold B-application of the exchange combinator (sign-matched in the
braided signature), composed onto the element letter by letter.  The free
choices in this encoding are pinned by the action laws and the equivariance
condition, which the test suite checks exhaustively on small sizes.

Multi-composition and the action are both sequential composition,
a o b = B a b, so each side of the equivariance law is a chain of parts.
`check_equivariance` decides it on the lambda terms \\x. q_1 (q_2 (.. (q_n x)))
over the parts' cached normal forms (`_part`), with no combinator
expression built per check.

Trace syntax closes wires with the primitive Tr.  Its arities are stated,
not decided, because no equality involves Tr.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .braids import BraidWord, braid_inverse, cable, permute_contents
from .comb import (
    TR,
    B,
    BCIWK,
    Bullet,
    CApp,
    CombError,
    CTerm,
    ConstRef,
    I,
    Signature,
    b_power_apply,
    b_power_element,
    capp,
    comb_equal,
    comb_normal_form,
    compose,
    format_cterm,
    from_lambda_applicative,
    parse_cterm,
    sample_closed,
    subst_consts,
    to_lambda,
)
from .normalize import DEFAULT_FUEL, Verdict, lam_equal, normalize
from .terms import App, Lam, LTerm, Var


class ArityError(CombError):
    pass


@dataclass(frozen=True)
class ArityCert:
    """An element paired with a stated arity m -> n.

    The statement is not checked on construction: `has_arity` decides it for
    an element without Tr, and for trace syntax it stays a statement.
    """

    elem: CTerm
    m: int
    n: int


@dataclass(frozen=True)
class OperadElem:
    """An element of the internal operad at a given input arity."""

    elem: CTerm
    m: int


# -- arity predicates ---------------------------------------------------------

def arity_lhs_rhs(a: CTerm, m: int, n: int) -> tuple[CTerm, CTerm]:
    if m < 0 or n < 0:
        raise ArityError(f"negative arity {m} -> {n}")
    lhs = compose(Bullet(a), b_power_element(m + 1))
    rhs = compose(CApp(B, a), b_power_element(n))
    return lhs, rhs


def has_arity(
    a: CTerm, m: int, n: int, sig: Signature, fuel: int = DEFAULT_FUEL
) -> Verdict:
    """Decide whether a is of arity m -> n in the signature's term model."""
    lhs, rhs = arity_lhs_rhs(a, m, n)
    return comb_equal(lhs, rhs, sig, fuel=fuel)


def infer_arity(
    a: CTerm, bound: int = 4, sig: Signature = BCIWK, fuel: int = DEFAULT_FUEL
) -> Optional[tuple[int, int]]:
    """Lexicographically least (m+n, m) arity within the bound, if any."""
    if bound < 0:
        raise ArityError(f"negative arity bound {bound}")
    for total in range(0, 2 * bound + 1):
        for m in range(0, total + 1):
            n = total - m
            if m > bound or n > bound:
                continue
            if has_arity(a, m, n, sig, fuel=fuel) is Verdict.EQUAL:
                return (m, n)
    return None


def membership_lhs_rhs(a: CTerm, m: int) -> tuple[CTerm, CTerm]:
    if m < 0:
        raise ArityError(f"negative arity {m}")
    return a, compose(Bullet(CApp(a, I)), b_power_element(m))


def in_internal_operad(
    a: CTerm, m: int, sig: Signature, fuel: int = DEFAULT_FUEL
) -> Verdict:
    """Membership in the internal operad at arity m: a = (a I)* o B^m."""
    lhs, rhs = membership_lhs_rhs(a, m)
    return comb_equal(lhs, rhs, sig, fuel=fuel)


def operad_elem(a: CTerm, m: int, sig: Signature, fuel: int = DEFAULT_FUEL) -> OperadElem:
    """a as an operad element at arity m, once membership is decided."""
    v = in_internal_operad(a, m, sig, fuel=fuel)
    if v is not Verdict.EQUAL:
        raise ArityError(f"{format_cterm(a)} is not in the operad at arity {m} ({v})")
    return OperadElem(a, m)


# -- operad structure -----------------------------------------------------------

ID_ELEM = OperadElem(I, 1)
APP_ELEM = OperadElem(B, 2)


def operad_compose(
    g: OperadElem,
    fs: Sequence[OperadElem],
    sig: Signature,
    verify: bool = False,
    fuel: int = DEFAULT_FUEL,
) -> OperadElem:
    """Multi-composition g(f_1, .., f_n): the composite
    f1 o (B f2) o .. o (B^{n-1} fn) o g at arity k1 + .. + kn."""
    if len(fs) != g.m:
        raise ArityError(f"need {g.m} arguments, got {len(fs)}")
    parts = argument_parts(fs)
    elem = compose(*parts, g.elem) if parts else g.elem
    out = OperadElem(elem, sum(f.m for f in fs))
    if verify:
        v = in_internal_operad(out.elem, out.m, sig, fuel=fuel)
        if v is not Verdict.EQUAL:
            raise ArityError(f"composite left the operad ({v})")
    return out


def argument_parts(fs: Sequence[OperadElem]) -> list[CTerm]:
    """B^{i-1} f_i for each i: the parts that multi-composition with
    f_1, .., f_n composes before the operation."""
    return [b_power_apply(i, f.elem) for i, f in enumerate(fs)]


def closed_lambda(t: OperadElem) -> OperadElem:
    """The closure of t in IA(m+1): the unique u in IA(m) with u o B = t."""
    if t.m < 1:
        raise ArityError("closure needs arity at least 1")
    elem = compose(Bullet(CApp(t.elem, I)), b_power_element(t.m - 1))
    return OperadElem(elem, t.m - 1)


# -- group actions ----------------------------------------------------------------

def letter_element(letter: int, sig: Signature) -> CTerm:
    """The operad element realizing the braid generator at index |letter|."""
    return b_power_apply(abs(letter) - 1, sig.exchange(letter > 0))


def action_word(s: BraidWord, sig: Signature) -> CTerm:
    """Composite realizing the action of the whole word (I for the empty
    word).  Letters accumulate by pre-composition, so concatenation of words
    matches composition of actions."""
    out: CTerm = I
    for letter in s.letters:
        out = compose(letter_element(letter, sig), out)
    return out


def check_equivariance(
    f: OperadElem,
    gs: Sequence[OperadElem],
    s: BraidWord,
    sig: Signature,
    fuel: int = DEFAULT_FUEL,
) -> Verdict:
    """The compatibility law between multi-composition and the group action:

        (f . s)(g_1, .., g_k)  =  (f(g_{s^-1(1)}, .., g_{s^-1(k)})) . s[j_1, .., j_k]

    with j_i the arity of g_i and strand i of s carrying g_i.

    Each side is a chain q_1 o .. o q_n of parts (see the module
    docstring): on the left the argument parts of the g_i, the action of s
    and f; on the right the action of the cabled word, the argument parts
    of the permuted g_i and f; an empty word acts by no part.  Each side is
    decided as \\x. q_1 (q_2 (.. (q_n x))), the beta-reduct of the chain's
    image, each part entered as its cached normal form (`_part`), so each
    distinct part is normalized once, not inside both sides of every check.
    The verdict is the one the chains get: a normal form is beta-eta-equal
    to the image it replaces, and `canonical_equal` does not depend on where
    normalizing a part first leaves a braid.
    """
    k = f.m
    if s.strands != k or len(gs) != k:
        raise ArityError("equivariance check needs matching sizes")
    permuted = permute_contents(braid_inverse(s), gs)
    cabled = cable(s, [g.m for g in gs])
    args = [_part(e, sig) for e in argument_parts(gs)]
    permuted_args = [_part(e, sig) for e in argument_parts(permuted)]
    op = [_part(f.elem, sig)]
    lhs = args + _action_parts(s, sig) + op
    rhs = _action_parts(cabled, sig) + permuted_args + op
    return lam_equal(_chain(lhs), _chain(rhs), sig.discipline, fuel=fuel)


def _action_parts(s: BraidWord, sig: Signature) -> list[LTerm]:
    """The parts that act by s: none for the empty word, else its action."""
    return [_part(s, sig)] if s.letters else []


# The size covers criterion 11's working set of distinct parts (each f, each
# B^i g and each action): 240 in the battery, and about 410 over a run of the
# benchmark's equivariance checks, about 0.9 MB.
@functools.lru_cache(maxsize=512)
def _part(part: CTerm | BraidWord, sig: Signature) -> LTerm:
    """A part's image: its normal form in an exactly-once signature, else
    its own image, since normalizing a part first can diverge where normal
    order does not (K I applied to a divergent term).  A braid word stands
    for its action element, which is then built only on a miss."""
    d = sig.discipline
    image = to_lambda(action_word(part, sig) if type(part) is BraidWord else part, d)
    return normalize(image, d) if d.exactly_once else image


def _chain(parts: list[LTerm]) -> LTerm:
    """\\x. q_1 (q_2 (.. (q_n x))) for closed terms q_1 .. q_n: the
    beta-reduct of the image of q_1 o q_2 o .. o q_n."""
    body: LTerm = Var(0)
    for q in reversed(parts):
        body = App(q, body)
    return Lam(body)


# -- the hom to polynomials-as-functions -------------------------------------------

def evaluate(
    f: OperadElem,
    args: Sequence[CTerm],
    sig: Signature,
    fuel: int = DEFAULT_FUEL,
) -> CTerm:
    """Value of the polynomial function of f at closed arguments:
    f I a1 .. an, normalized.

    Operad elements evaluate to applicative combinations of their arguments;
    the normal form is computed with the arguments held abstract and the
    actual arguments substituted back at the end.
    """
    n = f.m
    if len(args) != n:
        raise ArityError(f"need {n} arguments, got {len(args)}")
    fresh = [ConstRef(f"_arg{i}") for i in range(n)]
    expr = capp(f.elem, I, *fresh)
    nf = comb_normal_form(expr, sig, fuel=fuel)
    out = from_lambda_applicative(nf)
    return subst_consts(out, {f"_arg{i}": a for i, a in enumerate(args)})


# -- trace syntax ------------------------------------------------------------------

def trace_syntax(f: ArityCert) -> ArityCert:
    """Close one wire: Tr f is stated m -> n when f is stated m+1 -> n+1."""
    if f.m < 1 or f.n < 1:
        raise ArityError("trace needs at least one input and one output wire")
    return ArityCert(CApp(TR, f.elem), f.m - 1, f.n - 1)


def eta_eps() -> tuple[ArityCert, ArityCert]:
    """The cup and cap built from the trace combinator, stated 0 -> 2 and
    2 -> 0."""
    eta = parse_cterm("Tr (Tr o B Tr o B C o C)")
    eps = parse_cterm("Tr (C o B C o B B o B)")
    return ArityCert(eta, 0, 2), ArityCert(eps, 2, 0)


def trefoil() -> ArityCert:
    """The closure of the cubed positive exchange, a 2 -> 2 element, over
    both its wires: stated 0 -> 0."""
    return trace_syntax(trace_syntax(ArityCert(parse_cterm("C+ o C+ o C+"), 2, 2)))


# -- samples -----------------------------------------------------------------------

def sample_operad_elem(m: int, sig: Signature, rng: random.Random) -> OperadElem:
    """A pseudo-random member of the operad at arity m, built as a* o B^m
    with a of depth at most 1."""
    a = sample_closed(sig, rng, max_depth=1)
    return OperadElem(compose(Bullet(a), b_power_element(m)), m)
