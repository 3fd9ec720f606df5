"""Lambda terms over four usage disciplines, with braid-annotated exchange.

Terms use de Bruijn indices internally; named variables exist only at the
parse/print boundary.  Identifiers that are not bound in scope parse as
`Const` leaves (free constants).

Wire bookkeeping.  Every term presents its free-variable occurrences to the
context in a definite order, its *wire list*.  For a plain term this is the
left-to-right occurrence order; a braid node permutes it by the underlying
permutation of its word.  Strand k of a braid node is the k-th wire counted
from the *end* of the wire list (so the innermost-bound variable rides strand
1), and the body side of the node is the start of the stored word.  These
conventions make `\\f x y. [{3; 1}] (f y x)` the positively-braided exchange
combinator and make substitution under a braid a cabling of the word.

Disciplines:

* planar    -- every context variable used exactly once, in context order;
               no braid nodes.
* linear    -- exactly-once usage, any order; no braid nodes.
* braided   -- exactly-once usage where every exchange is an explicit braid
               node; an abstraction always binds the last wire of its body.
* cartesian -- no usage constraint; no braid nodes.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .braids import (
    BraidWord,
    braid_compose,
    braid_is_trivial,
    cable,
    direct_sum,
    parse_braid,
    permute_contents,
    shift_strands,
    trivial,
)


class Discipline(enum.Enum):
    PLANAR = "planar"
    LINEAR = "linear"
    BRAIDED = "braided"
    CARTESIAN = "cartesian"

    @property
    def exactly_once(self) -> bool:
        return self is not Discipline.CARTESIAN


class TermError(ValueError):
    pass


class ParseError(TermError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class DisciplineError(TermError):
    pass


# -- term nodes ---------------------------------------------------------------
# Hand-rolled immutable nodes.  Sizes and free-index bounds are computed at
# construction and wire lists on first use; a hash is computed on each call,
# since nothing in the package hashes a term.  Each class defines `__eq__`, so
# it restores `LTerm.__hash__`, which Python would otherwise set to None.
# More slots serve the normalizer and the checker:
#
# * canon     -- the term is in canonical braid placement (see `canon_app`).
#                Lam and App derive it from their children; a BraidNode is
#                canonical only when its builder says so, since its rule
#                needs the word problem.  Braid-free terms are always
#                canonical, and `normalize.canon_braids` sets it on the terms
#                it returns.
# * checked   -- bit mask of the disciplines whose node rules t and every
#                node under it passed (`_check`); a pure function of the node.
#
# All of these are pure functions of the node, so nodes shared between terms
# (the images of the combinator primitives, say) share them too.
#
# Everything else a call builds must be freed by reference counting when the
# call returns, since normalization builds many short-lived reducts.  So no
# traversal in this package recurses through a nested function: a recursive
# closure is one reference cycle per call (its cell holds the function, which
# holds the cell), which keeps the call's arguments and partial results alive
# until the cyclic collector finds them, and those collections stall single
# checks for milliseconds.  A traversal is a module-level function that takes
# its state as arguments (`tests/test_no_cycles.py` checks the rule).

class LTerm:
    # max_free: one more than the largest free de Bruijn index (0 if closed).
    __slots__ = ("size", "_wires", "max_free", "canon", "checked")

    def __hash__(self) -> int:
        # the node's class and the fields its own class declares
        return hash((type(self), *[getattr(self, f) for f in self.__slots__]))

    def __repr__(self) -> str:
        return f"<{pretty(self)}>"


class Var(LTerm):
    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 0:
            raise TermError("negative de Bruijn index")
        self.index = index
        self.size = 1
        self._wires = (index,)
        self.max_free = index + 1
        self.canon = True
        self.checked = 0

    def __eq__(self, other):
        return type(other) is Var and other.index == self.index

    __hash__ = LTerm.__hash__


class Const(LTerm):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.size = 1
        self._wires = ()
        self.max_free = 0
        self.canon = True
        self.checked = 0

    def __eq__(self, other):
        return type(other) is Const and other.name == self.name

    __hash__ = LTerm.__hash__


class Lam(LTerm):
    __slots__ = ("body",)

    def __init__(self, body: LTerm):
        self.body = body
        self.size = 1 + body.size
        self._wires = None
        m = body.max_free  # max(m - 1, 0), without the call: nodes are built often
        self.max_free = m - 1 if m else 0
        self.canon = body.canon
        self.checked = 0

    def __eq__(self, other):
        return type(other) is Lam and other.body == self.body

    __hash__ = LTerm.__hash__


class App(LTerm):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: LTerm, arg: LTerm):
        self.fn = fn
        self.arg = arg
        self.size = 1 + fn.size + arg.size
        self._wires = None
        a, b = fn.max_free, arg.max_free
        self.max_free = a if a > b else b
        self.canon = (
            fn.canon and arg.canon and type(fn) is not BraidNode and type(arg) is not BraidNode
        )
        self.checked = 0

    def __eq__(self, other):
        return type(other) is App and other.fn == self.fn and other.arg == self.arg

    __hash__ = LTerm.__hash__


class BraidNode(LTerm):
    __slots__ = ("braid", "body")

    def __init__(self, braid: BraidWord, body: LTerm, canon: bool = False):
        self.braid = braid
        self.body = body
        self.size = 1 + body.size
        self._wires = None
        self.max_free = body.max_free
        self.canon = canon
        self.checked = 0

    def __eq__(self, other):
        return type(other) is BraidNode and other.braid == self.braid and other.body == self.body

    __hash__ = LTerm.__hash__


def app(*ts: LTerm) -> LTerm:
    """Left-associated application chain."""
    head = ts[0]
    for t in ts[1:]:
        head = App(head, t)
    return head


def lams(n: int, body: LTerm) -> LTerm:
    for _ in range(n):
        body = Lam(body)
    return body


# -- wires --------------------------------------------------------------------

def wires(t: LTerm) -> tuple[int, ...]:
    """Free-variable occurrences of t in presented order (de Bruijn indices
    relative to t's root).  Braid nodes permute the order of their body's
    wires by the underlying permutation of the word."""
    cached = t._wires
    if cached is not None:
        return cached
    if isinstance(t, Lam):
        ws = tuple(k - 1 for k in wires(t.body) if k > 0)
    elif isinstance(t, App):
        ws = wires(t.fn) + wires(t.arg)
    elif isinstance(t, BraidNode):
        inner = wires(t.body)
        if t.braid.strands != len(inner):
            raise TermError(
                f"braid on {t.braid.strands} strands over body with {len(inner)} wires"
            )
        rev = list(reversed(inner))
        ws = tuple(reversed(permute_contents(t.braid, rev)))
    else:
        raise TermError(f"unknown node {t!r}")
    t._wires = ws
    return ws


# -- contexts -----------------------------------------------------------------

@dataclass(frozen=True)
class Context:
    """Ordered variable context; the last name binds innermost."""

    names: tuple[str, ...] = ()

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise TermError(f"context names not distinct: {self.names}")

    def __len__(self) -> int:
        return len(self.names)


def bind_context(t: LTerm, ctx: Context) -> LTerm:
    """Reinterpret constants named in ctx as context variables.

    Position i in ctx (0-based) becomes de Bruijn index len(ctx)-1-i at the
    root, matching a judgment whose last context entry binds innermost.
    """
    if not ctx.names:
        return t
    index = {name: len(ctx) - 1 - i for i, name in enumerate(ctx.names)}

    def image(name: str, depth: int) -> Optional[LTerm]:
        i = index.get(name)
        return None if i is None else Var(depth + i)

    return replace_consts(t, image)


def replace_consts(
    t: LTerm, image: Callable[[str, int], Optional[LTerm]], depth: int = 0
) -> LTerm:
    """t with each constant c replaced by image(c.name, binders above c),
    where that is not None.  Constants are met in preorder, and a node with
    nothing replaced under it is kept."""
    if isinstance(t, Const):
        new = image(t.name, depth)
        return t if new is None else new
    if isinstance(t, Lam):
        body = replace_consts(t.body, image, depth + 1)
        return t if body is t.body else Lam(body)
    if isinstance(t, App):
        fn, arg = replace_consts(t.fn, image, depth), replace_consts(t.arg, image, depth)
        return t if fn is t.fn and arg is t.arg else App(fn, arg)
    if isinstance(t, BraidNode):
        body = replace_consts(t.body, image, depth)
        return t if body is t.body else BraidNode(t.braid, body)
    if isinstance(t, Var):
        return t
    raise TermError(f"unknown node {t!r}")


# -- canonical braid placement -------------------------------------------------
# A term is canonical when no braid node sits in the function or argument
# position of an application, wraps an abstraction or another braid node, or
# carries a trivial word; braids then sit directly under the innermost binder
# of a binder group, or at the root.  The two constructors below are the only
# statement of the node rules: each builds the canonical form of one node
# from canonical children.  `normalize.canon_braids` applies them bottom-up,
# and `beta_step_at` at every node it rebuilds.

def canon_app(fn: LTerm, arg: LTerm) -> LTerm:
    """Canonical App(fn, arg): the children's braids are lifted above the
    application, the argument's on the strands below the function's, and
    composed argument first; the lifted word is dropped when trivial."""
    wf = wa = None
    if type(fn) is BraidNode:
        wf, fn = fn.braid, fn.body
    if type(arg) is BraidNode:
        wa, arg = arg.braid, arg.body
    node = App(fn, arg)
    if wf is None and wa is None:
        return node
    nf = len(wires(fn))
    na = len(wires(arg))
    lifted_f = shift_strands(wf, na) if wf is not None else trivial(nf + na)
    lifted_a = direct_sum([wa, trivial(nf)]) if wa is not None else trivial(nf + na)
    word = braid_compose(lifted_a, lifted_f)
    if braid_is_trivial(word):
        return node
    return BraidNode(word, node, canon=node.canon)


def canon_wrap(word: BraidWord, body: LTerm) -> LTerm:
    """Canonical BraidNode(word, body): fused with the braids below it
    (inner word first), pushed under an abstraction (the bound wire becomes
    strand 1), or dropped when trivial."""
    while type(body) is BraidNode:
        word = braid_compose(body.braid, word)
        body = body.body
    if type(body) is Lam:
        return Lam(canon_wrap(shift_strands(word, 1), body.body))
    if braid_is_trivial(word):
        return body
    return BraidNode(word, body, canon=body.canon)


# -- shifting and contraction ---------------------------------------------------

def shift(t: LTerm, by: int, cutoff: int = 0) -> LTerm:
    if by == 0 or t.max_free <= cutoff:
        return t
    if isinstance(t, Var):
        return Var(t.index + by) if t.index >= cutoff else t
    if isinstance(t, Lam):
        return Lam(shift(t.body, by, cutoff + 1))
    if isinstance(t, App):
        return App(shift(t.fn, by, cutoff), shift(t.arg, by, cutoff))
    if isinstance(t, BraidNode):
        return BraidNode(t.braid, shift(t.body, by, cutoff), canon=t.canon)
    raise TermError(f"unknown node {t!r}")


def beta_step_at(fn: Lam, args: Sequence[LTerm]) -> tuple[LTerm, list[int]]:
    """Contract (\\x1 … xg. M) a1 … ag, the first g binders of fn applied to
    args, in one traversal of M; returns the reduct and how often each
    binder occurs in M.

    Each xi becomes ai, shifted once to its depth in M, and M's other free
    variables move down by g.  Under a braid node the strand carrying xi is
    replaced by as many parallel strands as ai has wires (width 0 deletes
    it) by cabling the word, once per binder the node carries whose argument
    is not one wire wide, outermost first; a word that a cabling leaves
    trivial is dropped there, so later binders neither cable nor check it.
    Every node rebuilt goes through `canon_app` or `canon_wrap`, so when fn
    and the args are canonical the reduct is canonical too.  It is the
    reduct of g single contractions, one binder each, when no argument is a
    braid node (no argument of a canonical application is): then no braid
    is lifted out of an argument, and cabling the other binders' strands
    only renumbers a letter.
    """
    g = len(args)
    body = fn
    for _ in range(g):
        body = body.body
    uses = [0] * g
    return _subst(body, 0, g, args, uses), uses


def _subst(t: LTerm, depth: int, g: int, args: Sequence[LTerm], uses: list[int]) -> LTerm:
    """`beta_step_at`'s traversal: t, found under `depth` binders of M,
    with the group's binders replaced; counts each binder's uses."""
    if t.max_free <= depth:
        return t
    if isinstance(t, Var):
        j = depth + g - 1 - t.index  # binder x(j+1); outer variables have j < 0
        if j < 0:
            return Var(t.index - g)
        uses[j] += 1
        return shift(args[j], depth)
    if isinstance(t, Lam):
        return Lam(_subst(t.body, depth + 1, g, args, uses))
    if isinstance(t, App):
        return canon_app(_subst(t.fn, depth, g, args, uses), _subst(t.arg, depth, g, args, uses))
    if isinstance(t, BraidNode):
        outer = wires(t)
        braid = t.braid
        blocks = None  # once cabled: the width of each outer wire's block
        for j in range(g):
            v = depth + g - 1 - j
            if v not in outer:
                continue
            if blocks is None:
                blocks = [1] * len(outer)
            elif braid_is_trivial(braid):
                return _subst(t.body, depth, g, args, uses)  # the last cabling left it trivial
            if outer.count(v) != 1:
                raise DisciplineError("duplicated wire under a braid node")
            p = outer.index(v)
            blocks[p] = len(wires(args[j]))
            if blocks[p] != 1:  # cabling a strand to width 1 keeps the word
                widths = [1] * braid.strands
                widths[sum(blocks[p + 1 :])] = blocks[p]
                braid = cable(braid, widths)
        return canon_wrap(braid, _subst(t.body, depth, g, args, uses))
    raise TermError(f"unknown node {t!r}")


# -- discipline checking ------------------------------------------------------

# The bit a discipline's pass sets in LTerm.checked.
_CHECK_BIT = {d: 1 << k for k, d in enumerate(Discipline)}


def check_discipline(t: LTerm, d: Discipline, ctx: Context = Context()) -> None:
    """Raise DisciplineError, saying why, unless t is well-formed under
    discipline d in the given context."""
    t = bind_context(t, ctx)
    n = len(ctx)

    try:
        why = _check(t, d, _CHECK_BIT[d])
    except TermError as e:
        why = str(e)
    if why is not None:
        raise DisciplineError(why)

    if d is Discipline.CARTESIAN:
        if t.max_free > n:
            raise DisciplineError(f"unbound index {t.max_free - 1} for context of size {n}")
        return

    ws = wires(t)
    if d is Discipline.LINEAR:
        if sorted(ws) != list(range(n)):
            raise DisciplineError(f"context variables not used exactly once: wires {list(ws)}")
    elif list(ws) != list(range(n - 1, -1, -1)):  # planar / braided: context order
        raise DisciplineError(f"wires {list(ws)} do not match context order")


def _check(t: LTerm, d: Discipline, bit: int) -> Optional[str]:
    """Why a node of t breaks the node rules of d (first in preorder), or
    None; a pass is recorded in the `checked` bit of every node visited, and
    a node already carrying the bit is not visited again."""
    if t.checked & bit:
        return None
    if isinstance(t, App):
        why = _check(t.fn, d, bit) or _check(t.arg, d, bit)
    elif isinstance(t, BraidNode):
        if d is not Discipline.BRAIDED:
            return f"braid node not allowed in {d.value} discipline"
        inner = wires(t.body)
        if t.braid.strands != len(inner):
            return f"braid on {t.braid.strands} strands over body with {len(inner)} wires"
        why = _check(t.body, d, bit)
    elif isinstance(t, Lam):
        if d is not Discipline.CARTESIAN:
            ws = wires(t.body)
            uses = ws.count(0)
            if uses != 1:
                return f"bound variable used {uses} times under its binder"
            if d in (Discipline.PLANAR, Discipline.BRAIDED) and ws[-1] != 0:
                if d is Discipline.PLANAR:
                    return "bound variable is not the last use in its body"
                return "abstraction does not bind the last wire (missing braid?)"
        why = _check(t.body, d, bit)
    elif isinstance(t, (Var, Const)):
        why = None
    else:
        raise TermError(f"unknown node {t!r}")
    if why is None:
        t.checked |= bit
    return why


# -- concrete syntax ----------------------------------------------------------

# An identifier of either surface syntax: a variable or constant of a lambda
# term, a primitive or constant of a combinator expression.
IDENT = r"[A-Za-z_][A-Za-z0-9_'+-]*"

_SPACE_RE = re.compile(r"\s*")


class Tokens:
    """The tokens of text, with the whitespace before each skipped: `pattern`
    matches one token, and its named group says the token's kind.  Each
    token is (kind, text, position).  `error(message, position)` builds the
    syntax's exception; a character that starts no token is an error at its
    own position."""

    def __init__(self, pattern: re.Pattern, text: str, error: Callable[[str, int], Exception]):
        self.text = text
        self.error = error
        self.tokens: list[tuple[str, str, int]] = []
        self.i = 0
        pos = _SPACE_RE.match(text).end()
        while pos < len(text):
            m = pattern.match(text, pos)
            if not m:
                raise error(f"unexpected character {text[pos]!r}", pos)
            self.tokens.append((m.lastgroup, m.group(), pos))
            pos = _SPACE_RE.match(text, m.end()).end()

    def peek(self) -> Optional[tuple[str, str, int]]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise self.error(f"expected {kind}, found {tok[1]!r}", tok[2])
        return tok

    def end(self) -> None:
        """Raise unless every token has been read."""
        tok = self.peek()
        if tok is not None:
            raise self.error(f"trailing input {tok[1]!r}", tok[2])


# A braid literal is one token, read by `parse_braid`.
_TOKEN_RE = re.compile(
    r"(?P<lam>\\)|(?P<dot>\.)|(?P<lpar>\()|(?P<rpar>\))|(?P<lbrk>\[)|(?P<rbrk>\])"
    rf"|(?P<braid>\{{[^}}]*\}})|(?P<ident>{IDENT})"
)


class _Parser(Tokens):
    def parse_term(self, env: list[str]) -> LTerm:
        tok = self.peek()
        if tok is not None and tok[0] == "lam":
            self.next()
            names: list[str] = []
            while True:
                t2 = self.peek()
                if t2 is not None and t2[0] == "ident":
                    names.append(self.next()[1])
                elif t2 is not None and t2[0] == "dot":
                    self.next()
                    break
                else:
                    raise ParseError(
                        "expected binder name or '.'",
                        t2[2] if t2 else len(self.text),
                    )
            if not names:
                raise ParseError("abstraction with no binders", tok[2])
            body = self.parse_term(env + names)
            return lams(len(names), body)
        return self.parse_app(env)

    def parse_app(self, env: list[str]) -> LTerm:
        head = self.parse_atom(env)
        while True:
            nxt = self.parse_atom(env, optional=True)
            if nxt is None:
                return head
            head = App(head, nxt)

    def parse_atom(self, env: list[str], optional: bool = False) -> Optional[LTerm]:
        tok = self.peek()
        if tok is None:
            if optional:
                return None
            raise ParseError("unexpected end of input", len(self.text))
        kind, val, pos = tok
        if kind == "ident":
            self.next()
            if val in env:
                return Var(env[::-1].index(val))
            return Const(val)
        if kind == "lpar":
            self.next()
            t = self.parse_term(env)
            self.expect("rpar")
            return t
        if kind == "lbrk":
            self.next()
            _, literal, at = self.expect("braid")
            try:
                word = parse_braid(literal)
            except ValueError as e:
                raise ParseError(str(e), at) from None
            self.expect("rbrk")
            return BraidNode(word, self.parse_atom(env))
        if optional:
            return None
        raise ParseError(f"unexpected token {val!r}", pos)


def parse(text: str) -> LTerm:
    """Parse the term grammar; unbound identifiers become constants."""
    p = _Parser(_TOKEN_RE, text, ParseError)
    t = p.parse_term([])
    p.end()
    return t


_NAME_POOL = "xyzwvuts"


def _fresh_name(depth: int, taken: set[str]) -> str:
    if depth < len(_NAME_POOL) and _NAME_POOL[depth] not in taken:
        return _NAME_POOL[depth]
    k = 0
    while f"x{k}" in taken:
        k += 1
    return f"x{k}"


def pretty(t: LTerm) -> str:
    """Printable concrete syntax; parse(pretty(t)) == t for well-formed t."""
    consts: set[str] = set()
    _collect_consts(t, consts)
    return _pretty(t, [], consts)


def _collect_consts(u: LTerm, consts: set[str]) -> None:
    if isinstance(u, Const):
        consts.add(u.name)
    elif isinstance(u, (Lam, BraidNode)):
        _collect_consts(u.body, consts)
    elif isinstance(u, App):
        _collect_consts(u.fn, consts)
        _collect_consts(u.arg, consts)


def _pretty(u: LTerm, env: list[str], consts: set[str]) -> str:
    """u printed under the binder names env (innermost last), choosing
    fresh names that no constant of the whole term takes."""
    if isinstance(u, Lam):
        names: list[str] = []
        body: LTerm = u
        while isinstance(body, Lam):
            name = _fresh_name(len(env) + len(names), consts | set(env) | set(names))
            names.append(name)
            body = body.body
        return f"\\{' '.join(names)}. {_pretty(body, env + names, consts)}"
    return _pretty_app(u, env, consts)


def _pretty_app(u: LTerm, env: list[str], consts: set[str]) -> str:
    if isinstance(u, App):
        return f"{_pretty_app(u.fn, env, consts)} {_pretty_atom(u.arg, env, consts)}"
    return _pretty_atom(u, env, consts)


def _pretty_atom(u: LTerm, env: list[str], consts: set[str]) -> str:
    if isinstance(u, Var):
        if u.index >= len(env):
            return f"_free{u.index - len(env)}"
        return env[len(env) - 1 - u.index]
    if isinstance(u, Const):
        return u.name
    if isinstance(u, BraidNode):
        return f"[{u.braid}] {_pretty_atom(u.body, env, consts)}"
    return f"({_pretty(u, env, consts)})"


def tree_lines(t: LTerm) -> Iterator[str]:
    """Indented tree rendering (used by the CLI's --tree flag), with the
    binder names `pretty` gives."""
    consts: set[str] = set()
    _collect_consts(t, consts)
    return _tree_lines(t, [], consts, "")


def _tree_lines(u: LTerm, env: list[str], consts: set[str], prefix: str) -> Iterator[str]:
    if isinstance(u, Var):
        name = env[len(env) - 1 - u.index] if u.index < len(env) else f"_free{u.index - len(env)}"
        yield f"{prefix}var {name}"
    elif isinstance(u, Const):
        yield f"{prefix}const {u.name}"
    elif isinstance(u, Lam):
        name = _fresh_name(len(env), consts | set(env))
        yield f"{prefix}lam {name}"
        yield from _tree_lines(u.body, env + [name], consts, prefix + "  ")
    elif isinstance(u, App):
        yield f"{prefix}app"
        yield from _tree_lines(u.fn, env, consts, prefix + "  ")
        yield from _tree_lines(u.arg, env, consts, prefix + "  ")
    elif isinstance(u, BraidNode):
        yield f"{prefix}braid {u.braid}"
        yield from _tree_lines(u.body, env, consts, prefix + "  ")
