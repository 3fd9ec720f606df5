"""Combinator expressions, bracket abstraction, and axiom suites.

Expression syntax: primitives ``B C C+ C- I W K Tr``, application by
juxtaposition (left-associative), postfix ``*`` for the internalization of a
closed expression (``a*``), infix ``o`` for sequential composition
(``a o b`` abbreviates ``B a b`` and binds looser than application,
associating to the right).  Any other identifier is a free constant.

A polynomial, the input of bracket abstraction, is such an expression in
which each constant named ``x0 x1 ...`` (bare ``x`` means ``x0``) is an
indeterminate and every other subexpression is a coefficient.  Internalization
takes a closed expression, so no indeterminate may occur under ``*``.

Each signature fixes the permitted primitives and the lambda discipline in
which its expressions are interpreted (`_SIGNATURE_FACTS`); every other
signature fact, such as its exchange combinator or whether it allows
weakening and contraction, is derived from those two.

``Tr`` belongs to no signature: it is accepted for construction and
printing only, and no equality involves it.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Optional, Sequence

from . import terms
from .normalize import (
    DEFAULT_FUEL,
    FuelExhausted,
    Verdict,
    canonical_equal,
    lam_equal,
    normalize,
)
from .terms import App as LApp
from .terms import Const as LConst
from .terms import Discipline, LTerm


class CombError(ValueError):
    pass


class UnsupportedTrace(CombError):
    """The trace primitive has no lambda image and no equational theory."""


# -- signatures -----------------------------------------------------------------

# The one place a signature's facts are named: its lambda discipline and its
# primitives, without the internalization (_)* that every signature has.
_SIGNATURE_FACTS = {
    "BIbullet": (Discipline.PLANAR, frozenset({"B", "I"})),
    "BCI": (Discipline.LINEAR, frozenset({"B", "C", "I"})),
    "BCpmI": (Discipline.BRAIDED, frozenset({"B", "C+", "C-", "I"})),
    "BCIWK": (Discipline.CARTESIAN, frozenset({"B", "C", "I", "W", "K"})),
}

# The primitives that have a lambda image in each discipline.
DISCIPLINE_PRIMITIVES = {d: names for d, names in _SIGNATURE_FACTS.values()}


@dataclass(frozen=True)
class Signature:
    tag: str

    def __post_init__(self):
        if self.tag not in _SIGNATURE_FACTS:
            raise CombError(f"unknown signature {self.tag!r}")

    @property
    def primitives(self) -> frozenset[str]:
        return _SIGNATURE_FACTS[self.tag][1]

    @property
    def discipline(self) -> Discipline:
        return _SIGNATURE_FACTS[self.tag][0]

    def exchange(self, positive: bool) -> Prim:
        """The exchange combinator; in the braided signature, the positive or
        negative one."""
        if self.discipline is Discipline.BRAIDED:
            return CPLUS if positive else CMINUS
        if self.discipline is Discipline.PLANAR:
            raise CombError(f"signature {self.tag} has no exchange combinator")
        return C


BIBULLET = Signature("BIbullet")
BCI = Signature("BCI")
BCPMI = Signature("BCpmI")
BCIWK = Signature("BCIWK")

SIGNATURES = {
    "bibullet": BIBULLET,
    "bci": BCI,
    "bcpmi": BCPMI,
    "bciwk": BCIWK,
}


# -- combinator terms -------------------------------------------------------------

PRIM_NAMES = ("B", "C", "C+", "C-", "I", "W", "K", "Tr")


@dataclass(frozen=True)
class Prim:
    name: str

    def __post_init__(self):
        if self.name not in PRIM_NAMES:
            raise CombError(f"unknown primitive {self.name!r}")


@dataclass(frozen=True)
class CApp:
    fn: "CTerm"
    arg: "CTerm"


@dataclass(frozen=True)
class Bullet:
    arg: "CTerm"


@dataclass(frozen=True)
class ConstRef:
    name: str


CTerm = Prim | CApp | Bullet | ConstRef

B, C, CPLUS, CMINUS, I, W, K, TR = (Prim(n) for n in PRIM_NAMES)


def capp(*ts: CTerm) -> CTerm:
    head = ts[0]
    for t in ts[1:]:
        head = CApp(head, t)
    return head


def compose(*ts: CTerm) -> CTerm:
    """Right-nested sequential composition: compose(a, b, c) = a o (b o c)."""
    if not ts:
        raise CombError("empty composition")
    out = ts[-1]
    for t in reversed(ts[:-1]):
        out = capp(B, t, out)
    return out


def b_power_element(k: int) -> CTerm:
    """The k-fold composition power of B, with the empty power the identity."""
    if k == 0:
        return I
    return compose(*([B] * k))


def b_power_apply(k: int, t: CTerm) -> CTerm:
    """B applied k times: B (B (... (B t)))."""
    for _ in range(k):
        t = CApp(B, t)
    return t


def prims(c: CTerm) -> frozenset[str]:
    """The primitives c uses."""
    used = set()
    todo = [c]
    while todo:
        u = todo.pop()
        if isinstance(u, CApp):
            todo += (u.fn, u.arg)
        elif isinstance(u, Prim):
            used.add(u.name)
        elif isinstance(u, Bullet):
            todo.append(u.arg)
    return frozenset(used)


def check_signature(used: frozenset[str], sig: Signature) -> None:
    """Raise CombError naming the primitives in `used` that sig lacks."""
    bad = used - sig.primitives
    if bad:
        raise CombError(f"primitives {sorted(bad)} not in signature {sig.tag}")


def subst_consts(t: CTerm, bindings: dict[str, CTerm]) -> CTerm:
    if isinstance(t, ConstRef) and t.name in bindings:
        return bindings[t.name]
    if isinstance(t, CApp):
        return CApp(subst_consts(t.fn, bindings), subst_consts(t.arg, bindings))
    if isinstance(t, Bullet):
        return Bullet(subst_consts(t.arg, bindings))
    return t


# -- concrete syntax ---------------------------------------------------------------

_CTOKEN_RE = re.compile(rf"(?P<lpar>\()|(?P<rpar>\))|(?P<star>\*)|(?P<ident>{terms.IDENT})")


class _CParser(terms.Tokens):
    def parse_expr(self) -> CTerm:
        left = self.parse_juxt()
        tok = self.peek()
        if tok is not None and tok[0] == "ident" and tok[1] == "o":
            self.next()
            right = self.parse_expr()
            return capp(B, left, right)
        return left

    def parse_juxt(self) -> CTerm:
        head = self.parse_atom()
        while True:
            nxt = self.parse_atom(optional=True)
            if nxt is None:
                return head
            head = CApp(head, nxt)

    def parse_atom(self, optional: bool = False) -> Optional[CTerm]:
        tok = self.peek()
        if tok is None:
            if optional:
                return None
            raise self.error("unexpected end of input", len(self.text))
        kind, val, pos = tok
        out: Optional[CTerm] = None
        if kind == "ident":
            if val == "o":
                if optional:
                    return None
                raise self.error("misplaced 'o'", pos)
            self.next()
            out = Prim(val) if val in PRIM_NAMES else ConstRef(val)
        elif kind == "lpar":
            self.next()
            out = self.parse_expr()
            self.expect("rpar")
        elif optional:
            return None
        else:
            raise self.error(f"unexpected token {val!r}", pos)
        while True:
            tok = self.peek()
            if tok is not None and tok[0] == "star":
                self.next()
                out = Bullet(out)
            else:
                return out


def parse_cterm(text: str) -> CTerm:
    p = _CParser(_CTOKEN_RE, text, lambda message, pos: CombError(f"{message} at {pos}"))
    t = p.parse_expr()
    p.end()
    return t


def format_cterm(t: CTerm) -> str:
    return _format(t, "top")


def _is_compose(u: CTerm) -> bool:
    return isinstance(u, CApp) and isinstance(u.fn, CApp) and u.fn.fn == B


def _format(u: CTerm, ctx: str) -> str:
    # ctx: 'top' | 'left-of-o' | 'fn' | 'arg'
    if _is_compose(u):
        s = f"{_format(u.fn.arg, 'left-of-o')} o {_format(u.arg, 'top')}"
        return f"({s})" if ctx in ("fn", "arg", "left-of-o") else s
    if isinstance(u, CApp):
        s = f"{_format(u.fn, 'fn')} {_format(u.arg, 'arg')}"
        return f"({s})" if ctx == "arg" else s
    if isinstance(u, Bullet):
        inner = _format(u.arg, "arg")
        return f"{inner}*"
    return u.name  # a Prim or a ConstRef


# -- translation to lambda terms ------------------------------------------------------

_PRIM_LAMBDA_SRC = {
    "B": r"\f x y. f (x y)",
    "C": r"\f x y. f y x",
    "C+": r"\f x y. [{3; 1}] (f y x)",
    "C-": r"\f x y. [{3; -1}] (f y x)",
    "I": r"\x. x",
    "W": r"\f x. f x x",
    "K": r"\f x. f",
}

_PRIM_LAMBDA = {name: terms.parse(src) for name, src in _PRIM_LAMBDA_SRC.items()}


def to_lambda(c: CTerm, d: Discipline) -> LTerm:
    """Lambda image of a combinator expression in discipline d, translated
    function before argument; a primitive that does not fit d, the first in
    preorder, is an error.  Every primitive's image is one shared term."""
    if type(c) is CApp:
        return LApp(to_lambda(c.fn, d), to_lambda(c.arg, d))
    if type(c) is Prim:
        if c.name in DISCIPLINE_PRIMITIVES[d]:
            return _PRIM_LAMBDA[c.name]
        if c.name == "Tr":
            raise UnsupportedTrace("Tr has no lambda image")
        raise CombError(f"primitive {c.name} does not fit the {d.value} discipline")
    if type(c) is Bullet:
        return terms.Lam(LApp(terms.Var(0), to_lambda(c.arg, d)))  # the image is closed
    return LConst(c.name)


def from_lambda_applicative(t: LTerm) -> CTerm:
    """Read back a lambda term that is an applicative combination of
    constants; fails on binders, variables, or braids."""
    if isinstance(t, LConst):
        return ConstRef(t.name)
    if isinstance(t, LApp):
        return CApp(from_lambda_applicative(t.fn), from_lambda_applicative(t.arg))
    raise CombError(f"not an applicative constant combination: {terms.pretty(t)}")


# -- equality ---------------------------------------------------------------------

def comb_equal(
    c1: CTerm, c2: CTerm, sig: Signature, fuel: int = DEFAULT_FUEL
) -> Verdict:
    """Equality in the free extensional algebra of the signature, decided by
    beta/eta equality of the lambda images."""
    used = (prims(c1), prims(c2))
    if any("Tr" in u for u in used):
        raise UnsupportedTrace("equality involving Tr is not supported")
    for u in used:
        check_signature(u, sig)
    d = sig.discipline
    return lam_equal(to_lambda(c1, d), to_lambda(c2, d), d, fuel=fuel)


def comb_normal_form(c: CTerm, sig: Signature, fuel: int = DEFAULT_FUEL) -> LTerm:
    return normalize(to_lambda(c, sig.discipline), sig.discipline, fuel=fuel)


# -- polynomials and bracket abstraction ------------------------------------------

_INDETERMINATE_RE = re.compile(r"x\d*")


def _index(t: CTerm) -> Optional[int]:
    """i if t is the indeterminate xi (bare x is x0), else None."""
    if type(t) is ConstRef and _INDETERMINATE_RE.fullmatch(t.name):
        return int(t.name[1:] or 0)
    return None


def _indices(p: CTerm) -> list[int]:
    """The indices of p's indeterminate occurrences, left to right; one under
    * is an error, since internalization takes a closed expression."""
    if type(p) is CApp:
        return _indices(p.fn) + _indices(p.arg)
    if type(p) is Bullet and _indices(p.arg):
        raise CombError(
            f"indeterminate under * in {format_cterm(p)} "
            "(internalization takes a closed expression)"
        )
    i = _index(p)
    return [] if i is None else [i]


def poly_arity(p: CTerm) -> int:
    """One more than the largest indeterminate index; indices may repeat or be
    skipped (meaningful only for the cartesian signature)."""
    return max(_indices(p), default=-1) + 1


def poly_instantiate(p: CTerm, args: Sequence[CTerm]) -> CTerm:
    """p with each indeterminate xi replaced by args[i]."""
    if type(p) is CApp:
        return CApp(poly_instantiate(p.fn, args), poly_instantiate(p.arg, args))
    i = _index(p)
    return p if i is None else args[i]


def _bounds(p: CTerm, bounds: dict[int, tuple[float, int]]) -> tuple[float, int]:
    """The least and the largest indeterminate index in p, (inf, -1) when p
    is closed, also recorded under the id of each node of p outside a *;
    a node already recorded is read, not walked."""
    b = bounds.get(id(p))
    if b is not None:
        return b
    if type(p) is CApp:
        (lo, hi), (lo_arg, hi_arg) = _bounds(p.fn, bounds), _bounds(p.arg, bounds)
        b = (lo if lo < lo_arg else lo_arg, hi if hi > hi_arg else hi_arg)
    else:
        i = _index(p)
        b = (float("inf"), -1) if i is None else (i, i)
    bounds[id(p)] = b
    return b


def _abstract_last(p: CTerm, sig: Signature, v: int, bounds: dict[int, tuple[float, int]]) -> CTerm:
    """One abstraction step: remove indeterminate v, the largest one, which
    must occur in p.  `bounds` holds `_bounds` of p's nodes, read here for
    occurrence; no node built here is looked up."""
    if _index(p) == v:
        return I
    # p is an application: nothing else holds an indeterminate
    in_fn = bounds[id(p.fn)][1] == v
    lo_arg, hi_arg = bounds[id(p.arg)]
    if in_fn and hi_arg == v:
        if sig.discipline.exactly_once:
            raise CombError(f"variable {v} duplicated ({sig.tag} forbids contraction)")
        # the S rule W (C (B B f) g), f = [xv]M, g = [xv]N; a closed g enters as
        # C I g, as a closed argument does below (only BCIWK, whose exchange is C)
        f = capp(B, B, _abstract_last(p.fn, sig, v, bounds))
        g = _abstract_last(p.arg, sig, v, bounds)
        return CApp(W, capp(C, f, g) if lo_arg < v else capp(B, capp(C, I, g), f))
    if hi_arg == v:
        return capp(B, p.fn, _abstract_last(p.arg, sig, v, bounds))
    # occurrences only in the function part
    if hi_arg < 0:
        # the internalization of the closed argument, native or derived
        if sig.discipline is Discipline.PLANAR:
            coef: CTerm = Bullet(p.arg)
        else:
            coef = capp(sig.exchange(True), I, p.arg)
        return capp(B, coef, _abstract_last(p.fn, sig, v, bounds))
    # an exchange, never planar: a planar polynomial keeps its order
    if sig.discipline is Discipline.BRAIDED:
        raise CombError(
            f"a polynomial carries no crossing sign, so {sig.tag} cannot "
            "abstract an exchange"
        )
    return capp(C, _abstract_last(p.fn, sig, v, bounds), p.arg)


def bracket_abstract(p: CTerm, sig: Signature) -> CTerm:
    """Close a polynomial over all its indeterminates, the last first, so the
    result applied to q1 .. qm equals the polynomial at (q1, .., qm)."""
    order = _indices(p)
    if not order:
        raise CombError("polynomial has no variable to abstract")
    if sig.discipline is Discipline.PLANAR and order != sorted(order):
        raise CombError("planar polynomial requires variables in order")
    occurring = set(order)  # abstracting one indeterminate keeps the others
    # one record for every step, which walks only the nodes built since; the
    # steps' polynomials stay alive, so no recorded id is reused
    bounds: dict[int, tuple[float, int]] = {}
    kept = []
    for v in range(max(order), -1, -1):
        if v in occurring:
            kept.append(p)
            _bounds(p, bounds)
            p = _abstract_last(p, sig, v, bounds)
        elif sig.discipline.exactly_once:
            raise CombError(f"variable {v} does not occur ({sig.tag} forbids weakening)")
        else:
            p = CApp(K, p)
    check_signature(prims(p), sig)
    return p


def beta_check_abstraction(
    p: CTerm,
    sig: Signature,
    samples: int = 4,
    seed: int = 0,
    fuel: int = DEFAULT_FUEL,
) -> Verdict:
    """Certify an abstraction: applying it to fresh constants (and to sampled
    closed terms) recovers the polynomial."""
    # placeholders that no parsed constant is named, so p's own stay put
    names = [f"?{i}" for i in range(poly_arity(p))]
    fresh = [ConstRef(name) for name in names]
    law = [(capp(bracket_abstract(p, sig), *fresh), poly_instantiate(p, fresh))]
    for metavars in ((), names):  # the fresh constants, then closed samples
        v = check_law(law, metavars, sig, samples, seed, fuel)[0]
        if v is not Verdict.EQUAL:
            return v
    return Verdict.EQUAL


# -- samples ------------------------------------------------------------------------

def _gen(sig: Signature, rng: random.Random, depth: int) -> CTerm:
    prims = sorted(sig.primitives)
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        return Prim(rng.choice(prims))
    if roll < 0.6:
        return Bullet(_gen(sig, rng, depth - 1))
    return CApp(_gen(sig, rng, depth - 1), _gen(sig, rng, depth - 1))


# The step bound under which a cartesian sample must normalize.
_SAMPLE_FUEL = 400


def _normalizes(t: CTerm, sig: Signature) -> bool:
    try:
        comb_normal_form(t, sig, fuel=_SAMPLE_FUEL)
        return True
    except FuelExhausted:
        return False


def sample_closed(sig: Signature, rng: random.Random, max_depth: int = 4) -> CTerm:
    """A pseudo-random closed expression of the signature.

    Cartesian samples are screened for normalizability so that suite
    instantiations cannot diverge (W alone can build looping terms).
    """
    while True:
        t = _gen(sig, rng, max_depth)
        if sig.discipline.exactly_once or _normalizes(t, sig):
            return t


# -- axiom tables ---------------------------------------------------------------------

@dataclass(frozen=True)
class Axiom:
    name: str
    variants: tuple[tuple[str, str], ...]  # (lhs, rhs) source pairs
    metavars: tuple[str, ...] = ()


def _ax(name: str, lhs: str, rhs: str, metavars: str = "") -> Axiom:
    return Axiom(name, ((lhs, rhs),), tuple(metavars.split()))


def _ax_signed(name: str, lhs: str, rhs: str, metavars: str = "", star: bool = False) -> Axiom:
    """Expand C? into C+/C- (linked) and C! into an independent choice."""
    variants = []
    for s in ("+", "-"):
        l, r = lhs.replace("C?", f"C{s}"), rhs.replace("C?", f"C{s}")
        if star and ("C!" in l or "C!" in r):
            for s2 in ("+", "-"):
                variants.append((l.replace("C!", f"C{s2}"), r.replace("C!", f"C{s2}")))
        else:
            variants.append((l, r))
    return Axiom(name, tuple(dict.fromkeys(variants)), tuple(metavars.split()))


PLANAR_AXIOMS = (
    _ax("BI", "B I", "I"),
    _ax("app*", "(a b)*", "B b* (B a* B)", "a b"),
    _ax("B*", "B B* (B B (B B B))", "B (B B) B"),
    _ax("I*", "B I* B", "I"),
    _ax("**", "B a** B", "B (B a*) B", "a"),
)

_BCI_CORE = (
    _ax("B", "B a b c", "a (b c)", "a b c"),
    _ax("C", "C a b c", "a c b", "a b c"),
    _ax("I", "I a", "a", "a"),
    _ax("lambda", "B I", "I"),
    _ax("rho", "C B I", "I"),
    _ax("alpha", "(B B) o B", "(C B B) o (B o B)"),
    _ax("cox1", "C o C", "I"),
    _ax("cox2", "(B C) o (B o B)", "(C B C) o (B o B)"),
    _ax("cox3", "(B C) o (C o (B C))", "C o ((B C) o C)"),
    _ax("bc", "(B B) o C", "C o ((B C) o B)"),
)

LINEAR_AXIOMS = _BCI_CORE

BRAIDED_AXIOMS = (
    _ax("B", "B a b c", "a (b c)", "a b c"),
    _ax("C+", "C+ a b c", "a c b", "a b c"),
    _ax("C-", "C- a b c", "a c b", "a b c"),
    _ax("I", "I a", "a", "a"),
    _ax("C2", "C+ a b", "C- a b", "a b"),
    _ax("lambda", "B I", "I"),
    _ax_signed("rho", "C? B I", "I"),
    _ax_signed("alpha", "(B B) o B", "(C? B B) o (B o B)"),
    Axiom("cox1", (("C+ o C-", "I"), ("C- o C+", "I"))),
    _ax_signed("cox2", "(B C?) o (B o B)", "(C! B C?) o (B o B)", star=True),
    _ax_signed("cox3", "(B C?) o (C? o (B C?))", "C? o ((B C?) o C?)"),
    _ax_signed("bc", "(B B) o C?", "C? o ((B C?) o B)"),
)

_BCIWK_EXTRA = (
    _ax("W:1->2", "W* o B o B", "(B W) o B o B"),
    _ax("K:1->0", "K* o B o B", "B K"),
    _ax("co-unit", "W o K", "I"),
    _ax("co-assoc", "W o W", "W o (B W)"),
    _ax("co-comm", "W o C", "W"),
    _ax("B-comonoid-W", "B o W", "(B W) o W o (B C) o B o (B B)"),
    _ax("B-comonoid-K", "B o K", "K o K"),
    _ax("bullet-comonoid-W", "a* o W", "a* o a*", "a"),
    _ax("bullet-comonoid-K", "a* o K", "I", "a"),
    _ax("K-beh", "K a b", "a", "a b"),
    _ax("W-beh", "W a b", "a b b", "a b"),
)

CARTESIAN_AXIOMS = _BCI_CORE + _BCIWK_EXTRA

AXIOM_TABLES = {
    "BIbullet": PLANAR_AXIOMS,
    "BCI": LINEAR_AXIOMS,
    "BCpmI": BRAIDED_AXIOMS,
    "BCIWK": CARTESIAN_AXIOMS,
}


# -- suites ---------------------------------------------------------------------------

@dataclass
class AxiomReport:
    axiom: str
    status: str  # pass | fail
    lhs_nf: str
    rhs_nf: str
    witness_bindings: Optional[dict[str, str]] = None


def _check_instance(
    lhs: CTerm, rhs: CTerm, sig: Signature, fuel: int
) -> tuple[Verdict, str, str]:
    """The verdict on lhs = rhs and both printed normal forms."""
    try:
        n1 = comb_normal_form(lhs, sig, fuel=fuel)
        n2 = comb_normal_form(rhs, sig, fuel=fuel)
    except FuelExhausted:
        return Verdict.FUEL_EXHAUSTED, "<no normal form>", "<no normal form>"
    v = canonical_equal(n1, n2)
    return v, terms.pretty(n1), terms.pretty(n2)


# Redraws per requested sample of an instance that exhausts the fuel.
FUEL_RETRIES_PER_SAMPLE = 20


def check_law(
    pairs: Sequence[tuple[CTerm, CTerm]], metavars: Sequence[str], sig: Signature,
    samples: int, seed: int, fuel: int,
) -> tuple[Verdict, str, str, Optional[dict[str, str]]]:
    """Check the equations lhs = rhs of `pairs` together on `samples`
    conclusive instances, each binding the metavariables in order to seeded
    `sample_closed` draws; a law without metavariables is one instance.  A
    cartesian instantiation may fail to normalize within fuel although each
    sample does alone; it decides nothing and is redrawn, at most
    FUEL_RETRIES_PER_SAMPLE * samples times (never for a closed law).
    Returns the verdict, the last printed normal forms (``<fuel>`` once the
    redraws run out) and, on a failure, the instance's bindings."""
    rng = random.Random(seed)
    runs, redraws = (samples, FUEL_RETRIES_PER_SAMPLE * samples) if metavars else (1, 0)
    done = retries = 0
    v, l, r = Verdict.EQUAL, "", ""
    while done < runs:
        bindings = {name: sample_closed(sig, rng) for name in metavars}
        for lhs, rhs in pairs:
            v, l, r = _check_instance(
                subst_consts(lhs, bindings), subst_consts(rhs, bindings), sig, fuel
            )
            if v is not Verdict.EQUAL:
                break
        if v is Verdict.EQUAL:
            done += 1
        elif v is Verdict.FUEL_EXHAUSTED and retries < redraws:
            retries += 1
        else:
            if v is Verdict.FUEL_EXHAUSTED and metavars:
                l = r = "<fuel>"
            return v, l, r, {name: format_cterm(t) for name, t in bindings.items()} or None
    return v, l, r, None


def run_axiom(
    ax: Axiom,
    sig: Signature,
    samples: int = 32,
    seed: int = 0,
    fuel: int = DEFAULT_FUEL,
) -> AxiomReport:
    """Check one axiom row, all its variants as one law (`check_law`)."""
    pairs = [(parse_cterm(l), parse_cterm(r)) for l, r in ax.variants]
    v, l, r, witness = check_law(pairs, ax.metavars, sig, samples, seed, fuel)
    return AxiomReport(ax.name, "pass" if v is Verdict.EQUAL else "fail", l, r, witness)


def axiom_suite(
    sig: Signature,
    samples: int = 32,
    seed: int = 0,
    fuel: int = DEFAULT_FUEL,
) -> list[AxiomReport]:
    """Check every axiom row of the signature's table on the free term model,
    instantiating metavariables with seeded pseudo-random closed terms."""
    reports = []
    for k, ax in enumerate(AXIOM_TABLES[sig.tag]):
        reports.append(run_axiom(ax, sig, samples=samples, seed=seed + k, fuel=fuel))
    return reports


# -- the classical duplicator --------------------------------------------------------

def derive_classical_S() -> CTerm:
    """A duplicating composite over B, C, W acting like the classical S, in
    the BCIWK signature: the cartesian bracket abstraction of the polynomial
    (x0 x2) (x1 x2)."""
    return bracket_abstract(parse_cterm("x0 x2 (x1 x2)"), BCIWK)
