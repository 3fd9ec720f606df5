"""The end-to-end acceptance battery.

Each criterion is a function returning a Result; `run_all` executes the lot
and prints one pass/fail line per criterion.  All checks are exact (symbolic
equality); the only tunables are the documented sample counts, seeds, and the
cartesian fuel bound.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from . import comb, operad, terms
from .braids import (
    BraidWord,
    braid_equal,
    braid_is_trivial,
    cable,
    exponent_sum,
    parse_braid,
    underlying_permutation,
)
from .comb import (
    BCI,
    BCIWK,
    BCPMI,
    BIBULLET,
    Bullet,
    CApp,
    ConstRef,
    CTerm,
    Prim,
    axiom_suite,
    capp,
    check_law,
    comb_equal,
    derive_classical_S,
    format_cterm,
    parse_cterm,
    sample_closed,
)
from .normalize import DEFAULT_FUEL, Verdict, lam_equal, normalize
from .terms import App, Discipline, Lam, Var, parse


@dataclass
class Result:
    name: str
    ok: bool
    detail: str = ""


# -- criterion 1: braid relations and the brute-force cross-check -------------------

_B3_RELATIONS = (
    ((1, 2, 1), (2, 1, 2)),
    ((2, 1, 2), (1, 2, 1)),
    ((-1, -2, -1), (-2, -1, -2)),
    ((-2, -1, -2), (-1, -2, -1)),
)


# `_relator_search_trivial`'s bounds: moves per proof, letters per word.
_SEARCH_DEPTH = 6
_SEARCH_CAP = 8


def _relator_search_trivial(word: tuple[int, ...]) -> bool:
    """Breadth-first proof search for triviality in B3.

    Moves: cancel an adjacent inverse pair, insert one, or rewrite by a braid
    relation.  Exponent sum and the underlying permutation prune soundly.
    Independent of handle reduction.
    """
    u = BraidWord(3, word)
    if exponent_sum(u) != 0 or underlying_permutation(u) != (1, 2, 3):
        return False
    seen = {word}
    frontier = deque([(word, 0)])
    letters = (1, -1, 2, -2)
    while frontier:
        w, d = frontier.popleft()
        if not w:
            return True
        if d >= _SEARCH_DEPTH:
            continue
        nexts = []
        for i in range(len(w) - 1):
            if w[i] == -w[i + 1]:
                nexts.append(w[:i] + w[i + 2 :])
        for lhs, rhs in _B3_RELATIONS:
            for i in range(len(w) - len(lhs) + 1):
                if w[i : i + len(lhs)] == lhs:
                    nexts.append(w[:i] + rhs + w[i + len(lhs) :])
        if len(w) + 2 <= _SEARCH_CAP:
            for i in range(len(w) + 1):
                for a in letters:
                    nexts.append(w[:i] + (a, -a) + w[i:])
        for nw in nexts:
            if nw not in seen:
                seen.add(nw)
                frontier.append((nw, d + 1))
    return False


def criterion_1(samples: int, seed: int, fuel: int) -> Result:
    # (lhs, rhs, wanted): three B4 relations, and sigma1 is not its inverse
    cases = [
        ("{4; 3 1}", "{4; 1 3}", True),
        ("{4; 1 2 1}", "{4; 2 1 2}", True),
        ("{4; 2 3 2}", "{4; 3 2 3}", True),
        ("{2; 1}", "{2; -1}", False),
    ]
    for lhs, rhs, wanted in cases:
        got = braid_equal(parse_braid(lhs), parse_braid(rhs))
        if got != wanted:
            return Result("braid relations", False, f"{lhs} = {rhs} is {got}, wanted {wanted}")

    letters = (1, -1, 2, -2)
    checked = 0
    for length in range(0, 5):
        for word in itertools.product(letters, repeat=length):
            exact = braid_is_trivial(BraidWord(3, word))
            brute = _relator_search_trivial(word)
            if exact != brute:
                return Result(
                    "braid relations", False, f"disagreement on {word}: exact={exact} brute={brute}"
                )
            checked += 1
    return Result("braid relations", True, f"B4 relations + {checked} exhaustive B3 words")


def criterion_2(samples: int, seed: int, fuel: int) -> Result:
    got = cable(parse_braid("{3; -2 1}"), [1, 2, 1])
    want = parse_braid("{4; -3 2 1}")
    if not braid_equal(got, want):
        return Result("cabling", False, f"cable example -> {got}, wanted {want}")
    return Result("cabling", True, f"cable example -> {got}")


# -- criteria 3-6: axiom suites ------------------------------------------------------

def _suite_criterion(name: str, sig: comb.Signature, samples: int, seed: int, fuel: int) -> Result:
    reports = axiom_suite(sig, samples=samples, seed=seed, fuel=fuel)
    bad = [r for r in reports if r.status != "pass"]
    if bad:
        first = bad[0]
        return Result(
            name,
            False,
            f"{first.axiom}: {first.status} (lhs {first.lhs_nf} vs rhs {first.rhs_nf}, "
            f"witness {first.witness_bindings})",
        )
    return Result(name, True, f"{len(reports)} rows pass")


def criterion_3(samples: int, seed: int, fuel: int) -> Result:
    return _suite_criterion("planar axiom suite", BIBULLET, samples, seed, fuel)


def criterion_4(samples: int, seed: int, fuel: int) -> Result:
    return _suite_criterion("linear axiom suite", BCI, samples, seed, fuel)


def criterion_5(samples: int, seed: int, fuel: int) -> Result:
    return _suite_criterion("braided axiom suite", BCPMI, samples, seed, fuel)


def criterion_6(samples: int, seed: int, fuel: int) -> Result:
    base = _suite_criterion("cartesian axiom suite", BCIWK, samples, seed, fuel)
    if not base.ok:
        return base
    a, b, c = (ConstRef(name) for name in "abc")
    S, K = derive_classical_S(), Prim("K")
    law = [(capp(S, a, b, c), capp(a, c, CApp(b, c))), (capp(K, a, b), a)]
    v, l, r, witness = check_law(law, "abc", BCIWK, samples, seed, fuel)
    if v is not Verdict.EQUAL:
        detail = f"S a b c = a c (b c), K a b = a: {v} (lhs {l} vs rhs {r}, witness {witness})"
        return Result(base.name, False, detail)
    return Result(base.name, True, base.detail + f"; duplicator + K on {samples} samples")


# -- criterion 7: the arity table ----------------------------------------------------

def criterion_7(samples: int, seed: int, fuel: int) -> Result:
    # (expression, bound, wanted arity): the primitives, the derived duplicator,
    # five internalized samples, and the argument flip, which has none
    rng = random.Random(seed)
    table = [
        (parse_cterm("I"), 4, (0, 0)),
        (parse_cterm("B"), 4, (2, 1)),
        (parse_cterm("C"), 4, (2, 2)),
        (parse_cterm("K"), 4, (1, 0)),
        (parse_cterm("W"), 4, (1, 2)),
        (derive_classical_S(), 4, (2, 2)),
        *((Bullet(sample_closed(BCIWK, rng)), 4, (0, 1)) for _ in range(5)),
        (parse_cterm("C I"), 3, None),
    ]
    for expr, bound, want in table:
        got = operad.infer_arity(expr, bound=bound, sig=BCIWK, fuel=fuel)
        if got != want:
            return Result("arity table", False, f"{format_cterm(expr)}: arity {got}, wanted {want}")
    return Result("arity table", True, "I B C S K W, 5 internalized samples, and the flip")


# -- criterion 8: the three-way arity equivalence --------------------------------------

def _head_form_arity_m1(nf, m: int) -> bool:
    """Witness check against the head form with one output.

    A term with that arity eta-contracts to an abstraction prefix whose first
    binder sits in head position, not free in the arguments, applied to at
    most one argument: exactly one argument with m+1 binders, or none with m
    binders (the final eta step consumed the lone argument)."""
    r = 0
    body = nf
    while isinstance(body, Lam):
        r += 1
        body = body.body
    args = []
    head = body
    while isinstance(head, App):
        args.append(head.arg)
        head = head.fn
    return (
        r > 0
        and isinstance(head, Var)
        and head.index == r - 1
        and len(args) <= 1
        and all(r - 1 not in terms.wires(a) for a in args)
        and m == r - len(args)
    )


def _gen_closed_planar(rng: random.Random, max_size: int) -> terms.LTerm:
    """A closed planar term of at most max_size nodes.  Every draw is
    planar: `_planar_source` uses each context name once and in order."""
    counter = itertools.count()
    while True:
        t = parse(_planar_source([], rng.randint(3, 6), rng, counter))
        if t.size <= max_size:
            return t


def _planar_source(
    ctx: list[str], depth: int, rng: random.Random, counter: Iterator[int]
) -> str:
    """Source of a random term over the context names ctx, used in order,
    at most depth deep; `counter` numbers the fresh binder names."""
    if depth <= 0:
        if len(ctx) == 0:
            v = f"a{next(counter)}"
            return f"(\\{v}. {v})"
        return " ".join(ctx) if len(ctx) > 1 else ctx[0]
    roll = rng.random()
    if len(ctx) == 1 and roll < 0.3:
        return ctx[0]
    if roll < 0.55 or len(ctx) == 0:
        v = f"a{next(counter)}"
        return f"(\\{v}. {_planar_source(ctx + [v], depth - 1, rng, counter)})"
    k = rng.randint(0, len(ctx))
    return (
        f"({_planar_source(ctx[:k], depth - 1, rng, counter)} "
        f"{_planar_source(ctx[k:], depth - 1, rng, counter)})"
    )


def _holds(equation: tuple[CTerm, CTerm], M: terms.LTerm) -> bool:
    """Whether an equation of the constant M holds, in the planar discipline,
    with the closed lambda term M in its place."""
    lhs, rhs = (
        terms.replace_consts(
            comb.to_lambda(c, Discipline.PLANAR),
            lambda name, depth: M if name == "M" else None,
        )
        for c in equation
    )
    return lam_equal(lhs, rhs, Discipline.PLANAR) is Verdict.EQUAL


def criterion_8(samples: int, seed: int, fuel: int) -> Result:
    """For closed planar terms, the head form of the normal form shows arity
    m -> 1 exactly when `operad`'s membership equation at m and its arity
    equation m -> 1 hold."""
    rng = random.Random(seed)
    count = 200
    for idx in range(count):
        M = _gen_closed_planar(rng, 25)
        nf = normalize(M, Discipline.PLANAR)
        for m in range(0, 4):
            c1 = _head_form_arity_m1(nf, m)
            c2 = _holds(operad.membership_lhs_rhs(ConstRef("M"), m), M)
            c3 = _holds(operad.arity_lhs_rhs(ConstRef("M"), m, 1), M)
            if not (c1 == c2 == c3):
                return Result(
                    "arity equivalence",
                    False,
                    f"term {terms.pretty(M)} at m={m}: head={c1} membership={c2} equation={c3}",
                )
    return Result("arity equivalence", True, f"{count} closed planar terms, m <= 3")


# -- criterion 9: operad laws -----------------------------------------------------------

def criterion_9(samples: int, seed: int, fuel: int) -> Result:
    sig = BIBULLET
    rng = random.Random(seed)
    compose = operad.operad_compose
    for _ in range(samples):
        # unit laws
        f = operad.sample_operad_elem(rng.randint(0, 2), sig, rng)
        laws = [
            ("id(f) = f", compose(operad.ID_ELEM, [f], sig).elem, f.elem),
            ("f(id, .., id) = f", compose(f, [operad.ID_ELEM] * f.m, sig).elem, f.elem),
        ]

        # associativity: h(g1(f11..), g2(f21..)) = (h(g1, g2))(f11.., f21..)
        h = operad.sample_operad_elem(2, sig, rng)
        gs = [operad.sample_operad_elem(rng.randint(0, 2), sig, rng) for _ in range(2)]
        fss = [
            [operad.sample_operad_elem(rng.randint(0, 1), sig, rng) for _ in range(g.m)]
            for g in gs
        ]
        nested = compose(h, [compose(g, fs, sig) for g, fs in zip(gs, fss)], sig)
        flat = compose(compose(h, gs, sig), fss[0] + fss[1], sig)
        laws.append(("associativity", nested.elem, flat.elem))

        # closedness round trips
        t = operad.sample_operad_elem(rng.randint(1, 3), sig, rng)
        back = compose(operad.APP_ELEM, [operad.closed_lambda(t), operad.ID_ELEM], sig)
        laws.append(("lambda(t) o B = t", back.elem, t.elem))
        x = operad.sample_operad_elem(rng.randint(0, 2), sig, rng)
        xB = compose(operad.APP_ELEM, [x, operad.ID_ELEM], sig)
        again = operad.closed_lambda(operad.OperadElem(xB.elem, x.m + 1))
        laws.append(("lambda(x o B) = x", again.elem, x.elem))

        # exchange law for a checked arity
        m = rng.randint(0, 2)
        a = operad.sample_operad_elem(m, sig, rng)  # arity m -> 1
        b = sample_closed(sig, rng, max_depth=1)
        laws.append((
            "exchange law",
            comb.compose(comb.b_power_apply(m, b), a.elem),
            comb.compose(a.elem, comb.b_power_apply(1, b)),
        ))

        for name, lhs, rhs in laws:
            v = comb_equal(lhs, rhs, sig, fuel=fuel)
            if v is not Verdict.EQUAL:
                detail = f"{name}: {v} ({format_cterm(lhs)} vs {format_cterm(rhs)})"
                return Result("operad laws", False, detail)
    return Result("operad laws", True, f"{samples} sampled instances")


# -- criterion 10: non-faithfulness -----------------------------------------------------

def criterion_10(samples: int, seed: int, fuel: int) -> Result:
    sig = BCPMI
    mp = parse_cterm("C+ o B")
    mm = parse_cterm("C- o B")
    v = comb_equal(mp, mm, sig, fuel=fuel)
    if v is not Verdict.NOT_EQUAL:
        return Result("non-faithfulness", False, f"C+ o B = C- o B is {v}, wanted NotEqual")
    fp = operad.operad_elem(mp, 2, sig)
    fm = operad.operad_elem(mm, 2, sig)
    rng = random.Random(seed)
    for _ in range(samples):
        a1 = sample_closed(sig, rng, max_depth=2)
        a2 = sample_closed(sig, rng, max_depth=2)
        v1 = operad.evaluate(fp, [a1, a2], sig, fuel=fuel)
        v2 = operad.evaluate(fm, [a1, a2], sig, fuel=fuel)
        want = CApp(a2, a1)
        if not (v1 == want == v2):
            return Result(
                "non-faithfulness",
                False,
                f"evaluations {format_cterm(v1)} and {format_cterm(v2)}, "
                f"wanted {format_cterm(want)}",
            )
    return Result("non-faithfulness", True, f"distinct elements, equal on {samples} pairs")


# -- criterion 11: equivariance -----------------------------------------------------------

def _words(k: int, maxlen: int) -> list[tuple[int, ...]]:
    letters = [i for i in range(-(k - 1), k) if i != 0]
    out: list[tuple[int, ...]] = [()]
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(maxlen):
        frontier = [w + (a,) for w in frontier for a in letters]
        out += frontier
    return out


def criterion_11(samples: int, seed: int, fuel: int) -> Result:
    sig = BCPMI
    rng = random.Random(seed)
    pools = {
        m: [operad.sample_operad_elem(m, sig, rng) for _ in range(8)]
        for m in range(0, 4)
    }
    total = 0
    for k in (1, 2, 3):
        for word in _words(k, 2):
            for js in itertools.product((0, 1, 2), repeat=k):
                for i in range(8):
                    f = pools[k][i]
                    gs = [pools[j][(i + off + 1) % 8] for off, j in enumerate(js)]
                    v = operad.check_equivariance(f, gs, BraidWord(k, word), sig, fuel=fuel)
                    total += 1
                    if v is not Verdict.EQUAL:
                        return Result(
                            "equivariance",
                            False,
                            f"k={k} word={word} widths={js} sample={i}: {v}",
                        )
    return Result("equivariance", True, f"{total} checks (all combinations x 8 samples)")


# -- criterion 12: trace syntax -------------------------------------------------------------

def criterion_12(samples: int, seed: int, fuel: int) -> Result:
    tref = operad.trefoil()
    eta, eps = operad.eta_eps()
    # (cert, print, m, n): the trefoil, the cup and the cap
    for cert, want, m, n in (
        (tref, "Tr (Tr (C+ o C+ o C+))", 0, 0),
        (eta, "Tr (Tr o B Tr o B C o C)", 0, 2),
        (eps, "Tr (C o B C o B B o B)", 2, 0),
    ):
        got = format_cterm(cert.elem)
        if (got, cert.m, cert.n) != (want, m, n):
            detail = f"{got} stated {cert.m} -> {cert.n}, wanted {want} stated {m} -> {n}"
            return Result("trace syntax", False, detail)
    inner = parse_cterm("C+ o C+ o C+")
    if operad.has_arity(inner, 2, 2, BCPMI, fuel=fuel) is not Verdict.EQUAL:
        return Result("trace syntax", False, "closure input is not 2 -> 2")
    try:
        v = comb_equal(tref.elem, comb.I, BCPMI, fuel=fuel)
    except comb.UnsupportedTrace:
        return Result("trace syntax", True, "exact prints, stated arities, equality refused")
    return Result("trace syntax", False, f"equality on Tr returned {v}, wanted a refusal")


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
)


def run_all(
    samples: int = 32,
    seed: int = 0,
    fuel: int = DEFAULT_FUEL,
    progress: bool = True,
) -> list[Result]:
    results = []
    for i, crit in enumerate(CRITERIA, start=1):
        res = crit(samples, seed, fuel)
        results.append(res)
        if progress:
            mark = "PASS" if res.ok else "FAIL"
            print(f"[{i:2d}] {mark} {res.name}: {res.detail}", flush=True)
    return results
