"""The one-pass normalizer against the stepping oracle in normalize_oracle.py.

Both must contract the same redexes: same normal form (`==` and printed),
same exception type and message, and the same number of contractions.  The
oracle contracts one binder per `beta_step_at` call; the normalizer's
`beta_step_at` contracts a binder per argument it is given.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import normalize_oracle as oracle
from test_equivariance import checks, law_sides, mirrored_cable
from operadforge import comb, operad
from operadforge import normalize as normalize_module
from operadforge.acceptance import _words
from operadforge.braids import BraidWord, braid_inverse, permute_contents
from operadforge.normalize import Verdict, canon_braids, canonical_equal, normalize
from operadforge.terms import (
    App,
    BraidNode,
    Const,
    Context,
    Discipline,
    DisciplineError,
    Lam,
    Var,
    app,
    beta_step_at,
    bind_context,
    check_discipline,
    lams,
    parse,
    pretty,
    wires,
)

P, L, BR, CA = Discipline.PLANAR, Discipline.LINEAR, Discipline.BRAIDED, Discipline.CARTESIAN
SIG_OF = {sig.discipline: sig for sig in comb.SIGNATURES.values()}


def _outcome(call):
    try:
        return ("ok", call())
    except Exception as e:  # the comparison covers every exception
        return ("raised", type(e), str(e))


def _run(module, call):
    """(outcome, contractions) of call(), counting the binders that
    module.beta_step_at contracts."""
    count = 0
    contract = module.beta_step_at

    def counting(fn, args):
        nonlocal count
        count += 1 if module is oracle else len(args)
        return contract(fn, args)

    module.beta_step_at = counting
    try:
        out = _outcome(call)
    finally:
        module.beta_step_at = contract
    return out, count


def assert_same(t, d, **kw):
    new, steps = _run(normalize_module, lambda: normalize(t, d, **kw))
    old, oracle_steps = _run(oracle, lambda: oracle.normalize(t, d, **kw))
    assert steps == oracle_steps, pretty(t)
    if old[0] == "ok":
        assert new[0] == "ok", (pretty(t), new)
        assert new[1] == old[1], pretty(t)
        assert pretty(new[1]) == pretty(old[1])
    else:
        assert new == old, pretty(t)
    return new


def cterms(sig, max_leaves=14):
    """Expressions over sig's primitives, internalization and two constants."""
    leaves = [comb.Prim(p) for p in sorted(sig.primitives)] + [
        comb.ConstRef("a"),
        comb.ConstRef("b"),
    ]
    return st.recursive(
        st.sampled_from(leaves),
        lambda sub: st.one_of(st.builds(comb.CApp, sub, sub), st.builds(comb.Bullet, sub)),
        max_leaves=max_leaves,
    )


def _cases(d):
    sig = SIG_OF[d]
    fuel = st.integers(0, 60) if d is CA else st.just(10_000)
    shape = st.sampled_from(["closed", "applied", "spine"])
    return st.tuples(cterms(sig), cterms(sig), shape, fuel)


def _shaped(d, c1, c2, shape):
    """The term and context for a case: c1 closed; c1 applied to two context
    variables; or a variable head applied to c1 x y and c2 z w, so that
    braids shed in both arguments meet in one slot."""
    t1, t2 = comb.to_lambda(c1, d), comb.to_lambda(c2, d)
    x, y, z, w = (Const(n) for n in "xyzw")
    if shape == "closed":
        return t1, Context()
    if shape == "applied":
        return App(App(t1, x), y), Context(("x", "y"))
    spine = App(App(Const("f"), App(App(t1, x), y)), App(App(t2, z), w))
    return spine, Context(("f", "x", "y", "z", "w"))


@pytest.mark.parametrize("d", [P, L, BR, CA], ids=lambda d: d.value)
def test_combinator_images(d):
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_cases(d))
    def check(case):
        c1, c2, shape, fuel = case
        t, ctx = _shaped(d, c1, c2, shape)
        assert_same(t, d, fuel=fuel, ctx=ctx)

    check()


# -- independence of the reduction strategy --------------------------------------
# A braid whose crossings avoid a binder's strand may sit above the binder or
# under it, and normal order and innermost stepping leave it in different
# places; `canonical_equal` must call the two normal forms Equal.


def assert_strategies_agree(t, ctx=Context()):
    got = normalize(t, BR, ctx=ctx)
    inner = oracle.normalize(t, BR, ctx=ctx, innermost=True)
    assert canonical_equal(got, inner) is Verdict.EQUAL, pretty(t)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_cases(BR))
def test_braided_strategies_agree(case):
    c1, c2, shape, _ = case
    assert_strategies_agree(*_shaped(BR, c1, c2, shape))


def test_criterion_11_strategies_agree():
    """The law's lhs in each of criterion 11's 633 cells, on sample 0 of
    the seed-0 pools, with every element itself.  A walk that required
    equal slot words called 246 of the 633 NotEqual."""
    sides = []
    rng = random.Random(0)
    pools = {m: [operad.sample_operad_elem(m, comb.BCPMI, rng) for _ in range(8)] for m in range(4)}
    for k in (1, 2, 3):
        for word in _words(k, 2):
            for js in itertools.product((0, 1, 2), repeat=k):
                gs = [pools[j][(off + 1) % 8] for off, j in enumerate(js)]
                sides.append(law_sides(pools[k][0], gs, BraidWord(k, word), comb.BCPMI)[0])
    assert len(sides) == 633
    for lhs in sides:
        assert_strategies_agree(comb.to_lambda(lhs, BR))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32), st.integers(5, 40))
def test_planar_generated(seed, size):
    from operadforge.acceptance import _gen_closed_planar

    assert_same(_gen_closed_planar(random.Random(seed), size), P)


def test_braided_redexes_from_literals():
    """Braided exchanges and twists applied to one another."""
    sources = [
        r"\f x y. [{3; 1}] (f y x)",
        r"\f x y. [{3; -1}] (f y x)",
        r"\f x y. [{3; 1 1}] (f x y)",
        r"\f x y. [{3; 2 1 -2}] (f (y x))",
        r"\f x y. f (x y)",
        r"\u. u",
    ]
    lams_ = [parse(s) for s in sources]
    for a, b, c in itertools.product(lams_, repeat=3):
        assert_same(App(App(a, b), c), BR)
        assert_same(App(a, App(b, c)), BR)


def test_braids_shed_in_two_arguments_compose_in_order():
    # each argument sheds {2; 1}, the left one first; a later lift goes in
    # front of the slot word
    ex = r"(\a b. [{2; 1}] (b a))"
    t = parse(f"f ({ex} x y) ({ex} z w)")
    ctx = Context(("f", "x", "y", "z", "w"))
    n = assert_same(t, BR, ctx=ctx)[1]
    assert n.braid == BraidWord(5, (1, 3))


def _pool_inputs(seed, ops):
    """The terms that check_equivariance normalizes on pools of BCpmI
    elements a* o B^m, drawn as the equivariance workload draws them."""
    sig = comb.BCPMI
    prims = [comb.Prim(name) for name in sorted(sig.primitives)]
    rng = random.Random(seed)

    def depth1():
        roll = rng.random()
        if roll < 0.45:
            return rng.choice(prims)
        if roll < 0.6:
            return comb.Bullet(rng.choice(prims))
        return comb.CApp(rng.choice(prims), rng.choice(prims))

    pools = {
        m: [
            operad.OperadElem(comb.compose(comb.Bullet(depth1()), comb.b_power_element(m)), m)
            for _ in range(8)
        ]
        for m in range(4)
    }
    seen = []

    def recording(t, d, fuel=normalize_module.DEFAULT_FUEL, ctx=Context()):
        seen.append((t, d, fuel, ctx))
        return normalize(t, d, fuel=fuel, ctx=ctx)

    normalize_module.normalize = recording
    try:
        for _ in range(ops):
            k = rng.choice((1, 2, 3))
            letters = [i for i in range(-(k - 1), k) if i != 0]
            word = tuple(rng.choice(letters) for _ in range(rng.randrange(3))) if letters else ()
            js = [rng.randrange(3) for _ in range(k)]
            i = rng.randrange(8)
            gs = [pools[j][(i + off + 1) % 8] for off, j in enumerate(js)]
            operad.check_equivariance(pools[k][i], gs, BraidWord(k, word), sig)
    finally:
        normalize_module.normalize = normalize
    return seen


@pytest.mark.parametrize("seed", [7, 8])
def test_operad_pool_expressions(seed):
    inputs = _pool_inputs(seed, 24)
    assert len(inputs) == 48
    for t, d, fuel, ctx in inputs:
        assert_same(t, d, fuel=fuel, ctx=ctx)


CARTESIAN_LIMITS = [
    (r"(\x. x x) (\x. x x)", 0),
    (r"(\x. x x) (\x. x x)", 1),
    (r"(\x. x x) (\x. x x)", 100),
    (r"(\x. x x x) (\x. x x x)", 10**9),
    (r"(\x. x x x) (\x. x x x)", 7),
    (r"(\f x. f (f x)) (\f x. f (f x)) (\f x. f (f x)) (\f x. f (f x)) (\f x. f (f x))", 10**6),
    (r"(\x y. y) ((\x. x x) (\x. x x)) a", 3),
    (r"(\x y. x) a ((\x. x x) (\x. x x))", 1),
    (r"(\x y. x) a ((\x. x x) (\x. x x))", 0),
    (r"(\x. a (x x)) (\x. a (x x))", 40),
    # four two-binder groups over 500 b's, each growing by -3 then 2,991:
    # the cap fires at the fourth group's second binder, after 8 steps
    ("k" + (r" ((\x y. c y y y y) a (" + " b" * 500 + "))") * 4, 100),
]


def test_cartesian_fuel_and_size_cap():
    outcomes = [str(assert_same(parse(src), CA, fuel=fuel)[-1]) for src, fuel in CARTESIAN_LIMITS]
    assert any("within" in o for o in outcomes)
    assert any("grew past" in o for o in outcomes)


def test_size_cap_counts_growth_past_the_input():
    # (\x. x) applied to 16,383 nodes: past SIZE_CAP before and after the
    # one step, which both count as shrinking by three
    big = parse("b")
    for _ in range(13):
        big = App(big, big)
    assert big.size > normalize_module.SIZE_CAP
    assert assert_same(App(parse(r"\x. x"), big), CA, fuel=1) == ("ok", big)


def test_cartesian_contraction_and_traversal_counts(monkeypatch):
    """A tripwire for the cartesian work: a binder group takes its arguments
    in one traversal, as in the exactly-once disciplines, and the binders
    contracted are those that contracting one binder per traversal
    contracts."""
    traverse = normalize_module.beta_step_at
    counts = {"traversals": 0, "binders": 0}

    def counting(fn, args):
        counts["traversals"] += 1
        counts["binders"] += len(args)
        return traverse(fn, args)

    monkeypatch.setattr(normalize_module, "beta_step_at", counting)
    assert all(r.status == "pass" for r in comb.axiom_suite(comb.BCIWK, samples=4))
    # one binder per traversal makes 1,166 traversals
    assert counts == {"traversals": 635, "binders": 1_166}


# -- eta contraction -------------------------------------------------------------


def _under(word, ws):
    """The wire order a braid node's body presents so that the node over it
    presents ws: pushing the contents back through the word's inverse."""
    return permute_contents(braid_inverse(word), ws[::-1])[::-1]


def _eta_word(rng, n):
    """A word on n strands that fixes strand 1's position: letters avoiding
    it, and sometimes a pair of crossings on it, which handle reduction
    cancels (then eta fires) or does not (then it is blocked)."""
    letters = []
    if n > 2:
        letters = [rng.choice((1, -1)) * rng.randrange(2, n) for _ in range(rng.randrange(3))]
    if rng.random() < 0.3:
        at = rng.randrange(len(letters) + 1)
        letters[at:at] = rng.choice([(1, 1), (1, -1), (-1, -1)])
    return BraidWord(n, tuple(letters))


def _braided_term(rng, ws, size):
    """A random braided term of about size nodes that presents the wires ws
    (de Bruijn indices, in order): abstractions, most of the shape \\x. M x
    or \\x. [w] (M x), applications, and braid nodes over subterms."""
    roll = rng.random()
    if size <= 1 or roll < 0.15:
        if len(ws) == 1 and rng.random() < 0.7:
            return Var(ws[0])
        return app(Const(rng.choice("gh")), *map(Var, ws))
    if roll < 0.55:
        inner = [w + 1 for w in ws] + [0]
        if rng.random() < 0.4:
            return Lam(_braided_term(rng, inner, size - 1))
        word = _eta_word(rng, len(inner)) if len(inner) > 1 and rng.random() < 0.6 else None
        under = inner if word is None else _under(word, inner)
        m = App(_braided_term(rng, under[:-1], size - 2), Var(0))
        return Lam(m if word is None else BraidNode(word, m))
    if roll < 0.7 and len(ws) >= 2:
        word = BraidWord(len(ws), tuple(
            rng.choice((1, -1)) * rng.randrange(1, len(ws)) for _ in range(rng.randrange(1, 4))
        ))
        return BraidNode(word, _braided_term(rng, _under(word, ws), size - 1))
    k = rng.randint(0, len(ws))
    return App(_braided_term(rng, ws[:k], size // 2), _braided_term(rng, ws[k:], size // 2))


def test_braided_eta_matches_stepping(monkeypatch):
    """The pass contracts eta as it rebuilds each abstraction, innermost
    first; the oracle steps eta from the root after beta, outermost first.
    On random braided terms in contexts of 0 to 3 names both give the same
    skeleton and the same braid in every slot, and the pass's output is
    canonical.  The slot words are the same words too, except where one
    braided eta contraction sits inside another's body: the outer word is
    then handle-reduced after the inner braid joined it, not before, which
    spells the same braid differently.  Some terms must leave a braid from
    an eta contraction in argument position, which the pass lifts into its
    slot."""
    left, shed, respelled = {}, 0, 0
    eta, shed_fn = normalize_module.eta_contract, normalize_module._Slot.shed

    def eta_spy(t):
        out = eta(t)
        if out is not t and type(out) is BraidNode:
            left[id(out)] = out
        return out

    def shed_spy(slot, r, right):
        nonlocal shed
        shed += id(r) in left
        return shed_fn(slot, r, right)

    monkeypatch.setattr(normalize_module, "eta_contract", eta_spy)
    monkeypatch.setattr(normalize_module._Slot, "shed", shed_spy)
    rng = random.Random(20261018)
    for _ in range(3000):
        n = rng.randint(0, 3)
        t = _braided_term(rng, list(range(n - 1, -1, -1)), rng.randint(4, 18))
        ctx = Context(tuple(f"x{i}" for i in range(n)))
        check_discipline(t, BR, ctx)
        got = normalize(t, BR, ctx=ctx)
        want = oracle.normalize(t, BR, ctx=ctx)
        assert got.canon, pretty(t)
        if got == want:
            assert pretty(got) == pretty(want)
        else:
            respelled += 1
            assert canonical_equal(got, want) is Verdict.EQUAL, pretty(t)
    assert shed >= 50
    assert respelled < 10


# -- one contraction -------------------------------------------------------------


_BIT = st.booleans()
# per wire count n: where to split n wires, and a word of up to 4 letters on them
_SPLIT = {n: st.integers(1, n - 1) for n in range(2, 6)}
_LETTERS = {
    n: st.lists(st.tuples(st.integers(1, n - 1), _BIT), max_size=4) for n in range(2, 6)
}


@st.composite
def spines(draw, wires_):
    """A term whose free wires are exactly `wires_`, in some order, with
    braid nodes over random groups.  Every choice is one draw from a
    strategy built once, not a nested composite or flatmap per node: the
    choices come at the same rates, and hypothesis draws them faster."""
    return _spine(draw, wires_)


def _spine(draw, wires_):
    if len(wires_) == 1:
        return Var(wires_[0])
    n = len(wires_)
    if draw(_BIT) and n <= 4:
        # an abstraction whose bound wire comes last
        return Lam(_spine(draw, [w + 1 for w in wires_] + [0]))
    k = draw(_SPLIT[n])
    t = App(_spine(draw, wires_[:k]), _spine(draw, wires_[k:]))
    if draw(_BIT):
        letters = tuple(-i if neg else i for i, neg in draw(_LETTERS[n]))
        t = BraidNode(BraidWord(n, letters), t)
    return t


ARGS = {
    "width0": Const("a"),
    "width1": Var(4),
    "width2": App(Var(4), Var(5)),
    "width3": App(App(Var(4), Var(6)), Var(5)),
    "lambda": Lam(App(Var(0), Var(5))),
}


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda n: st.permutations(list(range(n)))).flatmap(spines),
    st.sampled_from(sorted(ARGS)),
    st.booleans(),
)
def test_beta_step_at_matches_substitution(body, arg_name, duplicate):
    if duplicate:
        # the bound wire twice under one braid node
        n = len(wires(body))
        body = BraidNode(BraidWord(n + 1, (1,)), App(body, Var(0)))
    # canonical inputs give the canonical form of the substitution's reduct
    fn, arg = canon_braids(Lam(body)), canon_braids(ARGS[arg_name])
    assert _outcome(lambda: beta_step_at(fn, [arg])) == _outcome(
        lambda: (canon_braids(oracle.beta_step_at(fn, arg)), [wires(body).count(0)])
    )


def test_beta_step_at_cabling_widths():
    # f rides strand 3 of the braid; arguments of width 0, 1 and 2 replace it
    fn = canon_braids(parse(r"\f x y. [{3; 1}] (f y x)"))
    for arg, strands in ((Const("m"), 2), (Var(7), 3), (App(Var(7), Var(8)), 4)):
        got, uses = beta_step_at(fn, [arg])
        assert got == canon_braids(oracle.beta_step_at(fn, arg)) and uses == [1]
        assert got.body.body.braid.strands == strands


def test_beta_step_at_duplicated_wire():
    fn = Lam(BraidNode(BraidWord(2, (1,)), App(Var(0), Var(0))))
    with pytest.raises(DisciplineError, match="duplicated wire under a braid node"):
        beta_step_at(fn, [Const("a")])
    with pytest.raises(DisciplineError, match="duplicated wire under a braid node"):
        oracle.beta_step_at(fn, Const("a"))


# -- one binder group ------------------------------------------------------------


def _one_by_one(fn, args):
    """The oracle's single contractions of fn's binders, outermost first,
    each reduct canonicalized as the normalizer's are."""
    for a in args:
        fn = canon_braids(oracle.beta_step_at(fn, a))
    return fn


@st.composite
def groups(draw):
    """(g, M, argument names): a body M under a group of g binders, whose
    wires are the binders and up to two outer variables, with braid nodes
    over random groups of wires; sometimes one binder rides a braid node
    twice."""
    g = draw(st.integers(2, 3))
    n = draw(st.integers(g, g + 2))
    body = draw(spines(draw(st.permutations(list(range(n))))))
    dup = draw(st.none() | st.integers(0, g - 1))
    if dup is not None:
        body = BraidNode(BraidWord(n + 1, (1,)), App(body, Var(dup)))
    names = draw(st.lists(st.sampled_from(sorted(ARGS)), min_size=g, max_size=g))
    return g, body, names


@settings(max_examples=250, deadline=None)
@given(groups())
def test_group_contraction_matches_single_contractions(case):
    # width-0 arguments delete strands, so a word can turn trivial part-way
    # through the group; single contractions then drop it before the next
    # binder's cabling, and never check that binder's wires in it
    g, body, names = case
    fn, args = canon_braids(lams(g, body)), [canon_braids(ARGS[k]) for k in names]
    uses = [wires(body).count(g - 1 - j) for j in range(g)]
    assert _outcome(lambda: beta_step_at(fn, args)) == _outcome(
        lambda: (_one_by_one(fn, args), uses)
    )


def test_group_drops_a_word_trivial_part_way():
    # x and y cross in {3; 2}; deleting x's strand leaves the word trivial,
    # so y, used twice under the node, is never cabled and nothing raises
    fn = canon_braids(parse(r"\x y. [{3; 2}] (x y y)"))
    for args in ([Const("a"), Var(5)], [Var(4), Var(5)], [App(Var(4), Var(6)), Const("b")]):
        got = _outcome(lambda: beta_step_at(fn, args))
        assert got == _outcome(lambda: (_one_by_one(fn, args), [1, 2]))
    reduct = App(App(Const("a"), Var(5)), Var(5))
    assert beta_step_at(fn, [Const("a"), Var(5)]) == (reduct, [1, 2])
    with pytest.raises(DisciplineError, match="^duplicated wire under a braid node$"):
        beta_step_at(fn, [Var(4), Var(5)])


# -- proper combinators ------------------------------------------------------------


@st.composite
def _trees(draw, leaves):
    """An application tree over the binders `leaves` (de Bruijn indices
    under the whole group), each once, in the order given."""
    if len(leaves) == 1:
        return Var(leaves[0])
    k = draw(st.integers(1, len(leaves) - 1))
    return App(draw(_trees(leaves[:k])), draw(_trees(leaves[k:])))


@st.composite
def proper_combinators(draw):
    """(g, fn, in_order): a group of 1 to 4 binders over an application tree
    that uses each once, in any order; in_order when the tree takes them
    left to right, as the planar and braided disciplines require."""
    g = draw(st.integers(1, 4))
    order = draw(st.permutations(list(range(g - 1, -1, -1))))
    return g, lams(g, draw(_trees(order))), order == sorted(order, reverse=True)


# Arguments by width (0 to 3), closed, open, and abstractions with braided
# bodies; `#` makes each argument's context names its own.  Each comes with
# the names it presents, in order.
BRAID_FREE_ARGS = [
    ("a", ""),
    (r"(\x. x)", ""),
    ("p#", "p#"),
    ("q# r#", "q# r#"),
    ("s# (t# u#)", "s# t# u#"),
    (r"(\v. w# v)", "w#"),
]
BRAIDED_ARGS = [
    (r"(\f x y. [{3; 1}] (f y x))", ""),
    (r"(\v. [{2; 1}] (v w#))", "w#"),
    (r"(\v. [{3; -1 2}] (m# v n#))", "n# m#"),
]
LINEAR_ARGS = [(r"(\v. v w#)", "w#"), (r"(\f x y. f y x)", "")]


@st.composite
def saturated(draw):
    """(g, fn, t, d, ctx): a proper combinator applied to all of its
    arguments and sometimes one more, in the braided discipline when its
    tree takes the binders in order and in the linear one otherwise, with
    the context the arguments' names make."""
    g, fn, in_order = draw(proper_combinators())
    pool = BRAID_FREE_ARGS + (BRAIDED_ARGS if in_order else LINEAR_ARGS)
    picks = draw(st.lists(st.sampled_from(pool), min_size=g, max_size=g + 1))
    args = [parse(src.replace("#", str(i))) for i, (src, _) in enumerate(picks)]
    names = " ".join(ws.replace("#", str(i)) for i, (_, ws) in enumerate(picks)).split()
    d = BR if in_order else L
    return g, fn, app(fn, *args), d, Context(tuple(names))


@settings(max_examples=300, deadline=None)
@given(saturated())
def test_template_matches_traversal_and_oracle(case):
    """A saturated proper combinator's group is contracted in one traversal
    that uses each binder once, and the pass agrees with the oracle."""
    g, _, t, d, ctx = case
    check_discipline(t, d, ctx)
    # the canonical arguments, open ones with their context variables bound
    spine = canon_braids(bind_context(t, ctx))
    args = []
    while isinstance(spine, App):
        args.append(spine.arg)
        spine = spine.fn
    args = args[::-1][:g]
    assert all(type(a) is not BraidNode for a in args)
    reduct, uses = beta_step_at(spine, args)
    assert uses == [1] * g and reduct.canon
    assert assert_same(t, d, ctx=ctx)[0] == "ok"


# groups that are not proper combinators
NOT_PROPER = {
    "binder twice": r"\x y. x y y",
    "binder twice, one unused": r"\x y. x x",
    "binder unused": r"\f x. f",
    "braid node": r"\f x y. [{3; 1}] (f y x)",
    "abstraction": r"\f x. f (\y. x y)",
    "constant": r"\f. f c",
}


@pytest.mark.parametrize("name", sorted(NOT_PROPER))
def test_no_template_takes_the_traversal(name):
    g = 3 if name == "braid node" else 2
    t = app(parse(NOT_PROPER[name]), *(Const(f"k{i}") for i in range(g)))
    assert assert_same(t, CA if name.startswith("binder") else BR)[0] == "ok"


def test_outer_free_variable_takes_the_traversal():
    # a tree over binders and a variable z bound outside, applied under \z
    for fn in (Lam(Var(1)), lams(2, App(Var(1), Var(2))), lams(2, App(Var(2), Var(0)))):
        t = Lam(app(fn, Const("k"), Const("m")))
        assert assert_same(t, CA)[0] == "ok"
    # \y. y z inside \z
    t = Lam(App(Lam(App(Var(0), Var(1))), Const("k")))
    assert assert_same(t, L)[0] == "ok"


def test_partial_group_takes_the_traversal():
    # B with two of its three arguments, then with all three
    b = comb.to_lambda(comb.B, P)
    assert assert_same(parse(r"\z. (\f x y. f (x y)) k m z"), P)[0] == "ok"
    assert assert_same(app(b, Const("k"), Const("m")), P)[0] == "ok"


# -- equality of normal forms ------------------------------------------------------


def test_canonical_equal_matches_canonical_forms(monkeypatch):
    """The one walk against the reference equality, which copies each
    normal form into a skeleton and a dict of slot words
    (`oracle.forms_equal`).  The pairs are the normal forms of both raw
    sides of criterion 11's law and of its mirror (see
    test_equivariance.py), and random pairs of equal-size normal forms
    drawn from them: all from the one strategy, whose placement of a braid
    the two procedures then agree on.  The mirror cells give NotEqual verdicts
    between equal skeletons, which only the slot words decide."""
    sides = []
    for f, gs, s in checks(300, seed=2):
        sides.append(law_sides(f, gs, s, comb.BCPMI))
        with monkeypatch.context() as m:
            m.setattr(operad, "cable", mirrored_cable)
            sides.append(law_sides(f, gs, s, comb.BCPMI))
    pairs = [tuple(comb.comb_normal_form(c, comb.BCPMI) for c in side) for side in sides]
    by_size = {}
    for n in itertools.chain.from_iterable(pairs):
        by_size.setdefault(n.size, []).append(n)
    rng = random.Random(2)
    sizes = sorted(by_size)
    for _ in range(1500):
        group = by_size[rng.choice(sizes)]
        pairs.append((rng.choice(group), rng.choice(group)))
    verdicts = {}
    for n1, n2 in pairs:
        f1, f2 = oracle.braid_canonicalize(n1), oracle.braid_canonicalize(n2)
        got = canonical_equal(n1, n2)
        assert got is oracle.forms_equal(f1, f2), (pretty(n1), pretty(n2))
        key = (got, f1.skeleton == f2.skeleton)
        verdicts[key] = verdicts.get(key, 0) + 1
    assert verdicts[(Verdict.NOT_EQUAL, True)] >= 100, verdicts
    assert verdicts[(Verdict.NOT_EQUAL, False)] >= 100, verdicts
    assert verdicts[(Verdict.EQUAL, True)] >= 100, verdicts
