import pytest
from hypothesis import given, settings

from operadforge.braids import (
    BraidWord,
    DimensionError,
    braid_compose,
    cable,
    parse_braid,
    permute_contents,
)
from operadforge.comb import (
    BCI,
    BCIWK,
    BCPMI,
    BIBULLET,
    CPLUS,
    Bullet,
    CApp,
    CombError,
    ConstRef,
    CTerm,
    I,
    Prim,
    UnsupportedTrace,
    b_power_apply,
    comb_equal,
    compose,
    format_cterm,
    from_lambda_applicative,
    parse_cterm,
    sample_closed,
)
from operadforge.normalize import Verdict
from operadforge.operad import (
    APP_ELEM,
    ID_ELEM,
    ArityCert,
    ArityError,
    OperadElem,
    check_equivariance,
    closed_lambda,
    eta_eps,
    action_word,
    evaluate,
    has_arity,
    in_internal_operad,
    infer_arity,
    operad_compose,
    operad_elem,
    sample_operad_elem,
    trace_syntax,
    trefoil,
)
from operadforge.terms import TermError, Var, parse

from conftest import paired_braid_words

a, b, c = ConstRef("a"), ConstRef("b"), ConstRef("c")


def group_action(f: OperadElem, s: BraidWord, sig) -> OperadElem:
    """The action f . s of a braid (or permutation) word on an operad element:
    the word's action element, then f."""
    if s.strands != f.m:
        raise ArityError(f"word on {s.strands} strands cannot act at arity {f.m}")
    if not s.letters:
        return f
    return OperadElem(compose(action_word(s, sig), f.elem), f.m)


def _plug(word: CTerm, inner: CTerm) -> CTerm:
    """An action word B l1 (B l2 (.. I)) with its innermost I replaced by inner."""
    if word == I:
        return inner
    return CApp(word.fn, _plug(word.arg, inner))


class TestHasArity:
    def test_table(self):
        assert has_arity(Prim("B"), 2, 1, BIBULLET) is Verdict.EQUAL
        assert has_arity(Prim("K"), 1, 0, BCIWK) is Verdict.EQUAL
        assert has_arity(Prim("C"), 2, 2, BCI) is Verdict.EQUAL
        assert has_arity(Prim("W"), 1, 2, BCIWK) is Verdict.EQUAL

    def test_flip_has_none(self):
        flip = parse_cterm("C I")
        for m in range(4):
            for n in range(4):
                assert has_arity(flip, m, n, BCIWK) is Verdict.NOT_EQUAL

    def test_monotonicity(self, rng):
        for _ in range(6):
            m = rng.randint(0, 2)
            x = sample_operad_elem(m, BIBULLET, rng)
            assert has_arity(x.elem, m, 1, BIBULLET) is Verdict.EQUAL
            assert has_arity(x.elem, m + 1, 2, BIBULLET) is Verdict.EQUAL

    def test_composition_of_arities(self, rng):
        # l -> m then m -> n composes to l -> n
        bb = compose(Prim("B"), Prim("B"))
        assert has_arity(bb, 3, 1, BIBULLET) is Verdict.EQUAL

    def test_b_application_shifts_arity(self, rng):
        for _ in range(4):
            x = sample_operad_elem(1, BIBULLET, rng)
            assert has_arity(CApp(Prim("B"), x.elem), 2, 2, BIBULLET) is Verdict.EQUAL

    def test_b_distributes_over_composition(self, rng):
        for _ in range(4):
            x = sample_closed(BIBULLET, rng, max_depth=1)
            y = sample_closed(BIBULLET, rng, max_depth=1)
            lhs = CApp(Prim("B"), compose(x, y))
            rhs = compose(CApp(Prim("B"), x), CApp(Prim("B"), y))
            assert comb_equal(lhs, rhs, BIBULLET) is Verdict.EQUAL
        assert comb_equal(CApp(Prim("B"), I), I, BIBULLET) is Verdict.EQUAL

    def test_trace_refused(self):
        with pytest.raises(UnsupportedTrace):
            has_arity(parse_cterm("Tr I"), 1, 1, BCPMI)

    @pytest.mark.parametrize("m,n", [(-1, 0), (0, -1), (-2, -3)])
    def test_negative_arity_refused(self, m, n):
        with pytest.raises(ArityError, match=f"^negative arity {m} -> {n}$"):
            has_arity(I, m, n, BCI)


class TestInferArity:
    def test_examples(self):
        assert infer_arity(Prim("B")) == (2, 1)
        assert infer_arity(Prim("C")) == (2, 2)
        assert infer_arity(Prim("I")) == (0, 0)
        assert infer_arity(Bullet(a)) == (0, 1)
        assert infer_arity(parse_cterm("C I"), bound=3) is None

    def test_search_order_prefers_small_m(self):
        assert infer_arity(Prim("K")) == (1, 0)
        assert infer_arity(Prim("W")) == (1, 2)

    @pytest.mark.parametrize("bound", [-1, -3])
    def test_negative_bound_refused(self, bound):
        # a search over no arities is not an answer
        with pytest.raises(ArityError, match=f"^negative arity bound {bound}$"):
            infer_arity(Prim("B"), bound=bound)


class TestMembership:
    def test_examples(self):
        assert in_internal_operad(Prim("B"), 2, BIBULLET) is Verdict.EQUAL
        assert in_internal_operad(Prim("I"), 1, BIBULLET) is Verdict.EQUAL
        assert in_internal_operad(parse_cterm("C+ o B"), 2, BCPMI) is Verdict.EQUAL

    def test_bullets_at_zero(self, rng):
        for _ in range(5):
            x = sample_closed(BIBULLET, rng, max_depth=2)
            assert in_internal_operad(Bullet(x), 0, BIBULLET) is Verdict.EQUAL

    def test_gatekeeping(self):
        with pytest.raises(ArityError):
            operad_elem(parse_cterm("C I"), 1, BCI)

    def test_negative_arity_refused(self):
        with pytest.raises(ArityError, match="^negative arity -1$"):
            in_internal_operad(I, -1, BCI)


class TestOperadStructure:
    def test_unit_laws(self, rng):
        f = sample_operad_elem(2, BIBULLET, rng)
        via_id = operad_compose(ID_ELEM, [f], BIBULLET)
        assert comb_equal(via_id.elem, f.elem, BIBULLET) is Verdict.EQUAL
        via_ids = operad_compose(f, [ID_ELEM, ID_ELEM], BIBULLET)
        assert comb_equal(via_ids.elem, f.elem, BIBULLET) is Verdict.EQUAL

    def test_app_of_bullets(self):
        out = operad_compose(APP_ELEM, [OperadElem(Bullet(a), 0), OperadElem(Bullet(b), 0)], BIBULLET)
        assert out.m == 0
        assert comb_equal(out.elem, Bullet(CApp(a, b)), BIBULLET) is Verdict.EQUAL

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            operad_compose(APP_ELEM, [ID_ELEM], BIBULLET)

    def test_verify_flag(self, rng):
        f = sample_operad_elem(1, BIBULLET, rng)
        operad_compose(APP_ELEM, [f, ID_ELEM], BIBULLET, verify=True)

    def test_closed_lambda_of_app_is_id(self):
        clo = closed_lambda(APP_ELEM)
        assert clo.m == 1
        assert comb_equal(clo.elem, I, BIBULLET) is Verdict.EQUAL

    def test_closed_lambda_round_trips(self, rng):
        for _ in range(5):
            m = rng.randint(1, 3)
            t = sample_operad_elem(m, BIBULLET, rng)
            clo = closed_lambda(t)
            back = compose(clo.elem, Prim("B"))
            assert comb_equal(back, t.elem, BIBULLET) is Verdict.EQUAL
            x = sample_operad_elem(rng.randint(0, 2), BIBULLET, rng)
            lifted = OperadElem(compose(x.elem, Prim("B")), x.m + 1)
            assert comb_equal(closed_lambda(lifted).elem, x.elem, BIBULLET) is Verdict.EQUAL

    def test_closed_lambda_requires_positive_arity(self):
        with pytest.raises(ArityError):
            closed_lambda(OperadElem(Bullet(a), 0))


class TestTensor:
    @staticmethod
    def tensor(x: ArityCert, y: ArityCert) -> ArityCert:
        """Parallel composition: x : m -> n and y : p -> q give
        (m+p) -> (n+q), realized as x o (B^n y); equal to (B^m y) o x by the
        exchange law.  Every arity involved is checked by `has_arity`."""
        out = ArityCert(compose(x.elem, b_power_apply(x.n, y.elem)), x.m + y.m, x.n + y.n)
        for cert in (x, y, out):
            assert has_arity(cert.elem, cert.m, cert.n, BIBULLET) is Verdict.EQUAL, cert
        return out

    def test_unit(self):
        out = self.tensor(ArityCert(I, 0, 0), ArityCert(Prim("B"), 2, 1))
        assert (out.m, out.n) == (2, 1)
        assert comb_equal(out.elem, Prim("B"), BIBULLET) is Verdict.EQUAL

    def test_two_bullets_exchange(self):
        out = self.tensor(ArityCert(Bullet(a), 0, 1), ArityCert(Bullet(b), 0, 1))
        assert (out.m, out.n) == (0, 2)
        # exchange law at input arity 0: b* o a* equals a* o (B b*)
        other_order = compose(Bullet(b), Bullet(a))
        assert comb_equal(out.elem, other_order, BIBULLET) is Verdict.EQUAL

    def test_b_squared(self):
        fb = ArityCert(Prim("B"), 2, 1)
        out = self.tensor(fb, fb)
        assert (out.m, out.n) == (4, 2)


class TestGroupAction:
    def test_empty_word_fixes(self, rng):
        f = sample_operad_elem(2, BCPMI, rng)
        assert group_action(f, BraidWord(2, ()), BCPMI) is f

    def test_symmetric_involution(self, rng):
        f = sample_operad_elem(2, BCI, rng)
        twice = group_action(group_action(f, BraidWord(2, (1,)), BCI), BraidWord(2, (1,)), BCI)
        assert comb_equal(twice.elem, f.elem, BCI) is Verdict.EQUAL

    def test_braided_cancellation_only_with_inverse(self):
        acted = group_action(APP_ELEM, BraidWord(2, (1,)), BCPMI)
        again = group_action(acted, BraidWord(2, (1,)), BCPMI)
        undone = group_action(acted, BraidWord(2, (-1,)), BCPMI)
        assert comb_equal(again.elem, APP_ELEM.elem, BCPMI) is Verdict.NOT_EQUAL
        assert comb_equal(undone.elem, APP_ELEM.elem, BCPMI) is Verdict.EQUAL

    def test_positive_letter_is_positive_exchange(self):
        acted = group_action(APP_ELEM, BraidWord(2, (1,)), BCPMI)
        assert comb_equal(acted.elem, parse_cterm("C+ o B"), BCPMI) is Verdict.EQUAL
        assert comb_equal(acted.elem, parse_cterm("C- o B"), BCPMI) is Verdict.NOT_EQUAL

    def test_action_law_on_words(self, rng):
        f = sample_operad_elem(3, BCPMI, rng)
        s, t = BraidWord(3, (1, -2)), BraidWord(3, (2, 1))
        lhs = group_action(group_action(f, s, BCPMI), t, BCPMI)
        rhs = group_action(f, braid_compose(s, t), BCPMI)
        assert comb_equal(lhs.elem, rhs.elem, BCPMI) is Verdict.EQUAL

    @settings(max_examples=100, deadline=None)
    @given(paired_braid_words(max_strands=5, max_len=6))
    def test_action_word_of_a_product_nests_the_first_factor(self, pair):
        # so the action law holds for every pair by construction
        s, t = pair
        for sig in (BCI, BCPMI):
            inner = action_word(s, sig)
            assert action_word(braid_compose(s, t), sig) == _plug(action_word(t, sig), inner)

    def test_strand_count_checked(self):
        with pytest.raises(ArityError):
            group_action(APP_ELEM, BraidWord(3, (1,)), BCPMI)


class TestEquivariance:
    def test_identity_word(self, rng):
        f = sample_operad_elem(2, BCPMI, rng)
        gs = [sample_operad_elem(1, BCPMI, rng) for _ in range(2)]
        assert check_equivariance(f, gs, BraidWord(2, ()), BCPMI) is Verdict.EQUAL

    def test_c2_instance(self, rng):
        f = sample_operad_elem(2, BCPMI, rng)
        g = sample_operad_elem(0, BCPMI, rng)
        for letters in ((1,), (-1,)):
            assert (
                check_equivariance(f, [g, ID_ELEM], BraidWord(2, letters), BCPMI)
                is Verdict.EQUAL
            )

    def test_paper_cabling_shape(self, rng):
        f = sample_operad_elem(3, BCPMI, rng)
        gs = [
            sample_operad_elem(1, BCPMI, rng),
            sample_operad_elem(2, BCPMI, rng),
            sample_operad_elem(1, BCPMI, rng),
        ]
        s = BraidWord(3, (-2, 1))
        assert cable(s, [1, 2, 1]) == parse_braid("{4; -3 2 1}")
        assert check_equivariance(f, gs, s, BCPMI) is Verdict.EQUAL

    def test_symmetric_signature(self, rng):
        f = sample_operad_elem(2, BCI, rng)
        gs = [sample_operad_elem(1, BCI, rng) for _ in range(2)]
        assert check_equivariance(f, gs, BraidWord(2, (1,)), BCI) is Verdict.EQUAL

    def test_size_mismatch(self, rng):
        f = sample_operad_elem(2, BCPMI, rng)
        with pytest.raises(ArityError):
            check_equivariance(f, [ID_ELEM], BraidWord(2, (1,)), BCPMI)


class TestPolynomialHom:
    def test_app(self):
        assert evaluate(APP_ELEM, [a, b], BIBULLET) == CApp(a, b)

    def test_id(self):
        assert evaluate(ID_ELEM, [a], BIBULLET) == a

    def test_non_faithfulness_witness(self):
        mp = operad_elem(parse_cterm("C+ o B"), 2, BCPMI)
        mm = operad_elem(parse_cterm("C- o B"), 2, BCPMI)
        assert comb_equal(mp.elem, mm.elem, BCPMI) is Verdict.NOT_EQUAL
        for args in ([a, b], [parse_cterm("B"), parse_cterm("C+")]):
            va = evaluate(mp, args, BCPMI)
            vb = evaluate(mm, args, BCPMI)
            assert va == CApp(args[1], args[0]) == vb

    def test_arity_checked(self):
        with pytest.raises(ArityError):
            evaluate(APP_ELEM, [a], BIBULLET)


class TestTraceSyntax:
    def test_trefoil(self):
        cert = trefoil()
        assert format_cterm(cert.elem) == "Tr (Tr (C+ o C+ o C+))"
        assert (cert.m, cert.n) == (0, 0)

    def test_trefoil_closes_a_checked_element_twice(self):
        cubed = parse_cterm("C+ o C+ o C+")
        assert has_arity(cubed, 2, 2, BCPMI) is Verdict.EQUAL
        assert trefoil() == trace_syntax(trace_syntax(ArityCert(cubed, 2, 2)))

    def test_eta_eps(self):
        eta, eps = eta_eps()
        assert format_cterm(eta.elem) == "Tr (Tr o B Tr o B C o C)"
        assert format_cterm(eps.elem) == "Tr (C o B C o B B o B)"
        assert (eta.m, eta.n) == (0, 2)
        assert (eps.m, eps.n) == (2, 0)

    def test_trace_arity_bookkeeping(self):
        inner = ArityCert(parse_cterm("C+ o C+ o C+"), 2, 2)
        once = trace_syntax(inner)
        assert (once.m, once.n) == (1, 1)
        twice = trace_syntax(once)
        assert (twice.m, twice.n) == (0, 0)

    def test_trace_requires_wires(self):
        with pytest.raises(ArityError):
            trace_syntax(ArityCert(Bullet(a), 0, 1))

    def test_cap_inner_word_certifies(self):
        assert has_arity(parse_cterm("C o B C o B B o B"), 3, 1, BCI) is Verdict.EQUAL


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Var(-1), TermError, "negative de Bruijn index"),
        (lambda: BraidWord(-1), ValueError, "strand count must be non-negative"),
        (
            lambda: permute_contents(BraidWord(2), [1]),
            DimensionError,
            "item count must equal strand count",
        ),
        (lambda: Prim("Q"), CombError, "unknown primitive 'Q'"),
        (lambda: compose(), CombError, "empty composition"),
        (
            lambda: from_lambda_applicative(parse(r"\x. x")),
            CombError,
            r"not an applicative constant combination: \x. x",
        ),
        (
            lambda: operad_compose(OperadElem(CPLUS, 0), [], BCPMI, verify=True),
            ArityError,
            "composite left the operad (NotEqual)",
        ),
    ],
    ids=["Var", "BraidWord", "permute_contents", "Prim", "compose",
         "from_lambda_applicative", "operad_compose"],
)
def test_input_guards_refuse_with_their_message(build, error, message):
    with pytest.raises(error) as e:
        build()
    assert str(e.value) == message
