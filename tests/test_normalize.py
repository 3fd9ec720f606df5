import pytest
from hypothesis import HealthCheck, given, settings

from operadforge import normalize as normalize_module
from operadforge import operad
from operadforge.braids import parse_braid
from operadforge.comb import BCPMI, compose, to_lambda
from operadforge.normalize import (
    FuelExhausted,
    Verdict,
    canon_braids,
    canonical_equal,
    lam_equal,
    normalize,
)
from operadforge.terms import (
    App,
    BraidNode,
    Const,
    Context,
    Discipline,
    DisciplineError,
    Lam,
    Var,
    beta_step_at,
    check_discipline,
    parse,
    pretty,
    wires,
)
from test_normalize_oracle import _cases, _shaped

P, L, BR, CA = Discipline.PLANAR, Discipline.LINEAR, Discipline.BRAIDED, Discipline.CARTESIAN

B_SRC = r"(\f x y. f (x y))"
I_SRC = r"(\u. u)"
CP_SRC = r"(\f x y. [{3; 1}] (f y x))"
CM_SRC = r"(\f x y. [{3; -1}] (f y x))"
C_SRC = r"(\f x y. f y x)"


def nf(src: str, d: Discipline, **kw):
    return normalize(parse(src), d, **kw)


class TestNormalize:
    def test_simple_beta(self):
        assert nf(r"(\f. f) (\x. x)", P) == parse(r"\x. x")

    def test_b_applied_to_i_eta_contracts(self):
        assert nf(f"{B_SRC} (\\z. z)", P) == parse(r"\x. x")

    def test_cartesian_divergence_reports_fuel(self):
        with pytest.raises(FuelExhausted):
            nf(r"(\x. x x) (\x. x x)", CA, fuel=100)

    @staticmethod
    def _unchecked_pass(t):
        """The exactly-once pass on t, which `normalize` would have rejected."""
        return normalize_module._NormalOrder(None).scope(canon_braids(t))

    def test_pass_asserts_a_single_binder_is_used_once(self):
        # x occurs twice, each time under a braid that cabling x's strand
        # out of leaves trivial
        t = parse(r"(\x. g (\w. [{2; 1 1}] (x w)) (\v. [{2; 1 1}] (x v))) (\y. y c)")
        with pytest.raises(AssertionError, match=r"exactly-once binders used \[2\] times$"):
            self._unchecked_pass(t)

    def test_pass_asserts_every_binder_of_a_group_is_used_once(self):
        # x does not occur and y occurs twice
        t = parse(r"(\x y. g y y) a (\z. z c)")
        with pytest.raises(AssertionError, match=r"exactly-once binders used \[0, 2\] times$"):
            self._unchecked_pass(t)

    def test_pass_raises_what_the_group_traversal_raises(self):
        # the group's one traversal meets y's duplicated wire under the
        # braid node before the occurrence counts are checked
        t = parse(r"(\x y. g x x (\w. [{3; 1}] (y y w))) (\z. z c) b")
        with pytest.raises(DisciplineError, match="^duplicated wire under a braid node$"):
            self._unchecked_pass(t)

    def test_fuel_ignored_for_exactly_once(self):
        assert nf(f"{B_SRC} {I_SRC}", L, fuel=1) == parse(r"\x. x")

    def test_rejects_ill_disciplined_input(self):
        with pytest.raises(DisciplineError):
            nf(r"\f x. f x x", L)

    def test_strategy_independence(self, rng):
        """Normal order and innermost stepping give the same planar normal
        form, and braided ones that compare Equal, though a braid clear of
        a binder's strand may sit above the binder in one and under it in
        the other.  A walk that required equal slot words called 5 of these
        40 composites of three operad elements NotEqual."""
        from operadforge.acceptance import _gen_closed_planar
        from normalize_oracle import normalize as step_normalize

        for _ in range(40):
            t = _gen_closed_planar(rng, 25)
            out = normalize(t, P)
            inn = step_normalize(t, P, innermost=True)
            assert out == inn
        for _ in range(40):
            parts = [operad.sample_operad_elem(rng.randrange(4), BCPMI, rng) for _ in range(3)]
            t = to_lambda(compose(*(p.elem for p in parts)), BR)
            out = normalize(t, BR)
            inn = step_normalize(t, BR, innermost=True)
            assert canonical_equal(out, inn) is Verdict.EQUAL, pretty(t)

    def test_eta_postcondition(self, rng):
        from operadforge.acceptance import _gen_closed_planar

        def has_eta_redex(t):
            if isinstance(t, Lam):
                if (
                    isinstance(t.body, App)
                    and t.body.arg == Var(0)
                    and 0 not in wires(t.body.fn)
                ):
                    return True
                return has_eta_redex(t.body)
            if isinstance(t, App):
                return has_eta_redex(t.fn) or has_eta_redex(t.arg)
            if isinstance(t, BraidNode):
                return has_eta_redex(t.body)
            return False

        for _ in range(40):
            t = _gen_closed_planar(rng, 25)
            assert not has_eta_redex(normalize(t, P))


class TestNormalMark:
    """`normalize` marks what it returns and returns a marked term as it
    is, which is sound only because a normal form is a fixed point of the
    pass; a term with a redex left must not carry the mark."""

    @pytest.mark.parametrize("d", [P, L, BR, CA], ids=lambda d: d.value)
    def test_normal_forms_are_marked_fixed_points(self, d):
        @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
        @given(_cases(d))
        def check(case):
            c1, c2, shape, fuel = case
            t, ctx = _shaped(d, c1, c2, shape)
            try:
                out = normalize(t, d, fuel=fuel, ctx=ctx)
            except (DisciplineError, FuelExhausted):
                return
            assert out.normal and normalize(out, d, fuel=fuel, ctx=ctx) is out
            # an unmarked copy: `pretty` names the free index i `_free{i}`
            copy = parse(pretty(out))
            assert copy.size == 1 or not copy.normal
            names = Context(tuple(f"_free{i}" for i in reversed(range(len(ctx)))))
            again = normalize(copy, d, fuel=fuel, ctx=names)
            assert again == out and pretty(again) == pretty(out)

        check()

    def test_a_reduct_is_not_marked(self):
        # the reduct (\z. z) (\y. y) c still has a redex
        r, _ = beta_step_at(parse(r"\x. x (\y. y) c"), [parse(r"\z. z")])
        assert not r.normal
        assert normalize(r, L) == Const("c")


class TestEtaContract:
    def test_single(self):
        assert nf(r"\x. f x", P) == Const("f")

    def test_iterated(self):
        assert nf(r"\x y. f x y", P) == Const("f")

    def test_identity_untouched(self):
        assert nf(r"\x. x", P) == parse(r"\x. x")

    def test_under_braid_when_strand_clean(self):
        # the braid exchanges the outer two wires only; the bound wire's
        # strand is untouched, so eta fires and the braid shifts down
        t = parse(r"\f x y. [{3; 2}] (x f y)")
        check_discipline(t, BR)
        out = normalize(t, BR)
        want = parse(r"\f x. [{2; 1}] (x f)")
        assert canonical_equal(out, want) is Verdict.EQUAL

    def test_beta_normal_forms_need_no_recanonicalization(self, monkeypatch):
        # the one pass builds its output canonical and flagged, eta
        # contractions included, so nothing is canonicalized again
        calls = []
        canon = normalize_module._canon
        monkeypatch.setattr(normalize_module, "_canon", lambda t: calls.append(t) or canon(t))
        for src in (f"{CP_SRC} {B_SRC} {CM_SRC}", f"{CP_SRC} (f a) b", f"{B_SRC} {CP_SRC} (g {CM_SRC})"):
            t = canon_braids(parse(src))
            calls.clear()
            n = normalize(t, BR)
            assert calls == [] and n.canon

    def test_blocked_under_entangled_braid(self):
        t = parse(r"\f x. [{2; 1 1}] (f x)")
        check_discipline(t, BR)
        n = normalize(t, BR)
        assert isinstance(n.body.body, BraidNode)  # eta must not fire


class TestBraidedEquality:
    def test_cox1(self):
        assert lam_equal(parse(f"{B_SRC} {CP_SRC} {CM_SRC}"), parse(I_SRC), BR) is Verdict.EQUAL
        assert lam_equal(parse(f"{B_SRC} {CM_SRC} {CP_SRC}"), parse(I_SRC), BR) is Verdict.EQUAL

    def test_c2_on_closed_arguments(self):
        assert lam_equal(parse(f"{CP_SRC} a b"), parse(f"{CM_SRC} a b"), BR) is Verdict.EQUAL

    def test_braided_exchanges_distinct(self):
        mp = parse(f"{B_SRC} {CP_SRC} {B_SRC}")
        mm = parse(f"{B_SRC} {CM_SRC} {B_SRC}")
        assert lam_equal(mp, mm, BR) is Verdict.NOT_EQUAL
        assert lam_equal(mp, parse(r"\f x y. [{3; 1}] (f (y x))"), BR) is Verdict.EQUAL

    def test_full_twist_distinct_from_plain(self):
        tw = parse(r"\f x y. [{3; 1 1}] (f x y)")
        pl = parse(r"\f x y. f x y")
        assert lam_equal(tw, pl, BR) is Verdict.NOT_EQUAL

    def test_eta_example(self):
        assert lam_equal(parse(r"\x. m x"), Const("m"), BR) is Verdict.EQUAL

    def test_definite_on_equivalence_laws(self, rng):
        from operadforge.comb import BCPMI, sample_closed, to_lambda

        terms = [to_lambda(sample_closed(BCPMI, rng, max_depth=2), BR) for _ in range(10)]
        for t in terms:
            assert lam_equal(t, t, BR) is Verdict.EQUAL
        for a in terms[:4]:
            for b in terms[:4]:
                vab = lam_equal(a, b, BR)
                vba = lam_equal(b, a, BR)
                assert vab == vba
        for a in terms[:3]:
            for b in terms[:3]:
                for c in terms[:3]:
                    if (
                        lam_equal(a, b, BR) is Verdict.EQUAL
                        and lam_equal(b, c, BR) is Verdict.EQUAL
                    ):
                        assert lam_equal(a, c, BR) is Verdict.EQUAL


class TestAxiomRewriteCrossCheck:
    """Equal verdicts of the normalization route are confirmed by an
    independent bounded rewrite search over the braided axiom table."""

    def test_small_instances(self):
        from operadforge.comb import BCPMI, comb_equal, parse_cterm
        from rewrite_oracle import provably_equal

        pairs = [
            ("C+ o C-", "I"),
            ("C- o C+", "I"),
            ("C+ B I", "I"),
            ("C- B I", "I"),
            ("B I", "I"),
            ("I o B", "B"),
            ("(C+ o C-) o B", "B"),
            ("C+ p q", "C- p q"),
            ("I (C+ p)", "C+ p"),
            ("B p q r", "p (q r)"),
            ("C+ p q r", "p r q"),
            ("(B B) o B", "(C+ B B) o (B o B)"),
            ("(B B) o C+", "C+ o ((B C+) o B)"),
            ("B (C- B I) q", "B I q"),
        ]
        for lhs_src, rhs_src in pairs:
            lhs, rhs = parse_cterm(lhs_src), parse_cterm(rhs_src)
            assert comb_equal(lhs, rhs, BCPMI) is Verdict.EQUAL, lhs_src
            assert provably_equal(lhs, rhs, depth=5), f"no rewrite proof: {lhs_src} = {rhs_src}"

    def test_oracle_does_not_prove_inequalities(self):
        from operadforge.comb import parse_cterm
        from rewrite_oracle import provably_equal

        assert not provably_equal(parse_cterm("C+"), parse_cterm("C-"), depth=4)
        assert not provably_equal(parse_cterm("B"), parse_cterm("I"), depth=4)


class TestCanonicalForm:
    def test_cancellation(self):
        t = BraidNode(parse_braid("{2; 1}"), BraidNode(parse_braid("{2; -1}"), parse("x y")))
        assert canon_braids(t) == parse("x y")

    def test_application_lifts_argument_braid_first(self):
        # the argument's word rides the low strands and comes first
        fn = canon_braids(BraidNode(parse_braid("{2; 1}"), App(Var(0), Var(1))))
        arg = canon_braids(BraidNode(parse_braid("{2; -1}"), App(Var(2), Var(3))))
        t = App(fn, arg)
        assert fn.canon and arg.canon and not t.canon
        out = canon_braids(t)
        assert out == BraidNode(parse_braid("{4; -1 3}"), App(App(Var(0), Var(1)), App(Var(2), Var(3))))
        assert out.canon and out.body.canon

    def test_one_word_per_scope(self):
        t = normalize(parse(r"\f x y. [{3; 1}] (f (y x))"), BR)
        skeleton = parse(r"\f x y. f (y x)")
        assert t == Lam(Lam(Lam(BraidNode(parse_braid("{3; 1}"), skeleton.body.body.body))))

    def test_distinct_braids_not_equal(self):
        t = normalize(parse(r"\f x y. [{3; 1 1 1}] (f (y x))"), BR)
        other = normalize(parse(r"\f x y. [{3; 1}] (f (y x))"), BR)
        assert canonical_equal(t, other) is Verdict.NOT_EQUAL

    def test_canonical_equal_braid_words(self):
        t1 = normalize(parse(r"\f x y. [{3; 1}] (f (y x))"), BR)
        t2 = normalize(parse(r"\f x y. [{3; 1 2 -2}] (f (y x))"), BR)
        assert t1 != t2
        assert canonical_equal(t1, t2) is Verdict.EQUAL

    def test_word_on_one_side_only(self):
        # a pure braid: the same wires in the same order, with or without it
        plain = normalize(parse(r"\f x y. f (x y)"), BR)
        braided = normalize(parse(r"\f x y. [{3; 1 1}] (f (x y))"), BR)
        assert canonical_equal(braided, plain) is Verdict.NOT_EQUAL
        assert canonical_equal(plain, braided) is Verdict.NOT_EQUAL

    def test_one_subterm_under_a_pending_braid(self):
        # both sides hold one object, f (g x y) z, and the left crosses x
        # and y over it: the walk meets the object against itself with the
        # crossing pending, which must still be compared
        shared = parse(r"\x y z. f (g x y) z").body.body.body
        crossed = BraidNode(parse_braid("{3; 2}"), shared, canon=True)
        assert canonical_equal(crossed, shared) is Verdict.NOT_EQUAL
        assert canonical_equal(shared, shared) is Verdict.EQUAL

    def test_equal_words_over_different_skeletons(self):
        t1 = normalize(parse(r"\f x y. [{3; 1}] (f (y x))"), BR)
        t2 = normalize(parse(r"\f x y. [{3; 1}] (f y x)"), BR)
        assert canonical_equal(t1, t2) is Verdict.NOT_EQUAL


class TestFuelVerdict:
    def test_both_sides_ill_formed_raises_the_left_sides_error(self):
        twice, none = parse(r"\x. x x"), parse(r"\x. a")
        with pytest.raises(DisciplineError, match="^bound variable used 2 times"):
            lam_equal(twice, none, L)
        with pytest.raises(DisciplineError, match="^bound variable used 0 times"):
            lam_equal(none, twice, L)

    def test_lam_equal_fuel_exhausted(self):
        omega = parse(r"(\x. x x) (\x. x x)")
        assert lam_equal(omega, parse(r"\x. x"), CA, fuel=50) is Verdict.FUEL_EXHAUSTED

    def test_size_cap_counts_as_fuel(self):
        grower = parse(r"(\x. x x x) (\x. x x x)")
        assert lam_equal(grower, parse(r"\x. x"), CA, fuel=10**9) is Verdict.FUEL_EXHAUSTED
