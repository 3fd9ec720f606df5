import json
import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operadforge import comb, normalize, terms
from operadforge.comb import (
    BCI,
    BCIWK,
    BCPMI,
    BIBULLET,
    Axiom,
    Bullet,
    CApp,
    CombError,
    ConstRef,
    PRIM_NAMES,
    Prim,
    Signature,
    UnsupportedTrace,
    axiom_suite,
    b_power_apply,
    b_power_element,
    beta_check_abstraction,
    bracket_abstract,
    capp,
    comb_equal,
    comb_normal_form,
    compose,
    derive_classical_S,
    format_cterm,
    parse_cterm,
    poly_arity,
    poly_instantiate,
    run_axiom,
    sample_closed,
    to_lambda,
)
from operadforge.normalize import Verdict
from operadforge.terms import Discipline, parse

B, C, I, W, K = Prim("B"), Prim("C"), Prim("I"), Prim("W"), Prim("K")
a, b, c = ConstRef("a"), ConstRef("b"), ConstRef("c")
x0, x1 = ConstRef("x0"), ConstRef("x1")


class TestSignature:
    def test_disciplines(self):
        assert BIBULLET.discipline is Discipline.PLANAR
        assert BCI.discipline is Discipline.LINEAR
        assert BCPMI.discipline is Discipline.BRAIDED
        assert BCIWK.discipline is Discipline.CARTESIAN

    def test_trace_extension_gate(self):
        # no signature admits Tr, and there is no signature beyond the four
        assert all("Tr" not in sig.primitives for sig in (BIBULLET, BCI, BCPMI, BCIWK))
        with pytest.raises(CombError):
            Signature("SK")

    def test_exchange(self):
        assert BCPMI.exchange(True) == Prim("C+")
        assert BCPMI.exchange(False) == Prim("C-")
        for sig in (BCI, BCIWK):
            assert sig.exchange(True) == sig.exchange(False) == C
        for positive in (True, False):
            with pytest.raises(CombError):
                BIBULLET.exchange(positive)

    @pytest.mark.parametrize("sig", [BIBULLET, BCI, BCPMI, BCIWK], ids=lambda s: s.tag)
    @pytest.mark.parametrize("name", [p for p in PRIM_NAMES if p != "Tr"])
    def test_primitive_fits_discipline_iff_in_signature(self, sig, name):
        if name in sig.primitives:
            to_lambda(Prim(name), sig.discipline)
        else:
            with pytest.raises(CombError):
                to_lambda(Prim(name), sig.discipline)


class TestSyntax:
    def test_round_trips(self):
        for src in (
            "B",
            "B a b c",
            "(a b)*",
            "a**",
            "a o b o c",
            "(a o b) c",
            "B b* (B a* B)",
            "Tr (Tr (C+ o C+ o C+))",
            "Tr (Tr o B Tr o B C o C)",
            "W (B K I)",
        ):
            t = parse_cterm(src)
            assert parse_cterm(format_cterm(t)) == t

    def test_compose_desugars_to_b(self):
        assert parse_cterm("a o b") == capp(B, a, b)
        assert parse_cterm("a o b o c") == capp(B, a, capp(B, b, c))
        assert parse_cterm("a b o c") == capp(B, CApp(a, b), c)

    def test_star_binds_tightest(self):
        assert parse_cterm("B a*") == CApp(B, Bullet(a))
        assert parse_cterm("(a b)*") == Bullet(CApp(a, b))

    def test_errors(self):
        for bad in ("", "(a", "a )", "o a", "*"):
            with pytest.raises(CombError):
                parse_cterm(bad)


class TestToLambda:
    def test_primitive_table(self):
        table = {
            "B": r"\f x y. f (x y)",
            "C": r"\f x y. f y x",
            "I": r"\x. x",
            "W": r"\f x. f x x",
            "K": r"\f x. f",
            "C+": r"\f x y. [{3; 1}] (f y x)",
            "C-": r"\f x y. [{3; -1}] (f y x)",
        }
        disc = {
            "B": Discipline.PLANAR,
            "C": Discipline.LINEAR,
            "I": Discipline.PLANAR,
            "W": Discipline.CARTESIAN,
            "K": Discipline.CARTESIAN,
            "C+": Discipline.BRAIDED,
            "C-": Discipline.BRAIDED,
        }
        for name, src in table.items():
            assert to_lambda(Prim(name), disc[name]) == parse(src)

    def test_bullet(self):
        assert to_lambda(Bullet(ConstRef("p")), Discipline.PLANAR) == parse(r"\f. f p")

    def test_discipline_gates(self):
        with pytest.raises(CombError):
            to_lambda(C, Discipline.PLANAR)
        with pytest.raises(CombError):
            to_lambda(Prim("C+"), Discipline.LINEAR)
        with pytest.raises(CombError):
            to_lambda(W, Discipline.LINEAR)
        with pytest.raises(UnsupportedTrace):
            to_lambda(Prim("Tr"), Discipline.BRAIDED)


def _walk_image(c, d):
    """The translation as one recursive walk, building every node afresh and
    raising at the first primitive, in preorder, that has no image in d."""
    if isinstance(c, Prim):
        if c.name == "Tr":
            raise UnsupportedTrace("Tr has no lambda image")
        if c.name not in comb.DISCIPLINE_PRIMITIVES[d]:
            raise CombError(f"primitive {c.name} does not fit the {d.value} discipline")
        return parse(comb._PRIM_LAMBDA_SRC[c.name])
    if isinstance(c, CApp):
        return terms.App(_walk_image(c.fn, d), _walk_image(c.arg, d))
    if isinstance(c, Bullet):
        return terms.Lam(terms.App(terms.Var(0), terms.shift(_walk_image(c.arg, d), 1)))
    return terms.Const(c.name)


def _any_cterms():
    """Expressions over every primitive, Tr included, and two constants."""
    leaves = [Prim(p) for p in PRIM_NAMES] + [a, b]
    return st.recursive(
        st.sampled_from(leaves),
        lambda sub: st.one_of(st.builds(CApp, sub, sub), st.builds(Bullet, sub)),
        max_leaves=10,
    )


def _outcome(call):
    try:
        return ("ok", call())
    except CombError as e:
        return ("raised", type(e), str(e))


class TestTranslationCache:
    """The translation agrees with the reference walk above."""

    @settings(max_examples=200, deadline=None)
    @given(_any_cterms())
    def test_image_and_errors_match_the_walk(self, c):
        # copies of c: one fresh for each discipline, and one shared by all
        # four
        shared = parse_cterm(format_cterm(c))
        for d in Discipline:
            want = _outcome(lambda: _walk_image(c, d))
            assert _outcome(lambda: to_lambda(parse_cterm(format_cterm(c)), d)) == want
            assert _outcome(lambda: to_lambda(shared, d)) == want

    def test_first_unfit_primitive_in_preorder(self):
        cases = [
            ("W K", Discipline.BRAIDED, CombError, "primitive W does not fit the braided discipline"),
            ("K W", Discipline.LINEAR, CombError, "primitive K does not fit the linear discipline"),
            ("B (C (C+ W))", Discipline.PLANAR, CombError,
             "primitive C does not fit the planar discipline"),
            ("B (Tr W)", Discipline.LINEAR, UnsupportedTrace, "Tr has no lambda image"),
            ("B (W Tr)*", Discipline.LINEAR, CombError,
             "primitive W does not fit the linear discipline"),
        ]
        for src, d, error, message in cases:
            c = parse_cterm(src)
            for _ in range(2):  # a translation leaves nothing behind
                with pytest.raises(error) as caught:
                    to_lambda(c, d)
                assert type(caught.value) is error and str(caught.value) == message


class TestCombEqual:
    def test_planar_bi(self):
        assert comb_equal(parse_cterm("B I"), I, BIBULLET) is Verdict.EQUAL

    def test_cartesian_counit(self):
        assert comb_equal(parse_cterm("W o K"), I, BCIWK) is Verdict.EQUAL

    def test_braided_exchanges_distinct(self):
        assert comb_equal(parse_cterm("C+"), parse_cterm("C-"), BCPMI) is Verdict.NOT_EQUAL

    def test_trace_refused(self):
        with pytest.raises(UnsupportedTrace):
            comb_equal(parse_cterm("Tr I"), I, BCPMI)

    def test_composition_monoid(self, rng):
        for sig in (BIBULLET, BCI, BCPMI, BCIWK):
            for _ in range(6):
                x, y, z = (sample_closed(sig, rng, max_depth=2) for _ in range(3))
                lhs = compose(compose(x, y), z)
                rhs = compose(x, compose(y, z))
                assert comb_equal(lhs, rhs, sig) is Verdict.EQUAL
                assert comb_equal(compose(I, x), x, sig) is Verdict.EQUAL
                assert comb_equal(compose(x, I), x, sig) is Verdict.EQUAL

    def test_internalized_algebra_isomorphism(self, rng):
        # the image of application: (a b)* equals b* o a* o B, and the
        # round trip through the image recovers the element: a* I = a
        for _ in range(8):
            x = sample_closed(BIBULLET, rng, max_depth=2)
            y = sample_closed(BIBULLET, rng, max_depth=2)
            lhs = Bullet(CApp(x, y))
            rhs = parse_cterm("y* o x* o B")
            from operadforge.comb import subst_consts

            rhs = subst_consts(rhs, {"x": x, "y": y})
            assert comb_equal(lhs, rhs, BIBULLET) is Verdict.EQUAL
            assert comb_equal(CApp(Bullet(x), I), x, BIBULLET) is Verdict.EQUAL


class TestBPowers:
    def test_element_powers(self):
        assert b_power_element(0) == I
        assert b_power_element(1) == B
        assert b_power_element(2) == compose(B, B)

    def test_apply_powers(self):
        assert b_power_apply(0, a) == a
        assert b_power_apply(2, a) == CApp(B, CApp(B, a))


class TestBracketAbstraction:
    def test_variable_alone(self):
        assert bracket_abstract(x0, BIBULLET) == I

    def test_variable_applied_to_coefficient(self):
        assert bracket_abstract(CApp(x0, a), BIBULLET) == capp(B, Bullet(a), I)

    def test_coefficient_applied_to_variable(self):
        assert bracket_abstract(CApp(a, x0), BIBULLET) == capp(B, a, I)

    def test_planar_order_enforced(self):
        swapped = CApp(x1, x0)
        with pytest.raises(CombError):
            bracket_abstract(swapped, BIBULLET)
        assert beta_check_abstraction(swapped, BCI, samples=2) is Verdict.EQUAL

    def test_braided_exchange_needs_a_sign(self):
        # x1 x0: abstracting x1 must cross it over x0, and a polynomial
        # does not say whether by C+ or by C-
        with pytest.raises(CombError, match="no crossing sign"):
            bracket_abstract(CApp(x1, x0), BCPMI)
        assert beta_check_abstraction(CApp(x0, x1), BCPMI, samples=2) is Verdict.EQUAL

    def test_linear_forbids_weakening_and_contraction(self):
        with pytest.raises(CombError):
            bracket_abstract(CApp(a, b), BCI)  # no variable at all
        dup = CApp(x0, x0)
        with pytest.raises(CombError):
            bracket_abstract(dup, BCI)
        assert beta_check_abstraction(dup, BCIWK, samples=2) is Verdict.EQUAL

    def test_cartesian_weakening(self):
        # arity 2 with variable 0 vacuous: b x1
        p = CApp(b, x1)
        closed = bracket_abstract(p, BCIWK)
        assert comb_equal(capp(closed, a, c), capp(b, c), BCIWK) is Verdict.EQUAL
        with pytest.raises(CombError):
            bracket_abstract(p, BCI)
        with pytest.raises(CombError):
            bracket_abstract(p, BIBULLET)

    def test_certification_across_signatures(self, rng):
        polys = [
            CApp(x0, x1),
            CApp(CApp(x0, a), x1),
            CApp(a, CApp(x0, b)),
        ]
        for sig in (BIBULLET, BCI, BCPMI):
            for p in polys:
                assert beta_check_abstraction(p, sig, samples=3) is Verdict.EQUAL

    def test_closed_output(self, rng):
        for sig in (BIBULLET, BCI, BCIWK):
            p = CApp(CApp(x0, sample_closed(sig, rng, max_depth=1)), x1)
            out = bracket_abstract(p, sig)
            assert comb_equal(
                capp(out, a, b),
                poly_instantiate(p, [a, b]),
                sig,
            ) is Verdict.EQUAL

    def test_poly_arity(self):
        assert poly_arity(CApp(x0, CApp(x1, a))) == 2
        assert poly_arity(a) == 0
        # bare x is x0; any other name, primitives included, is a coefficient
        assert poly_arity(ConstRef("x")) == 1
        assert poly_arity(parse_cterm("x' y1 B (a b)* o x2")) == 3

    def test_instantiation_replaces_only_indeterminates(self):
        p = parse_cterm("x (a x1) a*")
        assert poly_instantiate(p, [b, c]) == parse_cterm("b (a c) a*")

    @pytest.mark.parametrize("src", ["x0 x1*", "x0*", "x0 (x1 a)*", "x0 x1**"])
    def test_indeterminate_under_internalization(self, src):
        # internalization takes a closed expression: \f. f x is not planar
        p = parse_cterm(src)
        for sig in (BIBULLET, BCI, BCPMI, BCIWK):
            with pytest.raises(CombError, match=r"indeterminate under \*"):
                bracket_abstract(p, sig)
            with pytest.raises(CombError, match=r"indeterminate under \*"):
                beta_check_abstraction(p, sig, samples=1)

    @pytest.mark.parametrize("exhausted, verdict", [(40, Verdict.EQUAL), (41, Verdict.FUEL_EXHAUSTED)])
    def test_fuel_retry_budget(self, monkeypatch, exhausted, verdict):
        # two samples may redraw 20 * 2 times: the 41st exhausted draw fails
        real, calls = comb.comb_equal, []

        def exhausting(*args, **kwargs):
            calls.append(1)
            if 1 < len(calls) <= 1 + exhausted:  # the first call is the fresh-constant check
                return Verdict.FUEL_EXHAUSTED
            return real(*args, **kwargs)

        monkeypatch.setattr(comb, "comb_equal", exhausting)
        assert beta_check_abstraction(parse_cterm("a x0 x1"), BCI, samples=2) is verdict
        assert len(calls) == 1 + exhausted + (2 if verdict is Verdict.EQUAL else 0)


class TestAxiomSuites:
    def test_row_inventories(self):
        planar = [r.axiom for r in axiom_suite(BIBULLET, samples=1, seed=0)]
        assert planar == ["BI", "app*", "B*", "I*", "**"]
        linear = [r.axiom for r in axiom_suite(BCI, samples=1, seed=0)]
        assert linear == [
            "B", "C", "I", "lambda", "rho", "alpha", "cox1", "cox2", "cox3", "bc",
        ]
        braided = [r.axiom for r in axiom_suite(BCPMI, samples=1, seed=0)]
        assert len(braided) == 12 and "C2" in braided

    def test_all_pass_small(self):
        for sig in (BIBULLET, BCI, BCPMI, BCIWK):
            for r in axiom_suite(sig, samples=4, seed=1):
                assert r.status == "pass", (sig.tag, r.axiom, r.lhs_nf, r.rhs_nf)

    def test_negative_control(self):
        mutated = Axiom("BoB", (("B o B", "B"),))
        report = run_axiom(mutated, BIBULLET, samples=4, seed=0)
        assert report.status == "fail"
        assert report.lhs_nf != report.rhs_nf

    def test_negative_control_with_metavars(self):
        mutated = Axiom("bad-C", (("C a b c", "a b c"),), ("a", "b", "c"))
        report = run_axiom(mutated, BCI, samples=8, seed=0)
        assert report.status == "fail"
        assert report.witness_bindings is not None

    def test_reports_serialize(self):
        reports = axiom_suite(BIBULLET, samples=2, seed=0)
        payload = json.dumps([asdict(r) for r in reports])
        parsed = json.loads(payload)
        assert {row["axiom"] for row in parsed} == {"BI", "app*", "B*", "I*", "**"}
        assert all(set(row) == {"axiom", "status", "lhs_nf", "rhs_nf", "witness_bindings"} for row in parsed)

    def test_each_side_normalized_once(self, monkeypatch):
        calls = []
        real = normalize.normalize

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(normalize, "normalize", counting)
        monkeypatch.setattr(comb, "normalize", counting)
        for sig in (BIBULLET, BCI, BCPMI, BCIWK):
            for ax in comb.AXIOM_TABLES[sig.tag]:
                if ax.metavars:
                    continue
                for lhs, rhs in ax.variants:
                    calls.clear()
                    comb._check_instance(parse_cterm(lhs), parse_cterm(rhs), sig, 10_000)
                    assert len(calls) == 2, (sig.tag, ax.name)

    @pytest.mark.parametrize("exhausted, status", [(40, "pass"), (41, "fail")])
    def test_fuel_retry_budget(self, monkeypatch, exhausted, status):
        # two samples may redraw 20 * 2 times: the 41st exhausted draw fails
        real, calls = comb._check_instance, []

        def exhausting(*args):
            calls.append(1)
            if len(calls) <= exhausted:
                return Verdict.FUEL_EXHAUSTED, "<no normal form>", "<no normal form>"
            return real(*args)

        monkeypatch.setattr(comb, "_check_instance", exhausting)
        report = run_axiom(comb.AXIOM_TABLES["BCI"][0], BCI, samples=2)
        assert report.status == status
        if status == "fail":
            assert (report.lhs_nf, report.rhs_nf, len(calls)) == ("<fuel>", "<fuel>", 41)
        else:
            assert len(calls) == 42

    def test_determinism(self):
        r1 = [asdict(r) for r in axiom_suite(BCI, samples=5, seed=9)]
        r2 = [asdict(r) for r in axiom_suite(BCI, samples=5, seed=9)]
        assert r1 == r2


class TestClassicalDuplicator:
    def test_behavior(self, rng):
        S = derive_classical_S()
        for _ in range(6):
            x, y, z = (sample_closed(BCIWK, rng, max_depth=1) for _ in range(3))
            v = comb_equal(capp(S, x, y, z), capp(x, z, CApp(y, z)), BCIWK)
            if v is Verdict.FUEL_EXHAUSTED:
                continue
            assert v is Verdict.EQUAL
        assert comb_equal(capp(K, a, b), a, BCIWK) is Verdict.EQUAL
        assert comb_equal(capp(W, a, b), capp(a, b, b), BCIWK) is Verdict.EQUAL

    def test_word_uses_only_permitted_primitives(self):
        assert comb.prims(derive_classical_S()) <= {"B", "C", "I", "W"}


class TestSampler:
    def test_deterministic(self):
        r1, r2 = random.Random(5), random.Random(5)
        assert [sample_closed(BCI, r1) for _ in range(10)] == [
            sample_closed(BCI, r2) for _ in range(10)
        ]

    def test_respects_signature(self):
        rng = random.Random(2)
        for sig in (BIBULLET, BCI, BCPMI, BCIWK):
            for _ in range(20):
                assert comb.prims(sample_closed(sig, rng)) <= sig.primitives

    def test_bug_in_screening_is_raised_not_redrawn(self, monkeypatch):
        real = comb.comb_normal_form
        raised = []

        def broken_once(*args, **kwargs):
            if not raised:
                raised.append(1)
                raise AssertionError("beta step failed to shrink")
            return real(*args, **kwargs)

        monkeypatch.setattr(comb, "comb_normal_form", broken_once)
        with pytest.raises(AssertionError):
            sample_closed(BCIWK, random.Random(0))

    def test_cartesian_samples_normalize(self, rng):
        for _ in range(20):
            t = sample_closed(BCIWK, rng)
            comb_normal_form(t, BCIWK, fuel=2000)
