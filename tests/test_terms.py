import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import operadforge
from operadforge import comb, terms
from operadforge.braids import BraidWord, parse_braid
from operadforge.normalize import Verdict, canonical_equal
from operadforge.terms import (
    App,
    BraidNode,
    Const,
    Context,
    Discipline,
    DisciplineError,
    Lam,
    ParseError,
    Var,
    app,
    beta_step_at,
    bind_context,
    check_discipline,
    parse,
    pretty,
    tree_lines,
    wires,
)
from normalize_oracle import subst

P, L, BR, CA = Discipline.PLANAR, Discipline.LINEAR, Discipline.BRAIDED, Discipline.CARTESIAN

_SPACES = st.sampled_from(["", " ", "  ", "\t", "\n"])


@st.composite
def _braid_literals(draw):
    """(text, word): a braid literal under random spacing, with a letter
    written straight after the one before it wherever its sign allows."""
    n = draw(st.integers(0, 5))
    letters = []
    if n >= 2:
        letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i]))
        letters = draw(st.lists(letter, max_size=6))
    text = "{" + draw(_SPACES) + str(n) + draw(_SPACES) + ";"
    for a in letters:
        sep = draw(_SPACES)
        if not sep and a > 0 and text[-1].isdigit():
            sep = " "
        text += sep + str(a)
    return text + draw(_SPACES) + "}", BraidWord(n, tuple(letters))


class TestParse:
    def test_identity(self):
        assert parse(r"\x. x") == Lam(Var(0))

    def test_multi_binder_application(self):
        got = parse(r"\f x y. f (x y)")
        assert got == Lam(Lam(Lam(App(Var(2), App(Var(1), Var(0))))))

    def test_braided_exchange_witness(self):
        got = parse(r"\f x y. [{3; 1}] (f (y x))")
        body = got.body.body.body
        assert isinstance(body, BraidNode)
        assert body.braid == parse_braid("{3; 1}")
        assert body.body == App(Var(2), App(Var(0), Var(1)))

    def test_unbound_identifiers_are_constants(self):
        assert parse("f (x y)") == App(Const("f"), App(Const("x"), Const("y")))

    def test_shadowing(self):
        assert parse(r"\x. \x. x") == Lam(Lam(Var(0)))

    def test_errors_carry_positions(self):
        for bad in (
            r"\x.", r"\x (", "(a b", r"\. x", "[{2; 1} (a b)", "[{2; 5}] (a b)", "a )", ")", ""
        ):
            with pytest.raises(ParseError):
                parse(bad)

    def test_error_names_the_character_at_its_position(self):
        # both syntaxes skip the whitespace before a token, not just past it
        with pytest.raises(ParseError, match=r"unexpected character '\$' \(at position 2\)"):
            parse("a $")
        with pytest.raises(comb.CombError, match=r"^unexpected character '%' at 3$"):
            comb.parse_cterm("B  %")

    @settings(max_examples=200, deadline=None)
    @given(_braid_literals())
    @example(("{3; 1-2}", BraidWord(3, (1, -2))))
    def test_braid_literal_means_the_same_inside_a_term(self, case):
        text, word = case
        assert parse_braid(text) == word
        assert parse(f"[{text}] a") == BraidNode(word, Const("a"))

    def test_long_letter_is_rejected_at_once(self):
        # A letter takes its whole digit run.  Were a run of 40 digits split
        # into letters, a literal failing after it would backtrack over 2**39
        # splits, so the check runs in a child process that a timeout can end.
        code = (
            "from operadforge.braids import parse_braid\n"
            "from operadforge.terms import ParseError, parse\n"
            "bad = '{3; ' + '1' * 40 + ' a}'\n"
            "for reader, text, error in ((parse_braid, bad, ValueError), (parse, f'[{bad}] a', ParseError)):\n"
            "    try:\n"
            "        reader(text)\n"
            "    except error as e:\n"
            "        print(e)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(operadforge.__file__).parent.parent))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30)
        literal = "'{3; " + "1" * 40 + " a}'"
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == f"malformed braid literal: {literal}\nmalformed braid literal: {literal} (at position 1)\n"


class TestPrint:
    def test_round_trip_samples(self):
        sources = [
            r"\x. x",
            r"\f x y. f (x y)",
            r"\f x y. [{3; 1}] (f (y x))",
            r"\f x y. [{3; -1}] (f y x)",
            "f (x y)",
            r"\x. x (a b) c",
            r"(\x. x x) (\y. y)",
        ]
        for src in sources:
            t = parse(src)
            assert parse(pretty(t)) == t

    def test_round_trip_generated(self, rng):
        from operadforge.acceptance import _gen_closed_planar

        for _ in range(60):
            t = _gen_closed_planar(rng, 40)
            assert parse(pretty(t)) == t

    def test_avoids_constant_capture(self):
        t = Lam(App(Var(0), Const("x")))
        printed = pretty(t)
        assert parse(printed) == t

    def test_round_trip_braided_normal_forms(self, rng):
        from operadforge.comb import BCPMI, sample_closed, to_lambda
        from operadforge.normalize import normalize

        for _ in range(25):
            c = sample_closed(BCPMI, rng, max_depth=2)
            t = normalize(to_lambda(c, BR), BR)
            assert parse(pretty(t)) == t


class TestTreeLines:
    def test_binder_names_avoid_constants_as_pretty_does(self):
        t = parse(r"\y. y x")
        assert pretty(t) == r"\x0. x0 x"
        assert list(tree_lines(t)) == ["lam x0", "  app", "    var x0", "    const x"]

    def test_braid_node(self):
        assert list(tree_lines(parse(r"\f x y. [{3; 1}] (f y x)"))) == [
            "lam x",
            "  lam y",
            "    lam z",
            "      braid {3; 1}",
            "        app",
            "          app",
            "            var x",
            "            var z",
            "          var y",
        ]


class TestWires:
    def test_occurrence_order(self):
        assert wires(parse("f (x y)")) == ()
        bound = parse(r"\f x y. f (x y)").body.body.body
        assert wires(bound) == (2, 1, 0)

    def test_braid_permutes_wires(self):
        t = BraidNode(parse_braid("{2; 1}"), App(Var(0), Var(1)))
        assert wires(t.body) == (0, 1)
        assert wires(t) == (1, 0)

    def test_free_vars_named(self):
        assert free_vars(parse("f (x y)"), Context(("f", "x", "y"))) == ["f", "x", "y"]
        assert free_vars(parse("[{2; 1}] (x y)"), Context(("x", "y"))) == ["y", "x"]

    def test_free_vars_indices(self):
        assert free_vars(Var(0)) == [0]


def free_vars(t, ctx=None) -> list:
    """Wire order of t's free variables.

    With a context: constants named in ctx count as context variables and the
    result lists their names.  Without: the de Bruijn indices of free Vars.
    """
    if ctx is not None:
        n = len(ctx)
        return [ctx.names[n - 1 - k] for k in wires(bind_context(t, ctx))]
    return list(wires(t))


def rejects(t, d, message, ctx=Context()):
    """check_discipline raises DisciplineError saying exactly message."""
    with pytest.raises(DisciplineError) as e:
        check_discipline(t, d, ctx)
    assert str(e.value) == message


class TestCheckDiscipline:
    def test_spec_table(self):
        flip = parse(r"\x y. y x")
        rejects(flip, P, "bound variable is not the last use in its body")
        check_discipline(flip, L)
        b = parse(r"\f x y. f (x y)")
        check_discipline(b, P)
        dup = parse(r"\f x. f x x")
        rejects(dup, L, "bound variable used 2 times under its binder")
        check_discipline(dup, CA)

    def test_braided_requires_explicit_braids(self):
        rejects(
            parse(r"\f x y. f y x"), BR, "abstraction does not bind the last wire (missing braid?)"
        )
        check_discipline(parse(r"\f x y. [{3; 1}] (f y x)"), BR)

    def test_braid_nodes_rejected_elsewhere(self):
        t = parse(r"\f x y. [{3; 1}] (f y x)")
        for d in (P, L, CA):
            rejects(t, d, f"braid node not allowed in {d.value} discipline")

    def test_braid_strand_count_validated(self):
        t = Lam(Lam(BraidNode(parse_braid("{3; 1}"), App(Var(0), Var(1)))))
        with pytest.raises(DisciplineError, match="strands"):
            check_discipline(t, BR)

    def test_implication_chain_on_braid_free_terms(self, rng):
        # planar implies braided-with-trivial-braids implies linear implies
        # cartesian; a braid-free term is braided-valid exactly when planar.
        from operadforge.acceptance import _gen_closed_planar

        for _ in range(40):
            t = _gen_closed_planar(rng, 30)
            for d in (P, BR, L, CA):
                check_discipline(t, d)
        linear_only = parse(r"\x y. y x")
        check_discipline(linear_only, L)
        rejects(linear_only, BR, "abstraction does not bind the last wire (missing braid?)")
        check_discipline(linear_only, CA)

    def test_contexts(self):
        t = parse("f (x y)")
        check_discipline(t, P, Context(("f", "x", "y")))
        rejects(t, P, "wires [1, 2, 0] do not match context order", Context(("x", "f", "y")))
        check_discipline(parse("x"), CA, Context(("x", "y")))
        rejects(
            parse("x"),
            L,
            "context variables not used exactly once: wires [1]",
            Context(("x", "y")),
        )


class TestCheckCache:
    """A node that passed a discipline's node rules is not checked again."""

    @staticmethod
    def _visits(monkeypatch, d):
        """Nodes that `_check` examines, i.e. enters without d's pass bit."""
        seen = []
        check = terms._check
        bit = terms._CHECK_BIT[d]

        def spy(t, d_, bit_):
            if not t.checked & bit:
                seen.append(t)
            return check(t, d_, bit_)

        monkeypatch.setattr(terms, "_check", spy)
        return seen

    def test_shared_primitive_images_checked_once(self, monkeypatch):
        first = comb.parse_cterm("B (C+ I) (C- B)")
        check_discipline(comb.to_lambda(first, BR), BR)
        # the same primitives in another expression: only its three
        # application nodes are new
        t = comb.to_lambda(comb.parse_cterm("C- B (I C+)"), BR)
        spine = [t, t.fn, t.arg]
        seen = self._visits(monkeypatch, BR)
        check_discipline(t, BR)
        assert len(seen) == 3 and all(any(u is v for v in spine) for u in seen)
        seen.clear()
        check_discipline(t, BR)
        assert seen == []

    def test_pass_is_per_discipline(self):
        braided = parse(r"\f x y. [{3; 1}] (f y x)")
        check_discipline(braided, BR)
        for d in (P, L):
            rejects(braided, d, f"braid node not allowed in {d.value} discipline")
        flip = parse(r"\x y. y x")
        check_discipline(flip, L)
        rejects(flip, P, "bound variable is not the last use in its body")

    def test_failure_leaves_no_bit(self):
        good = parse(r"\x. x")
        bad = parse(r"\x. x x")
        t = App(good, bad)
        bit = terms._CHECK_BIT[L]
        for _ in range(2):
            rejects(t, L, "bound variable used 2 times under its binder")
            assert not t.checked & bit and not bad.checked & bit
        assert good.checked & bit


class TestHashing:
    def test_equal_terms_hash_equal(self):
        src = r"\f x y. [{3; 1}] (f y (x c))"
        a, b = parse(src), parse(src)
        assert a is not b and a == b and hash(a) == hash(b)
        assert hash(Var(0)) == hash(Var(0)) and hash(Const("c")) == hash(Const("c"))
        built = Lam(App(Var(0), Const("a")))
        assert {parse(r"\x. x"), parse(r"\y. y"), built, parse(r"\x. x a")} == {
            Lam(Var(0)),
            built,
        }
        assert len({a, b, a.body, b.body}) == 2


class TestSubst:
    def test_leaf(self):
        assert subst(Var(0), 0, Const("a")) == Const("a")

    def test_beta_redex(self):
        redex_fn = Lam(App(Var(0), Const("a")))
        assert beta_step_at(redex_fn, [Const("b")]) == (App(Const("b"), Const("a")), [1])

    def test_braided_cabling(self):
        t = parse(r"\p q r. [{3; -2 1}] (r p q)")
        check_discipline(t, BR)
        body = t.body.body.body
        two_wire = App(Var(5), Var(6))
        out = subst(body, 1, two_wire)
        assert isinstance(out, BraidNode)
        assert out.braid == parse_braid("{4; -3 2 1}")

    def test_zero_width_cabling_deletes(self):
        body = parse(r"\f x y. [{3; 1}] (f y x)").body.body.body
        out = subst(body, 2, Const("m"))
        assert out.braid == parse_braid("{2; 1}")

    def test_node_count(self, rng):
        from operadforge.acceptance import _gen_closed_planar

        for _ in range(40):
            outer = _gen_closed_planar(rng, 25)
            if not isinstance(outer, Lam):
                continue
            arg = _gen_closed_planar(rng, 15)
            reduced, _ = beta_step_at(outer, [arg])
            assert reduced.size == outer.body.size + arg.size - 1

    def test_preserves_discipline(self, rng):
        from operadforge.acceptance import _gen_closed_planar

        for _ in range(40):
            fn = _gen_closed_planar(rng, 20)
            if not isinstance(fn, Lam):
                continue
            arg = _gen_closed_planar(rng, 12)
            check_discipline(beta_step_at(fn, [arg])[0], P)


def canonically_equal(t1, t2) -> bool:
    """Equal skeletons, with braid words compared as group elements."""
    return canonical_equal(t1, t2) is Verdict.EQUAL


class TestAlphaEq:
    def test_binder_names_irrelevant(self):
        assert parse(r"\x. x") == parse(r"\y. y")

    def test_braid_words_compared_as_group_elements(self):
        t1 = BraidNode(parse_braid("{2; 1 -1 1}"), parse("x y"))
        t2 = BraidNode(parse_braid("{2; 1}"), parse("x y"))
        assert t1 != t2
        assert canonically_equal(t1, t2)

    def test_trivial_braid_transparent(self):
        t1 = BraidNode(parse_braid("{2; 1 -1}"), parse("x y"))
        assert canonically_equal(t1, parse("x y"))

    def test_opposite_exchanges_differ(self):
        mp = parse(r"\f x y. [{3; 1}] (f (y x))")
        mm = parse(r"\f x y. [{3; -1}] (f (y x))")
        assert not canonically_equal(mp, mm)

    def test_structure_matters(self):
        assert not canonically_equal(parse(r"\x. x"), parse(r"\x y. x y"))
        assert not canonically_equal(Const("a"), Const("b"))


class TestHelpers:
    def test_app_left_assoc(self):
        assert app(Const("a"), Const("b"), Const("c")) == parse("a b c")

    def test_empty_context_binds_nothing(self):
        t = parse(r"\x. f x")
        assert bind_context(t, Context()) is t
        assert bind_context(t, Context(("f",))) == Lam(App(Var(1), Var(0)))
