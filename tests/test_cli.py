import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import operadforge
from operadforge.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNorm:
    def test_simple(self, capsys):
        code, out, _ = run(capsys, "norm", "-d", "planar", r"(\f. f) (\x. x)")
        assert code == 0
        assert out.strip() == r"\x. x"

    def test_fuel_exhaustion_exit_2(self, capsys):
        code, _, err = run(
            capsys, "--fuel", "50", "norm", "-d", "cartesian", r"(\x. x x) (\x. x x)"
        )
        assert code == 2
        assert "FuelExhausted" in err

    def test_discipline_error_exit_1(self, capsys):
        code, _, err = run(capsys, "norm", "-d", "linear", r"\f x. f x x")
        assert code == 1
        assert err == "error: discipline error: bound variable used 2 times under its binder\n"

    def test_parse_error_exit_1(self, capsys):
        code, _, err = run(capsys, "norm", "-d", "planar", r"(\x. x")
        assert code == 1

    def test_primitives_resolve(self, capsys):
        code1, out1, _ = run(capsys, "norm", "-d", "braided", "C+ M N")
        code2, out2, _ = run(capsys, "norm", "-d", "braided", "C- M N")
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize(
        "d,src", [("planar", "C M N"), ("linear", "C+ M"), ("braided", "W M"), ("cartesian", "C- M")]
    )
    def test_primitive_outside_discipline_exit_1(self, capsys, d, src):
        code, out, err = run(capsys, "norm", "-d", d, src)
        assert code == 1 and out == ""
        assert err.startswith("error: primitive ") and "does not fit" in err

    def test_trace_primitive_exit_3(self, capsys):
        assert run(capsys, "norm", "-d", "braided", "Tr M")[0] == 3
        assert run(capsys, "eq", "-d", "linear", "Tr", "Tr")[0] == 3

    def test_deep_nesting_exit_1(self, capsys):
        deep = r"(\x. x) (" * 12_000 + "a" + ")" * 12_000
        code, out, err = run(capsys, "norm", "-d", "planar", deep)
        assert code == 1 and out == ""
        assert err == "error: input nests too deeply\n"

    def test_tree(self, capsys):
        code, out, _ = run(capsys, "norm", "-d", "planar", "--tree", r"\x. x")
        assert code == 0
        assert out.splitlines()[0].startswith("lam")


class TestEq:
    def test_lambda_modes(self, capsys):
        code, out, _ = run(capsys, "eq", "-d", "braided", r"(\x. m x)", "m")
        assert code == 0 and out.strip() == "Equal"

    def test_signature_mode(self, capsys):
        code, out, _ = run(capsys, "eq", "-s", "bibullet", "B I", "I")
        assert code == 0 and out.strip() == "Equal"
        code, out, _ = run(capsys, "eq", "-s", "bcpmi", "C+", "C-")
        assert code == 0 and out.strip() == "NotEqual"

    def test_fuel_exit(self, capsys):
        code, out, _ = run(
            capsys, "--fuel", "30", "eq", "-d", "cartesian", r"(\x. x x) (\x. x x)", r"\y. y"
        )
        assert code == 2 and out.strip() == "FuelExhausted"

    @pytest.mark.parametrize("omega_first", [True, False])
    def test_discipline_error_wins_over_fuel(self, capsys, omega_first):
        sides = [r"(\x. x x) (\x. x x)", "[{1;}] a"]
        if not omega_first:
            sides.reverse()
        code, out, err = run(capsys, "--fuel", "30", "eq", "-d", "cartesian", *sides)
        assert code == 1 and out == ""
        assert err == "error: braid node not allowed in cartesian discipline\n"

    def test_trace_equality_exit_3(self, capsys):
        code, _, err = run(capsys, "eq", "-s", "bcpmi", "Tr (Tr (C+ o C+ o C+))", "I")
        assert code == 3
        assert "Unknown" in err

    @pytest.mark.parametrize("sign,want", [("-1", "Equal"), ("1", "NotEqual")])
    def test_braid_placement_does_not_decide(self, capsys, sign, want):
        # with -1, the left braid is the right one moved up past the binder
        # of w, which its crossing avoids; with 1, it is that braid's inverse
        left = f"\\x y z. [{{3; {sign}}}] (x (\\w. z (y w)))"
        right = r"\x y z. x (\w. [{3; -2}] (z (y w)))"
        code, out, err = run(capsys, "eq", "-d", "braided", left, right)
        assert (code, out, err) == (0, f"{want}\n", "")

    def test_requires_exactly_one_mode(self, capsys):
        code, _, err = run(capsys, "eq", "a", "b")
        assert code == 1


class TestArityMemberCompose:
    def test_arity_b(self, capsys):
        code, out, _ = run(capsys, "arity", "B")
        assert code == 0 and out.strip() == "2 -> 1"

    def test_arity_of_trace_exit_3(self, capsys):
        code, out, err = run(capsys, "arity", "Tr I")
        assert (code, out) == (3, "")
        assert err == "Unknown: equality involving Tr is not supported\n"

    def test_arity_none(self, capsys):
        code, out, _ = run(capsys, "arity", "--bound", "3", "C I")
        assert code == 0 and "no arity" in out

    @pytest.mark.parametrize(
        "argv", [("arity", "B"), ("compose", "-s", "bibullet", "B", "a*", "b*")]
    )
    def test_negative_bound_exit_1(self, capsys, argv):
        code, out, err = run(capsys, argv[0], "--bound", "-1", *argv[1:])
        assert code == 1 and out == ""
        assert err == "error: negative arity bound -1\n"

    def test_member(self, capsys):
        code, out, _ = run(capsys, "member", "-s", "bcpmi", "C+ o B", "2")
        assert code == 0 and out.strip() == "Equal"

    def test_member_negative_arity_exit_1(self, capsys):
        code, out, err = run(capsys, "member", "-s", "bci", "I", "-1")
        assert code == 1 and out == ""
        assert err == "error: negative arity -1\n"

    def test_compose(self, capsys):
        code, out, _ = run(capsys, "compose", "-s", "bibullet", "B", "a*", "b*")
        assert code == 0
        assert out.strip()

    def test_compose_non_member_exit_1(self, capsys):
        code, out, err = run(capsys, "compose", "-s", "bibullet", "--bound", "2", "B", "a*", "b")
        assert (code, out) == (1, "")
        assert err == "error: 'b' is not an operad element within arity bound 2\n"


_COEFFICIENTS = ("a", "b", "a*", "(a b)*", "B")
_DISCIPLINE_ERRORS = ("forbids", "requires variables in order", "no crossing sign")


@st.composite
def _polynomials(draw):
    """(source, indices): a polynomial under a random bracketing whose
    indeterminates read x(i) for i in `indices`, left to right, with closed
    coefficients between them."""
    n = draw(st.integers(1, 3))
    order = draw(st.one_of(
        st.just(list(range(n))),
        st.permutations(range(n)),
        st.lists(st.integers(0, 3), min_size=1, max_size=4),
    ))
    leaves = []
    for i in order:
        leaves += draw(st.lists(st.sampled_from(_COEFFICIENTS), max_size=1))
        leaves.append(f"x{i}")
    leaves += draw(st.lists(st.sampled_from(_COEFFICIENTS), max_size=1))

    def bracket(ls):
        if len(ls) == 1:
            return ls[0]
        k = draw(st.integers(1, len(ls) - 1))
        arg = bracket(ls[k:])
        return f"{bracket(ls[:k])} " + (f"({arg})" if len(ls) - k > 1 else arg)

    return bracket(leaves), order


class TestAbstract:
    def test_planar_example(self, capsys):
        code, out, _ = run(capsys, "abstract", "-s", "bibullet", "x a")
        assert code == 0
        assert out.strip() == "a* o I"

    def test_certified(self, capsys):
        code, out, err = run(capsys, "abstract", "-s", "bci", "--certify", "a x0 x1")
        assert code == 0
        assert "certified: Equal" in err

    @pytest.mark.parametrize("poly", ["x0 x1*", "x0*", "x0 (x1 a)*", "x0 x1**"])
    def test_indeterminate_under_internalization_exit_1(self, capsys, poly):
        for certify in ([], ["--certify"]):
            code, out, err = run(capsys, "abstract", "-s", "bibullet", *certify, poly)
            assert (code, out) == (1, "")
            assert err.startswith("error: indeterminate under *") and err.count("\n") == 1

    @settings(max_examples=50, deadline=None)
    @given(_polynomials())
    def test_combinatory_completeness(self, case):
        """Each signature abstracts exactly the polynomials its discipline
        admits, and certifies what it abstracts: planar takes x0 .. x(n-1)
        in order, each once; linear any order; braided only the order that
        needs no exchange; cartesian repeats and gaps too."""
        text, order = case
        n = max(order) + 1
        once = sorted(order) == list(range(n))
        in_order = order == list(range(n))
        admits = {"bibullet": in_order, "bci": once, "bcpmi": in_order, "bciwk": True}
        for sig, admitted in admits.items():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["--samples", "2", "abstract", "-s", sig, "--certify", text])
            if admitted:
                assert (code, err.getvalue()) == (0, "certified: Equal\n"), (sig, text)
            else:
                assert code == 1 and out.getvalue() == "", (sig, text)
                if once:
                    want = {"bibullet": "requires variables in order", "bcpmi": "no crossing sign"}
                    assert want[sig] in err.getvalue(), (sig, text)
                else:
                    assert any(m in err.getvalue() for m in _DISCIPLINE_ERRORS), (sig, text)


class TestBraid:
    def test_cable(self, capsys):
        code, out, _ = run(capsys, "braid", "cable", "{3; -2 1}", "1", "2", "1")
        assert code == 0 and out.strip() == "{4; -3 2 1}"

    def test_eq(self, capsys):
        code, out, _ = run(capsys, "braid", "eq", "{4; 1 2 1}", "{4; 2 1 2}")
        assert code == 0 and out.strip() == "Equal"

    def test_perm(self, capsys):
        code, out, _ = run(capsys, "braid", "perm", "{3; 1 2}")
        assert code == 0 and out.strip() == "3 1 2"

    def test_sum(self, capsys):
        code, out, _ = run(capsys, "braid", "sum", "{2; 1}", "{2; 1}")
        assert code == 0 and out.strip() == "{4; 1 3}"

    @pytest.mark.parametrize(
        "op, word, want", [("inverse", "{3; 1 -2}", "{3; 2 -1}"), ("trivial", "{3; 1 -1}", "true")]
    )
    def test_one_word_ops(self, capsys, op, word, want):
        code, out, _ = run(capsys, "braid", op, word)
        assert (code, out) == (0, want + "\n")

    def test_unspaced_signed_letters(self, capsys):
        # the braid grammar is the one terms use inside [...]
        code, out, _ = run(capsys, "braid", "eq", "{3; 1-2}", "{3; 1 -2}")
        assert code == 0 and out.strip() == "Equal"

    def test_malformed_literal_exit_1(self, capsys):
        code, _, err = run(capsys, "braid", "eq", "{2; 5}", "{2; 1}")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("eq", "{3; 1}"),
            ("eq", "{3; 1}", "{3; 1}", "{3; 1}"),
            ("trivial", "{3; 1}", "{3; 1}"),
            ("perm", "{3; 1}", "{3; 1}"),
            ("inverse", "{3; 1}", "{3; 1}"),
        ],
    )
    def test_wrong_argument_count_exit_1(self, capsys, argv):
        code, out, err = run(capsys, "braid", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: braid ")


class TestAxioms:
    def test_bci_json(self, capsys):
        code, out, _ = run(
            capsys, "--samples", "4", "--json", "axioms", "bci"
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 10
        assert all(row["status"] == "pass" for row in rows)

    def test_determinism_byte_identical(self, capsys):
        argv = ["--samples", "3", "--seed", "7", "--json", "axioms", "bibullet"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_plain_output(self, capsys):
        code, out, _ = run(capsys, "--samples", "2", "axioms", "bcpmi")
        assert code == 0
        assert out.count("PASS") == 12


class TestSuite:
    """`suite` over the recorded results, without running the battery."""

    GOLDEN = Path(__file__).parent / "golden" / "suite.json"

    def recorded(self, monkeypatch, failing=None):
        from operadforge import acceptance

        results = [acceptance.Result(**e) for e in json.loads(self.GOLDEN.read_text())]
        if failing is not None:
            results[failing].ok = False
        monkeypatch.setattr(
            acceptance, "CRITERIA", tuple(lambda samples, seed, fuel, r=r: r for r in results)
        )

    def test_json_is_the_golden(self, capsys, monkeypatch):
        self.recorded(monkeypatch)
        code, out, err = run(capsys, "--json", "suite")
        assert (code, out, err) == (0, self.GOLDEN.read_text(), "")

    def test_plain_run_prints_a_line_per_criterion(self, capsys, monkeypatch):
        self.recorded(monkeypatch)
        code, out, _ = run(capsys, "suite")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 12
        assert all(line.startswith(f"[{i:2d}] PASS ") for i, line in enumerate(lines, start=1))

    def test_one_failure_exits_1(self, capsys, monkeypatch):
        self.recorded(monkeypatch, failing=4)
        code, out, _ = run(capsys, "suite")
        assert code == 1 and out.count("PASS") == 11 and out.count("FAIL") == 1


class TestTrace:
    def test_trefoil(self, capsys):
        code, out, err = run(capsys, "trace", "trefoil")
        assert code == 0
        assert out.strip() == "Tr (Tr (C+ o C+ o C+))"
        assert "0 -> 0" in err

    def test_eta_eps(self, capsys):
        code, out, err = run(capsys, "trace", "eta")
        assert code == 0 and out.strip() == "Tr (Tr o B Tr o B C o C)" and "0 -> 2" in err
        code, out, err = run(capsys, "trace", "eps")
        assert code == 0 and out.strip() == "Tr (C o B C o B B o B)" and "2 -> 0" in err


class TestParseErrors:
    def test_error_names_the_offending_character(self, capsys):
        code, _, err = run(capsys, "norm", "-d", "planar", "a $")
        assert (code, err) == (1, "error: unexpected character '$' (at position 2)\n")
        code, _, err = run(capsys, "eq", "-s", "bci", "B  %", "I")
        assert (code, err) == (1, "error: unexpected character '%' at 3\n")


class TestStdin:
    def test_norm_reads_dash(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(r"(\f. f) (\x. x)"))
        code, out, _ = run(capsys, "norm", "-d", "planar", "-")
        assert code == 0 and out.strip() == r"\x. x"


class TestEnvFuel:
    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("OPERADFORGE_FUEL", "40")
        code, _, err = run(capsys, "norm", "-d", "cartesian", r"(\x. x x) (\x. x x)")
        assert code == 2

    def test_env_invalid(self, capsys, monkeypatch):
        for raw, message in [("zero", "must be an integer"), ("0", "must be positive")]:
            monkeypatch.setenv("OPERADFORGE_FUEL", raw)
            code, _, err = run(capsys, "norm", "-d", "planar", r"\x. x")
            assert code == 1 and message in err


class TestUsageErrors:
    """argparse's usage errors exit 1, as the other input errors do; its
    own code, 2, is the fuel-exhaustion code here."""

    @pytest.mark.parametrize(
        "argv,usage,message",
        [
            (("norm", "-d", "planar"), "usage: operadforge norm ",
             "the following arguments are required: term"),
            (("frobnicate",), "usage: operadforge ", "invalid choice: 'frobnicate'"),
            (("arity", "--bound", "x", "B"), "usage: operadforge arity ",
             "argument --bound: invalid int value: 'x'"),
            (("--fuel", "many", "norm", "-d", "planar", "x"), "usage: operadforge ",
             "argument --fuel: invalid int value: 'many'"),
            ((), "usage: operadforge ", "the following arguments are required: command"),
        ],
    )
    def test_usage_error_exit_1(self, capsys, argv, usage, message):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(usage)
        assert ": error: " in err and message in err

    @pytest.mark.parametrize("argv", [("--help",), ("norm", "--help")])
    def test_help_exit_0(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out.startswith("usage: operadforge")


class TestModuleEntryPoint:
    def test_python_m_runs_the_cli(self):
        env = dict(os.environ, PYTHONPATH=str(Path(operadforge.__file__).parent.parent))
        argv = [sys.executable, "-m", "operadforge", "braid", "eq", "{3; 1 2 1}", "{3; 2 1 2}"]
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert done.returncode == 0 and done.stdout == "Equal\n"

    def test_long_braid_letter_exits_1_at_once(self):
        # the exit codes hold on a literal whose match would backtrack
        # exponentially if a digit run could be split into several letters
        env = dict(os.environ, PYTHONPATH=str(Path(operadforge.__file__).parent.parent))
        term = "[{3; " + "1" * 40 + " a}] b"
        argv = [sys.executable, "-m", "operadforge", "norm", "-d", "braided", term]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=30)
        assert done.returncode == 1 and done.stderr.startswith("error: malformed braid literal")


# Well-formed sources that the fuzz below mangles, and the characters it
# inserts into them and deletes from them.
_LAMBDA_SOURCES = [
    r"(\f. f) (\x. x)",
    r"\f x y. f (x y)",
    r"\f x y. [{3; 1 -2}] (f y x)",
    r"(\x. x x) (\x. x x)",
    "C+ M N",
    "Tr M",
]
_COMB_SOURCES = ["B", "C+ o B", "a* o I", "x1 x0", "B (C I) x0", "Tr (C+ o C+)", "W K I"]
_BRAID_SOURCES = ["{3; 1 2 1}", "{4; -3 2 1}", "{2;}", "{0;}"]
_SYNTAX = "\\.()[]{};*+- 0123456789o"


@st.composite
def _mangled(draw, sources):
    text = draw(st.sampled_from(sources))
    for _ in range(draw(st.integers(0, 3))):
        at = [i for i, ch in enumerate(text) if ch in _SYNTAX]
        if at and draw(st.booleans()):
            i = draw(st.sampled_from(at))
            text = text[:i] + text[i + 1:]
        else:
            i = draw(st.integers(0, len(text)))
            text = text[:i] + draw(st.sampled_from(_SYNTAX)) + text[i:]
    return text


def _flat(parts):
    return [x for part in parts for x in (part if isinstance(part, list) else [part])]


def _invocations():
    """argv for one command on mangled sources, and the text on stdin, which
    a `-` argument reads."""
    d = st.sampled_from(["planar", "linear", "braided", "cartesian"])
    s = st.sampled_from(["bibullet", "bci", "bcpmi", "bciwk"])
    lam, cterm, braid = (_mangled(src) for src in (_LAMBDA_SOURCES, _COMB_SOURCES, _BRAID_SOURCES))
    lam_in, cterm_in = (st.one_of(src, st.just("-")) for src in (lam, cterm))
    ops = st.sampled_from(["eq", "perm", "sum", "trivial", "inverse"])
    argv = st.one_of(
        st.tuples(st.just("norm"), st.just("-d"), d, lam_in),
        st.tuples(st.just("eq"), st.just("-d"), d, lam_in, lam_in),
        st.tuples(st.just("eq"), st.just("-s"), s, cterm_in, cterm_in),
        st.tuples(st.just("abstract"), st.just("-s"), s, cterm_in),
        st.tuples(st.just("arity"), st.just("--bound"), st.just("1"), st.just("-s"), s, cterm_in),
        st.tuples(st.just("member"), st.just("-s"), s, cterm_in, st.integers(-1, 3).map(str)),
        st.tuples(st.just("compose"), st.just("--bound"), st.just("1"), st.just("-s"), s, cterm,
                  st.lists(cterm, min_size=1, max_size=3)),
        st.tuples(st.just("braid"), ops, st.lists(braid, min_size=1, max_size=3)),
        st.tuples(st.just("braid"), st.just("cable"), braid,
                  st.lists(st.integers(-1, 3).map(str), max_size=4)),
    ).map(_flat)
    return st.tuples(argv, st.one_of(lam, cterm))


class TestExitCodes:
    """Mangled input gets an exit code, never an escaping exception.  Widths
    large enough to exhaust memory are not drawn."""

    @settings(max_examples=300, deadline=None)
    @given(_invocations())
    def test_mangled_input_exits_0_to_3(self, case):
        argv, stdin = case
        with pytest.MonkeyPatch.context() as mp, redirect_stdout(io.StringIO()), \
                redirect_stderr(io.StringIO()):
            mp.setattr(sys, "stdin", io.StringIO(stdin))
            assert main(["--fuel", "50", *argv]) in (0, 1, 2, 3)
