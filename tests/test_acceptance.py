"""The acceptance battery: every criterion at its stated sample counts.

Each test prints one pass/fail line; `pytest tests/test_acceptance.py -v -s`
shows the live tally.  The same battery runs via `operadforge suite`, and
each result must be its entry in `operadforge --json suite`'s recorded
output, tests/golden/suite.json.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from operadforge import acceptance, operad
from operadforge.comb import AxiomReport, parse_cterm
from operadforge.normalize import Verdict

SAMPLES = 32
SEED = 0
FUEL = 10_000

GOLDEN = {
    entry["name"]: entry
    for entry in json.loads((Path(__file__).parent / "golden" / "suite.json").read_text())
}


def _run(criterion, number):
    result = criterion(SAMPLES, SEED, FUEL)
    print(f"[{number:2d}] {'PASS' if result.ok else 'FAIL'} {result.name}: {result.detail}")
    assert result.ok, f"{result.name}: {result.detail}"
    assert asdict(result) == GOLDEN.get(result.name), result.name


def test_golden_names_one_per_criterion():
    """With `_run`'s lookup by name, the golden names are exactly the
    criteria's names."""
    assert len(GOLDEN) == len(acceptance.CRITERIA) == 12


def test_criterion_01_braid_relations():
    _run(acceptance.criterion_1, 1)


def test_criterion_02_cabling():
    _run(acceptance.criterion_2, 2)


def test_criterion_03_planar_suite():
    _run(acceptance.criterion_3, 3)


def test_criterion_04_linear_suite():
    _run(acceptance.criterion_4, 4)


def test_criterion_05_braided_suite():
    _run(acceptance.criterion_5, 5)


def test_criterion_06_cartesian_suite():
    _run(acceptance.criterion_6, 6)


def test_criterion_07_arity_table():
    _run(acceptance.criterion_7, 7)


def test_criterion_08_arity_equivalence():
    _run(acceptance.criterion_8, 8)


def test_criterion_09_operad_laws():
    _run(acceptance.criterion_9, 9)


def test_criterion_10_non_faithfulness():
    _run(acceptance.criterion_10, 10)


def test_criterion_11_equivariance():
    _run(acceptance.criterion_11, 11)


def test_criterion_12_trace_syntax():
    _run(acceptance.criterion_12, 12)


_FAILING_ROW = [AxiomReport("B", "fail", "a", "b", {"a": "I"})]
_ONCE_CLOSED_TREFOIL = operad.trace_syntax(operad.ArityCert(parse_cterm("C+ o C+ o C+"), 2, 2))


@pytest.mark.parametrize(
    "criterion, where, name, stand_in, detail",
    [
        pytest.param(
            acceptance.criterion_1, acceptance, "braid_equal", lambda u, v: False,
            "{4; 3 1} = {4; 1 3} is False, wanted True",
            id="c01-relations",
        ),
        pytest.param(
            acceptance.criterion_1, acceptance, "_relator_search_trivial", lambda word: False,
            "disagreement on (): exact=True brute=False",
            id="c01-brute-force",
        ),
        pytest.param(
            acceptance.criterion_2, acceptance, "braid_equal", lambda u, v: False,
            "cable example -> {4; -3 2 1}, wanted {4; -3 2 1}",
            id="c02-cabling",
        ),
        pytest.param(
            acceptance.criterion_3, acceptance, "axiom_suite", lambda *a, **k: _FAILING_ROW,
            "B: fail (lhs a vs rhs b, witness {'a': 'I'})",
            id="c03-suite",
        ),
        pytest.param(
            acceptance.criterion_6, acceptance, "axiom_suite", lambda *a, **k: _FAILING_ROW,
            "B: fail (lhs a vs rhs b, witness {'a': 'I'})",
            id="c06-suite",
        ),
        # B a b c is a (b c), not a c (b c): a wrong duplicator fails on a sample
        pytest.param(
            acceptance.criterion_6, acceptance, "derive_classical_S", lambda: parse_cterm("B"),
            "S a b c = a c (b c), K a b = a: NotEqual (lhs \\x y. x y y vs rhs \\x. x x x, "
            "witness {'a': 'I (I* (C I)) B', 'b': 'W ((I o K*) C)', "
            "'c': '(W (K B))* (I (W C) (B (K W)))'})",
            id="c06-law",
        ),
        pytest.param(
            acceptance.criterion_7, operad, "infer_arity", lambda *a, **k: None,
            "I: arity None, wanted (0, 0)",
            id="c07-table",
        ),
        pytest.param(
            acceptance.criterion_8, acceptance, "_head_form_arity_m1", lambda nf, m: True,
            "term \\x y z w v. x y z w v at m=0: head=True membership=False equation=False",
            id="c08-equivalence",
        ),
        pytest.param(
            acceptance.criterion_9, acceptance, "comb_equal", lambda *a, **k: Verdict.NOT_EQUAL,
            "id(f) = f: NotEqual (((I I)* o B) o I vs (I I)* o B)",
            id="c09-laws",
        ),
        pytest.param(
            acceptance.criterion_10, acceptance, "comb_equal", lambda *a, **k: Verdict.EQUAL,
            "C+ o B = C- o B is Equal, wanted NotEqual",
            id="c10-distinct",
        ),
        pytest.param(
            acceptance.criterion_10, operad, "evaluate", lambda f, args, sig, fuel: args[0],
            "evaluations C- I C- and C- I C-, wanted C+ B* (C- I C-)",
            id="c10-evaluations",
        ),
        pytest.param(
            acceptance.criterion_11, operad, "check_equivariance",
            lambda *a, **k: Verdict.NOT_EQUAL,
            "k=1 word=() widths=(0,) sample=0: NotEqual",
            id="c11-cell",
        ),
        pytest.param(
            acceptance.criterion_12, operad, "trefoil", lambda: _ONCE_CLOSED_TREFOIL,
            "Tr (C+ o C+ o C+) stated 1 -> 1, wanted Tr (Tr (C+ o C+ o C+)) stated 0 -> 0",
            id="c12-prints",
        ),
        pytest.param(
            acceptance.criterion_12, operad, "has_arity", lambda *a, **k: Verdict.NOT_EQUAL,
            "closure input is not 2 -> 2",
            id="c12-closure-input",
        ),
        pytest.param(
            acceptance.criterion_12, acceptance, "comb_equal", lambda *a, **k: Verdict.EQUAL,
            "equality on Tr returned Equal, wanted a refusal",
            id="c12-refusal",
        ),
    ],
)
def test_each_failure_return_names_its_witness(monkeypatch, criterion, where, name, stand_in, detail):
    """One case per failure return of the battery: the decision it rests on
    is replaced by a stand-in that decides wrongly, and the criterion fails
    with a detail naming the witness."""
    monkeypatch.setattr(where, name, stand_in)
    result = criterion(2, SEED, FUEL)
    assert not result.ok
    assert result.detail == detail
