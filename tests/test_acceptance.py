"""The acceptance battery: every criterion at its stated sample counts.

Each test prints one pass/fail line; `pytest tests/test_acceptance.py -v -s`
shows the live tally.  The same battery runs via `operadforge suite`, and
each result must be its entry in `operadforge --json suite`'s recorded
output, tests/golden/suite.json.
"""

import json
from dataclasses import asdict
from pathlib import Path

from operadforge import acceptance, operad
from operadforge.comb import parse_cterm
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


def test_criterion_06_names_a_failing_law_and_its_witness(monkeypatch):
    # B a b c is a (b c), not a c (b c): a wrong duplicator fails on a sample
    monkeypatch.setattr(acceptance, "derive_classical_S", lambda: parse_cterm("B"))
    result = acceptance.criterion_6(2, SEED, FUEL)
    assert not result.ok
    assert result.detail.startswith("S a b c = a c (b c), K a b = a: NotEqual (lhs ")
    assert "witness {'a': " in result.detail


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


def test_criterion_12_refuses_a_closure_input_not_2_to_2(monkeypatch):
    monkeypatch.setattr(operad, "has_arity", lambda *args, **kwargs: Verdict.NOT_EQUAL)
    result = acceptance.criterion_12(SAMPLES, SEED, FUEL)
    assert not result.ok and result.detail == "closure input is not 2 -> 2"


def test_criterion_12_names_what_an_unrefused_trace_equality_returned(monkeypatch):
    monkeypatch.setattr(acceptance, "comb_equal", lambda *args, **kwargs: Verdict.EQUAL)
    result = acceptance.criterion_12(SAMPLES, SEED, FUEL)
    assert not result.ok and result.detail == "equality on Tr returned Equal, wanted a refusal"
