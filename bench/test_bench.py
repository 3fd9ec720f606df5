"""Tests of the benchmark itself: known answers, repeatable work counts, the
known-answer gate and the span records.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import itertools
import sys

import pytest

import run
import workloads
from tracer import OP_SPAN, Tracer, load_spans

# Work counts that depend only on the inputs, never on timing.
WORK_COUNTS = (
    ("terms.beta_step_at", "calls"),
    ("normalize.normalize", "calls"),
    ("braids.handle_reduce", "letters_in"),
    ("braids.cable", "letters_out"),
    ("comb.comb_equal", "conclusive"),
    ("comb.comb_equal", "calls"),
)

# Small prefixes that run in about a second each.
PREFIX = {"equivariance": 48, "axiom_suites": 24, "braid_words": 12}


@pytest.fixture(autouse=True)
def restore_operadforge():
    """The harness re-imports operadforge; give other tests back the modules
    they imported."""
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "operadforge"}
    yield
    for k in [k for k in sys.modules if k.split(".")[0] == "operadforge"]:
        del sys.modules[k]
    sys.modules.update(saved)


def traced_prefix(workload: str, seed: int) -> tuple[run.Loop, Tracer]:
    _, ops = run.setup(workload, seed)
    tracer = Tracer()
    tracer.install()
    try:
        loop, spent = run.traced_drive(itertools.islice(ops, PREFIX[workload]), None, tracer)
    finally:
        tracer.uninstall()
    assert min(spent) > 0
    return loop, tracer


@pytest.mark.parametrize("workload", sorted(PREFIX))
def test_verdicts_known_and_counts_repeat(workload):
    first, tr1 = traced_prefix(workload, seed=0)
    second, tr2 = traced_prefix(workload, seed=0)
    assert first.ops == PREFIX[workload]
    assert (first.wrong, first.failed) == (0, 0)
    t1, t2 = tr1.totals(), tr2.totals()
    counts = {(span, key): t1[span].get(key, 0) for span, key in WORK_COUNTS}
    assert counts == {(span, key): t2[span].get(key, 0) for span, key in WORK_COUNTS}
    if workload == "braid_words":
        assert counts[("braids.handle_reduce", "letters_in")] > 0
    else:
        assert counts[("normalize.normalize", "calls")] > 0


def test_wrong_verdict_fails_the_run_and_names_the_operation(monkeypatch, capsys):
    def inverted(seed):
        """braid_words with every known answer negated."""
        for block in workloads.braid_blocks(seed):
            yield [
                workloads.Op(op.label, op.call, invert(op.judge), f"not {op.expected}")
                for op in block
            ]

    def invert(judge):
        return lambda got: workloads.WRONG if judge(got) == workloads.OK else workloads.OK

    monkeypatch.setitem(workloads.WORKLOADS, "braid_words", inverted)
    code = run.main(["--workload", "braid_words", "--seed", "0", "--seconds", "0.2"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "wrong verdict: braid_equal block=0 " in err
    assert '"correct": false' in out.splitlines()[-1]


def test_spans_nest_and_round_trip(tmp_path):
    _, tracer = traced_prefix("equivariance", seed=1)
    path = tmp_path / "spans.bin.gz"
    tracer.write_spans(path)
    header, cols = load_spans(path)
    assert header["count"] == len(tracer.start) > 0
    names = header["names"]
    for i in range(header["count"]):
        p = cols["parent"][i]
        name = names[cols["name"][i]]
        assert cols["start"][i] <= cols["end"][i]
        if p < 0:
            assert name == OP_SPAN
            continue
        assert p < i and cols["op"][p] == cols["op"][i]
        assert cols["start"][p] <= cols["start"][i] and cols["end"][i] <= cols["end"][p]
        # recursion through a module global is timed once, at the outermost call
        assert names[cols["name"][p]] != name
