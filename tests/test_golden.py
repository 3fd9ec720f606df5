"""Behaviour contract: `operadforge --json axioms <sig>` prints exactly the
recorded reports in tests/golden/, byte for byte."""

from pathlib import Path

import pytest

from operadforge.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("sig", ["BIbullet", "BCI", "BCpmI", "BCIWK"])
def test_axioms_json_matches_golden(capsys, sig):
    assert main(["--json", "axioms", sig]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"axioms_{sig}.json").read_text()
