"""Transcripts recorded by tests/golden/make_transcripts.py must never change.

Every case is re-run through ``estimate_rates(..., dump_path=...)`` with its
recorded master seed and its dumped lines are compared byte for byte.
"""

import importlib.util
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = (GOLDEN_DIR / "transcripts.jsonl").read_text().splitlines(keepends=True)

_spec = importlib.util.spec_from_file_location(
    "make_transcripts", GOLDEN_DIR / "make_transcripts.py"
)
make = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make)

CASES = make.cases()


def test_fixture_covers_every_case():
    assert len(GOLDEN) == make.TRIALS * len(CASES) == 288


@pytest.mark.parametrize("index", range(len(CASES)))
def test_case(index):
    config, scenario = CASES[index]
    want = GOLDEN[make.TRIALS * index : make.TRIALS * (index + 1)]
    assert make.case_lines(index, config, scenario) == want, (config, scenario)
