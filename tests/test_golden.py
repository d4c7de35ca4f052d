"""Golden evaluation reports: every mode's TSV on the default spec, byte for byte.

The files under ``tests/golden/`` are the outputs of
``xlingua evaluate --mode M --out tests/golden/M.tsv`` with the built-in
spec and the default threshold and bias (T3 with the CLI's ``x-``
distractor ids).  A change that moves any score, rank or rounding shows
here.  The bytes are pinned to CPython 3.11 (see CHANGES.md on summation
order); regenerate them with the command above only for a change that is
meant to move them, and say why.
"""

from pathlib import Path

import pytest

from xlingua.cli import _t3_distractors
from xlingua.harness import MODES, build_pipeline, report_to_tsv, run_experiment
from xlingua.synthesis import SyntheticSpec, generate_synthetic

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def default_pipeline():
    spec = SyntheticSpec()
    return build_pipeline(generate_synthetic(spec)), _t3_distractors(spec)


@pytest.mark.parametrize("mode", MODES)
def test_default_spec_report_matches_the_golden_file(default_pipeline, mode):
    pipeline, distractors = default_pipeline
    extra = distractors if mode == "T3" else None
    report = run_experiment(pipeline, mode, extra_targets=extra)
    golden = (GOLDEN / f"{mode}.tsv").read_bytes()
    assert report_to_tsv(report).encode("utf-8") == golden


def test_golden_reports_are_what_the_cli_writes(tmp_path):
    from xlingua.cli import main

    out = tmp_path / "T1ES.tsv"
    assert main(["evaluate", "--mode", "T1ES", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "T1ES.tsv").read_bytes()
