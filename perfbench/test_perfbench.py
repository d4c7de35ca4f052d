"""Tests of the benchmark itself, on the tiny smoke corpora.

Run from the repository root: python3 -m pytest -q perfbench
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_package()

import oracle  # noqa: E402
import workloads  # noqa: E402


def _run(capsys, workload, trace="0", seed="3"):
    code = run.main(
        ["--workload", workload, "--seed", seed, "--seconds", "0.2", "--trace", trace, "--smoke"]
    )
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["matrix", "stream", "dedupe"])
def test_smoke_run_passes_its_checks(capsys, workload, trace):
    code, result = _run(capsys, workload, trace)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = run.PER_LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_benchmark_json_declares_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS


def test_corrupted_score_trips_the_oracle(capsys, monkeypatch):
    similarity = importlib.import_module("xlingua.similarity")
    real = similarity.cosine
    monkeypatch.setattr(similarity, "cosine", lambda a, b: real(a, b) * (1 + 1e-9))
    code, result = _run(capsys, "stream")
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_wrong_dedupe_report_trips_the_check(capsys, monkeypatch):
    real = workloads.dedupe

    def drops_first_pair(docs, threshold):
        kept, report = real(docs, threshold)
        return kept, report[1:]

    monkeypatch.setattr(workloads, "dedupe", drops_first_pair)
    code, result = _run(capsys, "dedupe")
    assert code == 1 and result["failed"] == result["attempted"]


def test_inputs_depend_on_the_seed_only():
    texts = [" ".join(f"w{(i * 7 + j) % 97:03d}" for j in range(200)) for i in range(40)]
    assert workloads.plant_near_duplicates(texts, "en", 5) == workloads.plant_near_duplicates(
        texts, "en", 5
    )
    assert workloads.plant_near_duplicates(texts, "en", 5) != workloads.plant_near_duplicates(
        texts, "en", 6
    )


def test_planted_pairs_straddle_the_threshold():
    texts = [" ".join(f"w{(i * 13 + j * 5) % 211:03d}" for j in range(250)) for i in range(60)]
    docs, near_dups, near_misses = workloads.plant_near_duplicates(texts, "en", 11)
    assert len(docs) == len(texts) + len(near_dups) + len(near_misses)
    text = {d.id: d.text for d in docs}
    for pairs, lo, hi in ((near_dups, 0.95, 1.0), (near_misses, 0.90, 0.95)):
        assert pairs
        for a, b, jac in pairs:
            assert a < b
            assert jac == oracle.jaccard(oracle.shingles(text[a]), oracle.shingles(text[b]))
            assert lo <= jac < hi


def test_stream_plants_empty_arrivals():
    from xlingua.normalize import RawDocument

    pairs = [
        (RawDocument(id=f"p{i}-en", lang="en", text="a b"), RawDocument(id=f"p{i}-es", lang="es", text="c d"))
        for i in range(150)
    ]
    docs, truth = workloads.stream_arrivals(pairs, 4)
    empty = [d for d in docs if not d.text]
    assert len(empty) == 3 and len(docs) == 303
    assert truth["p7-es"] == "p7-en"
    assert workloads.stream_arrivals(pairs, 4)[0] == docs


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dedupe", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_percentiles():
    values = list(range(1, 101))
    assert workloads.percentile(values, 50) == 50
    assert workloads.percentile(values, 99) == 99
    assert workloads.tail_percentile(1000) == 99
    assert workloads.tail_percentile(100) == 90
    assert workloads.tail_percentile(15) is None
