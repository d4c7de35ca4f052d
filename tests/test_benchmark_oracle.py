"""The benchmark's oracle must catch a corrupted score from the engine.

``perfbench`` checks every search it times against its own plain-Python
scoring; this corrupts the cosines of ``score_matrix`` by one part in 1e9
and expects the stream workload to report the mismatch.
"""

import importlib
import json
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_corrupted_engine_score_trips_the_benchmark_oracle(capsys, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    run = importlib.import_module("run")
    run.import_package()
    similarity = importlib.import_module("xlingua.similarity")
    real = similarity._cosines
    monkeypatch.setattr(similarity, "_cosines", lambda q, c: real(q, c) * (1 + 1e-9))
    code = run.main(["--workload", "stream", "--seed", "3", "--seconds", "0.2", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0
