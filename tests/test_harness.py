import math
import tracemalloc

import pytest

from xlingua.errors import ValidationError
from xlingua.harness import (
    MODES,
    build_pipeline,
    report_to_tsv,
    run_experiment,
    sweep_threshold,
)
from xlingua.normalize import RawDocument
from xlingua.similarity import SimilarityOptions, cosine, dedupe, length_factor
from xlingua.synthesis import SyntheticSpec, generate_synthetic

MICRO = dict(
    n_descriptors=10,
    n_train_docs=80,
    n_test_pairs=20,
    vocab_size_per_lang=350,
    rng_seed=97,
)


@pytest.fixture(scope="module")
def micro_pipeline():
    return build_pipeline(generate_synthetic(SyntheticSpec(**MICRO)))


def test_report_matches_hand_driven_recount(micro_pipeline):
    """Independent end-to-end recount of the T1ES report on 20 pairs."""
    pipe = micro_pipeline
    report = run_experiment(pipe, "T1ES")

    for use_lf, variant in ((False, report.no_lf), (True, report.lf)):
        rank1 = 0
        top3 = 0
        histogram = {}
        for q in pipe.src_records:
            scores = []
            for c in pipe.tgt_records:
                s = cosine(q.vector, c.vector)
                if use_lf:
                    s *= length_factor(
                        q.char_length, c.char_length, q.lang, c.lang, pipe.length_model
                    )
                scores.append((c.id, s))
            true_id = pipe.truth[q.id]
            true_score = dict(scores)[true_id]
            rank = 1 + sum(
                1 for cid, s in scores
                if s > true_score or (s == true_score and cid < true_id)
            )
            histogram[rank] = histogram.get(rank, 0) + 1
            rank1 += rank == 1
            top3 += rank <= 3
        assert variant.precision_at_1 == pytest.approx(rank1 / 20)
        assert variant.precision_at_3 == pytest.approx(top3 / 20)
        assert variant.rank_histogram == histogram


def test_report_internal_consistency(micro_pipeline):
    report = run_experiment(micro_pipeline, "T1ES")
    for variant in (report.no_lf, report.lf):
        n = sum(variant.rank_histogram.values())
        assert n == report.n_queries
        assert variant.precision_at_1 == variant.rank_histogram.get(1, 0) / n
        assert variant.precision_at_1 <= variant.precision_at_3
        assert len(variant.outcomes) == n


def test_all_modes_run(micro_pipeline):
    extra = list(micro_pipeline.src_records)  # stand-in second collection
    for mode in MODES:
        kwargs = {"extra_targets": extra} if mode == "T3" else {}
        report = run_experiment(micro_pipeline, mode, **kwargs)
        assert report.mode == mode
        assert 0.0 <= report.lf.precision_at_1 <= 1.0


def test_repeated_candidate_ids_rejected(micro_pipeline):
    """A second collection reusing the test ids would let a distractor
    count as the true translation."""
    with pytest.raises(ValidationError, match="more than once"):
        run_experiment(micro_pipeline, "T3", extra_targets=micro_pipeline.tgt_records)


def test_unknown_mode_rejected(micro_pipeline):
    with pytest.raises(ValidationError):
        run_experiment(micro_pipeline, "T9")
    with pytest.raises(ValidationError):
        run_experiment(micro_pipeline, "T3")  # needs extra_targets


def test_reverse_mode_swaps_direction(micro_pipeline):
    report = run_experiment(micro_pipeline, "T1SE")
    assert report.n_queries == len(micro_pipeline.tgt_records)


def test_half_bilingual_mode_uses_half_the_queries(micro_pipeline):
    report = run_experiment(micro_pipeline, "THBIL")
    assert report.n_queries == 10


def test_reports_are_deterministic():
    a = run_experiment(build_pipeline(generate_synthetic(SyntheticSpec(**MICRO))), "T1ES")
    b = run_experiment(build_pipeline(generate_synthetic(SyntheticSpec(**MICRO))), "T1ES")
    assert report_to_tsv(a) == report_to_tsv(b)


def test_sweep_threshold_endpoints_and_monotonicity(micro_pipeline):
    report = run_experiment(micro_pipeline, "T1ES")
    table = sweep_threshold(report.lf.outcomes)
    assert table[0][0] == 0.0
    assert table[-1][0] == pytest.approx(1.0)
    # recall at threshold 0 counts every rank-1 hit
    assert table[0][1] == report.lf.precision_at_1
    recalls = [r for _, r, _ in table]
    assert all(a >= b for a, b in zip(recalls, recalls[1:]))
    with pytest.raises(ValidationError):
        sweep_threshold([])


def test_sweep_threshold_above_all_scores_gives_zero_recall():
    table = sweep_threshold([(True, 0.8), (True, 0.9), (False, 0.5)], step=0.05)
    by_t = {round(t, 2): (r, n) for t, r, n in table}
    assert by_t[0.0] == (2 / 3, 1 / 3)
    assert by_t[0.85] == (1 / 3, 0.0)
    assert by_t[1.0] == (0.0, 0.0)


@pytest.mark.parametrize("step", [0.0, -0.1, math.nan, 2.0])
def test_sweep_threshold_refuses_a_step_that_makes_no_grid(step):
    with pytest.raises(ValidationError, match="grid step"):
        sweep_threshold([(True, 0.8), (False, 0.5)], step=step)


def test_build_pipeline_holds_no_normalized_collection():
    # every training and test document normalized at once took 10.8 MB
    # of traced heap on the default spec; one at a time, the peak is about
    # 1.0 MB, of which the finished pipeline keeps 0.8 MB
    corpus = generate_synthetic(SyntheticSpec())
    tracemalloc.start()
    try:
        build_pipeline(corpus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_000_000


def test_report_tsv_shape(micro_pipeline):
    text = report_to_tsv(run_experiment(micro_pipeline, "T1ES"))
    lines = text.strip().splitlines()
    assert len(lines) == 3  # header + one row per variant
    header = lines[0].split("\t")
    for row in lines[1:]:
        assert len(row.split("\t")) == len(header)
    variant_col = header.index("variant")
    assert {lines[1].split("\t")[variant_col], lines[2].split("\t")[variant_col]} == {"no_lf", "lf"}


def test_dedupe_raw_convenience():
    text = " ".join(f"w{i}" for i in range(300))
    docs = [
        RawDocument(id="a", lang="en", text=text),
        RawDocument(id="b", lang="en", text=text + " extra"),
        RawDocument(id="c", lang="en", text=" ".join(f"v{i}" for i in range(300))),
    ]
    kept, report = dedupe(docs)
    assert [d.id for d in kept] == ["a", "c"]
    assert report[0][:2] == ("a", "b")
