"""End-to-end evaluation harness: pipeline driver, experiment matrix, metrics.

Experiment modes mirror the published experiment identifiers:

========  ==============================================================
T1ES      target-language-only search, source -> target
T1SE      same, reversed direction
T1ESLF    length factor only, cosine ignored (ablation)
T3        target search over the test targets merged with a second set
BIL       bilingual search space (both languages), no bias correction
BILW      bilingual search space with same-language bias applied
THBIL     half-sized bilingual space, no bias
THBILW    half-sized bilingual space with bias
========  ==============================================================

Every experiment is scored twice, with and without the length factor.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from xlingua.assign import assign
from xlingua.errors import ValidationError
from xlingua.normalize import normalize
from xlingua.profiles import ProfileSet, train_profiles
from xlingua.similarity import (
    DEFAULT_SAME_LANGUAGE_BIAS,
    DEFAULT_THRESHOLD,
    DocRecord,
    LengthModel,
    SimilarityOptions,
    estimate_length_model,
    score_matrix,
)
from xlingua.synthesis import SyntheticCorpus

MODES = ("T1ES", "T1SE", "T1ESLF", "T3", "BIL", "BILW", "THBIL", "THBILW")

THRESHOLD_GRID_STEP = 0.01


@dataclass
class VariantResult:
    """Metrics of one experiment variant (LF on or off)."""

    precision_at_1: float
    precision_at_3: float
    rank_histogram: dict[int, int]
    recall_at_threshold: float
    noise_at_threshold: float
    outcomes: list[tuple[bool, float]] = field(default_factory=list, repr=False)


@dataclass
class EvaluationReport:
    mode: str
    n_queries: int
    threshold: float
    same_language_bias: float
    no_lf: VariantResult
    lf: VariantResult


@dataclass
class Pipeline:
    """Trained profiles plus assigned test documents, ready for experiments."""

    src_lang: str
    tgt_lang: str
    profiles: dict[str, ProfileSet]
    length_model: LengthModel
    src_records: list[DocRecord]
    tgt_records: list[DocRecord]
    truth: dict[str, str]


def build_pipeline(corpus: SyntheticCorpus) -> Pipeline:
    """Train per-language profiles, fit lengths, normalize and assign test docs.

    Each trainer reads its language's training documents as they are
    normalized, and each test pair is normalized and assigned in turn, so
    no normalized collection is ever held.
    """
    res = corpus.resources
    train = corpus.train.pairs
    src_lang, tgt_lang = corpus.train.src_lang, corpus.train.tgt_lang

    profiles = {
        src_lang: train_profiles((normalize(s, res[s.lang]) for s, _ in train), corpus.thesaurus),
        tgt_lang: train_profiles((normalize(t, res[t.lang]) for _, t in train), corpus.thesaurus),
    }

    model = LengthModel()
    model.set(src_lang, tgt_lang, *estimate_length_model(train))
    model.set(tgt_lang, src_lang, *estimate_length_model((t, s) for s, t in train))

    src_records, tgt_records = [], []
    truth: dict[str, str] = {}
    for raw_s, raw_t in corpus.test.pairs:
        s, t = normalize(raw_s, res[raw_s.lang]), normalize(raw_t, res[raw_t.lang])
        src_records.append(DocRecord(vector=assign(s, profiles[src_lang]), char_length=s.char_length))
        tgt_records.append(DocRecord(vector=assign(t, profiles[tgt_lang]), char_length=t.char_length))
        truth[s.id] = t.id
        truth[t.id] = s.id

    return Pipeline(
        src_lang=src_lang,
        tgt_lang=tgt_lang,
        profiles=profiles,
        length_model=model,
        src_records=src_records,
        tgt_records=tgt_records,
        truth=truth,
    )


def _variant(
    queries: list[DocRecord],
    candidates: list[DocRecord],
    truth: dict[str, str],
    model: LengthModel,
    opts: SimilarityOptions,
    lf_only: bool,
) -> VariantResult:
    """Rank every query's true translation among ``candidates``.

    ``candidates`` must be sorted by id with no id repeated: the column
    order then breaks score ties by ascending id.
    """
    _, _, final = score_matrix(queries, candidates, opts, model, lf_only)
    if np.isneginf(final).all(axis=1).any():
        raise ValidationError("empty candidate set")
    column = {c.id: j for j, c in enumerate(candidates)}
    true_col = np.array([column[truth[q.id]] for q in queries], dtype=np.intp)
    true_score = final[np.arange(len(queries)), true_col][:, None]
    ahead = (final > true_score) | (
        (final == true_score) & (np.arange(len(candidates))[None, :] < true_col[:, None])
    )
    ranks = 1 + ahead.sum(axis=1)
    outcomes = list(zip((ranks == 1).tolist(), final.max(axis=1).tolist()))
    histogram = Counter(ranks.tolist())
    n = len(queries)
    return VariantResult(
        precision_at_1=histogram[1] / n,
        precision_at_3=sum(c for r, c in histogram.items() if r <= 3) / n,
        rank_histogram=dict(sorted(histogram.items())),
        recall_at_threshold=sum(1 for ok, s in outcomes if ok and s >= opts.threshold) / n,
        noise_at_threshold=sum(1 for ok, s in outcomes if not ok and s >= opts.threshold) / n,
        outcomes=outcomes,
    )


def run_experiment(
    pipeline: Pipeline,
    mode: str,
    threshold: float = DEFAULT_THRESHOLD,
    same_language_bias: float = DEFAULT_SAME_LANGUAGE_BIAS,
    extra_targets: list[DocRecord] | None = None,
) -> EvaluationReport:
    """Run one experiment mode over the pipeline's test documents.

    ``same_language_bias`` applies in the modes that end in W.
    ``extra_targets`` enlarges the target search space for the merged
    T3 mode (distractor documents from a second collection).
    """
    if mode not in MODES:
        raise ValidationError(f"unknown experiment mode {mode!r}; expected one of {MODES}")
    opts = SimilarityOptions(same_language_bias=same_language_bias, threshold=threshold)

    queries = pipeline.src_records
    candidates: list[DocRecord] = list(pipeline.tgt_records)
    bias = 1.0
    lf_only = False

    if mode == "T1SE":
        queries = pipeline.tgt_records
        candidates = list(pipeline.src_records)
    elif mode == "T1ESLF":
        lf_only = True
    elif mode == "T3":
        if extra_targets is None:
            raise ValidationError("mode T3 needs extra_targets (the merged second collection)")
        candidates = list(pipeline.tgt_records) + list(extra_targets)
    elif mode in ("BIL", "BILW"):
        candidates = list(pipeline.src_records) + list(pipeline.tgt_records)
        if mode == "BILW":
            bias = opts.same_language_bias
    elif mode in ("THBIL", "THBILW"):
        half = list(range(0, len(pipeline.src_records), 2))
        queries = [pipeline.src_records[i] for i in half]
        candidates = [pipeline.src_records[i] for i in half] + [
            pipeline.tgt_records[i] for i in half
        ]
        if mode == "THBILW":
            bias = opts.same_language_bias

    if not queries:
        raise ValidationError("experiment has no queries")
    candidates.sort(key=lambda c: c.id)
    for a, b in zip(candidates, candidates[1:]):
        if a.id == b.id:
            raise ValidationError(f"candidate id {a.id!r} occurs more than once")

    variants = {
        use_lf: _variant(
            queries,
            candidates,
            pipeline.truth,
            pipeline.length_model,
            replace(opts, use_length_factor=use_lf, same_language_bias=bias),
            lf_only,
        )
        for use_lf in (False, True)
    }
    return EvaluationReport(
        mode=mode,
        n_queries=len(queries),
        threshold=opts.threshold,
        same_language_bias=bias,
        no_lf=variants[False],
        lf=variants[True],
    )


def sweep_threshold(outcomes: list[tuple[bool, float]]) -> list[tuple[float, float, float]]:
    """(threshold, recall, noise) over a 0..1 grid of step THRESHOLD_GRID_STEP.

    recall: fraction of queries whose true translation ranked first and
    passed the threshold; noise: fraction where a non-translation did.
    """
    if not outcomes:
        raise ValidationError("empty outcome set")
    n = len(outcomes)
    table = []
    for i in range(round(1.0 / THRESHOLD_GRID_STEP) + 1):
        t = i * THRESHOLD_GRID_STEP
        recall = sum(1 for ok, s in outcomes if ok and s >= t) / n
        noise = sum(1 for ok, s in outcomes if not ok and s >= t) / n
        table.append((t, recall, noise))
    return table


def _histogram_str(histogram: dict[int, int]) -> str:
    return ",".join(f"{rank}:{count}" for rank, count in sorted(histogram.items()))


def report_to_tsv(report: EvaluationReport) -> str:
    """Serialize a report as tab-separated text with a one-line header."""
    header = [
        "mode",
        "n_queries",
        "threshold",
        "bias",
        "variant",
        "precision_at_1",
        "precision_at_3",
        "recall_at_threshold",
        "noise_at_threshold",
        "rank_histogram",
    ]
    rows = []
    for name, v in (("no_lf", report.no_lf), ("lf", report.lf)):
        rows.append(
            "\t".join(
                [
                    report.mode,
                    str(report.n_queries),
                    f"{report.threshold:.6f}",
                    f"{report.same_language_bias:.6f}",
                    name,
                    f"{v.precision_at_1:.6f}",
                    f"{v.precision_at_3:.6f}",
                    f"{v.recall_at_threshold:.6f}",
                    f"{v.noise_at_threshold:.6f}",
                    _histogram_str(v.rank_histogram),
                ]
            )
        )
    return "\n".join(["\t".join(header)] + rows) + "\n"
