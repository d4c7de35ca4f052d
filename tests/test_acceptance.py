"""Acceptance suite: nine gate criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every criterion asserts hard numbers; tolerances are pinned in-line.
"""

import math
import random
import time

import numpy as np
import pytest

from xlingua.assign import DescriptorVector, assign
from xlingua.harness import build_pipeline, report_to_tsv, run_experiment, sweep_threshold
from xlingua.kernels import g2_batch
from xlingua.normalize import NormalizedDocument, RawDocument
from xlingua.profiles import save_profiles
from xlingua.similarity import (
    DocRecord,
    LengthModel,
    SimilarityOptions,
    cosine,
    dedupe,
    find_most_similar,
    jaccard,
    length_factor,
    load_length_model,
    save_length_model,
    shingles,
    similarity,
)
from xlingua.synthesis import SyntheticSpec, generate_synthetic
from xlingua.thesaurus import load_thesaurus, save_thesaurus


def _verdict(n, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def bench():
    """The standard seeded benchmark: default spec, end-to-end pipeline."""
    start = time.perf_counter()
    corpus = generate_synthetic(SyntheticSpec())
    pipeline = build_pipeline(corpus)
    t1es = run_experiment(pipeline, "T1ES")
    elapsed = time.perf_counter() - start
    return corpus, pipeline, t1es, elapsed


def test_criterion_1_g2_oracle():
    rng = random.Random(20240)
    tables = [[rng.randint(0, 10_000) for _ in range(4)] for _ in range(50)]

    def oracle(k11, k12, k21, k22):
        total = k11 + k12 + k21 + k22
        g = 0.0
        for obs, row, col in (
            (k11, k11 + k12, k11 + k21),
            (k12, k11 + k12, k12 + k22),
            (k21, k21 + k22, k11 + k21),
            (k22, k21 + k22, k12 + k22),
        ):
            if row == 0 or col == 0:
                return 0.0
            if obs:
                g += obs * math.log(obs * total / (row * col))
        return max(2.0 * g, 0.0)

    arrays = [np.array(col, dtype=np.float64) for col in zip(*tables)]
    g2_batch(*(a[:1] for a in arrays))  # trigger one-time jit compilation
    start = time.perf_counter()
    got = g2_batch(*arrays)
    elapsed = time.perf_counter() - start
    max_err = max(abs(got[i] - oracle(*t)) for i, t in enumerate(tables))
    indep = g2_batch(*(np.array([v], dtype=np.float64) for v in (10, 40, 30, 120)))[0]
    fwd = g2_batch(*(np.array([v], dtype=np.float64) for v in (5, 2, 9, 31)))[0]
    rev = g2_batch(*(np.array([v], dtype=np.float64) for v in (9, 31, 5, 2)))[0]
    ok = max_err < 1e-9 and indep == 0.0 and abs(fwd - rev) < 1e-12 and elapsed < 1.0
    _verdict(1, ok, f"G2 oracle max err {max_err:.2e}, independence {indep}, "
                    f"swap diff {abs(fwd - rev):.2e}, {elapsed * 1000:.1f} ms")


def test_criterion_2_cosine_oracle():
    rng = random.Random(555)
    max_err = 0.0
    symmetric = bounded = True
    for _ in range(100):
        a = {rng.randrange(200): rng.uniform(0.01, 9.0) for _ in range(rng.randint(1, 60))}
        b = {rng.randrange(200): rng.uniform(0.01, 9.0) for _ in range(rng.randint(1, 60))}
        va = DescriptorVector(doc_id="a", lang="en", entries=a)
        vb = DescriptorVector(doc_id="b", lang="en", entries=b)
        dot = sum(a[k] * b[k] for k in a.keys() & b.keys())
        na = math.sqrt(sum(v * v for v in a.values()))
        nb = math.sqrt(sum(v * v for v in b.values()))
        want = min(dot / (na * nb), 1.0)
        got = cosine(va, vb)
        max_err = max(max_err, abs(got - want))
        symmetric &= got == cosine(vb, va)
        bounded &= 0.0 <= got <= 1.0
    disjoint = cosine(
        DescriptorVector(doc_id="a", lang="en", entries={1: 1.0}),
        DescriptorVector(doc_id="b", lang="en", entries={2: 1.0}),
    )
    ok = max_err < 1e-12 and symmetric and bounded and disjoint == 0.0
    _verdict(2, ok, f"cosine oracle max err {max_err:.2e}, symmetric={symmetric}, "
                    f"bounded={bounded}, disjoint={disjoint}")


def test_criterion_3_length_factor(bench):
    model = LengthModel(pairs={("en", "es"): (1.2, 0.1)})
    idents = (
        length_factor(1000, 1200, "en", "es", model) == 1.0
        and abs(length_factor(1000, 1300, "en", "es", model) - math.exp(-0.5)) < 1e-12
        and abs(length_factor(1000, 1100, "en", "es", model) - math.exp(-0.5)) < 1e-12
        and abs(length_factor(1000, 1400, "en", "es", model) - math.exp(-2.0)) < 1e-12
        and abs(length_factor(1000, 1000, "en", "es", model) - math.exp(-2.0)) < 1e-12
    )
    _, pipeline, _, _ = bench
    lf_only = run_experiment(pipeline, "T1ESLF").lf.precision_at_1
    ok = idents and lf_only < 0.10
    _verdict(3, ok, f"LF identities exact={idents}, LF-only precision@1 {lf_only:.2f} < 0.10")


def test_criterion_4_benchmark_precision(bench):
    _, _, t1es, elapsed = bench
    no_lf = t1es.no_lf.precision_at_1
    lf = t1es.lf.precision_at_1
    ok = no_lf >= 0.90 and lf >= 0.93 and lf >= no_lf and elapsed < 60.0
    _verdict(4, ok, f"T1ES precision@1 no-LF {no_lf:.2f} (>=0.90), "
                    f"LF {lf:.2f} (>=0.93, >=no-LF), runtime {elapsed:.1f}s (<60s)")


def test_criterion_5_bilingual_bias(bench):
    _, pipeline, _, _ = bench
    biased = run_experiment(pipeline, "BILW").no_lf.precision_at_1
    unbiased = run_experiment(pipeline, "BIL").no_lf.precision_at_1
    gap = biased - unbiased

    # constructed duplicate property: cosine 1 -> 0.83 loses to any
    # cross-language candidate scoring above the bias
    opts = SimilarityOptions(use_length_factor=False, same_language_bias=0.83)
    q = DocRecord(vector=DescriptorVector("q", "en", {1: 1.0, 2: 0.5}), char_length=100)
    dup = DocRecord(vector=DescriptorVector("dup", "en", {1: 1.0, 2: 0.5}), char_length=100)
    tr = DocRecord(vector=DescriptorVector("tr", "es", {1: 1.0, 2: 0.4}), char_length=113)
    ranked = find_most_similar(q, [dup, tr], opts)
    outranked = (
        cosine(q.vector, tr.vector) > 0.83 and ranked[0].candidate_id == "tr"
    )
    ok = gap >= 0.05 and outranked
    _verdict(5, ok, f"bias 0.83 vs 1.0 precision@1 gap {gap * 100:.0f} pts (>=5), "
                    f"duplicate outranked={outranked}")


def test_criterion_6_threshold_sweep(bench):
    _, _, t1es, _ = bench
    table = sweep_threshold(t1es.lf.outcomes)
    recalls = [r for _, r, _ in table]
    monotone = all(a >= b for a, b in zip(recalls, recalls[1:]))
    eligible = [(t, r, nz) for t, r, nz in table if r >= 0.88]
    t_star, recall, noise = eligible[-1]  # highest threshold still at >=88% recall
    ok = monotone and noise <= 0.05
    _verdict(6, ok, f"sweep monotone={monotone}; threshold {t_star:.2f} gives "
                    f"recall {recall:.2f} with noise {noise:.2f} (<=0.05)")


def test_criterion_7_dedupe():
    rng = random.Random(77)
    docs = []
    for i in range(44):
        words = [f"doc{i}w{rng.randrange(500)}" for _ in range(150)]
        docs.append(RawDocument(id=f"u{i:02d}", lang="en", text=" ".join(words)))
    planted = []
    for i, stem in enumerate(("redfish", "bluebird", "greentree")):
        base = " ".join(f"{stem}{j}" for j in range(200))
        docs.append(RawDocument(id=f"v{i}a", lang="en", text=base))
        docs.append(RawDocument(id=f"v{i}b", lang="en", text=base + " x"))
        planted.append(f"v{i}b")

    kept, report = dedupe(docs, threshold=0.95)
    removed = {d.id for d in docs} - {d.id for d in kept}

    sh = {d.id: shingles(d.text) for d in docs}
    low_overlap_removed = False
    all_high_removed = True
    for a in docs:
        for b in docs:
            if a.id >= b.id:
                continue
            j = jaccard(sh[a.id], sh[b.id])
            if j >= 0.95 and b.id not in removed:
                all_high_removed = False
            if j < 0.80 and (a.id in removed or b.id in removed) and not (
                a.id in planted or b.id in planted
            ):
                low_overlap_removed = True
    ok = removed == set(planted) and all_high_removed and not low_overlap_removed
    _verdict(7, ok, f"removed {sorted(removed)} == planted {sorted(planted)}, "
                    f"verified against exhaustive Jaccard on {len(docs)} docs")


def test_criterion_8_determinism_round_trips(bench, tmp_path):
    corpus, pipeline, t1es, _ = bench
    # independent second run of the whole pipeline
    pipeline2 = build_pipeline(generate_synthetic(SyntheticSpec()))
    p1, p2 = tmp_path / "a.prof", tmp_path / "b.prof"
    save_profiles(pipeline.profiles["en"], str(p1))
    save_profiles(pipeline2.profiles["en"], str(p2))
    profiles_same = p1.read_bytes() == p2.read_bytes()
    reports_same = report_to_tsv(t1es) == report_to_tsv(run_experiment(pipeline2, "T1ES"))

    t1, t2 = tmp_path / "t1.txt", tmp_path / "t2.txt"
    save_thesaurus(corpus.thesaurus, str(t1))
    save_thesaurus(load_thesaurus(str(t1)), str(t2))
    thesaurus_rt = t1.read_bytes() == t2.read_bytes()

    m1, m2 = tmp_path / "m1.lm", tmp_path / "m2.lm"
    save_length_model(pipeline.length_model, str(m1))
    save_length_model(load_length_model(str(m1)), str(m2))
    model_rt = m1.read_bytes() == m2.read_bytes()

    from xlingua.profiles import load_profiles
    p3 = tmp_path / "c.prof"
    save_profiles(load_profiles(str(p1)), str(p3))
    profile_rt = p1.read_bytes() == p3.read_bytes()

    ok = profiles_same and reports_same and thesaurus_rt and model_rt and profile_rt
    _verdict(8, ok, f"profiles identical={profiles_same}, reports identical={reports_same}, "
                    f"round-trips thesaurus={thesaurus_rt} model={model_rt} profiles={profile_rt}")


def test_criterion_9_invariants(bench):
    corpus, pipeline, _, _ = bench
    start = time.perf_counter()
    profiles = pipeline.profiles["en"]
    rng = random.Random(9)

    scale_ok = True
    lemmas = [lm for p in profiles.profiles.values() for lm, _ in p[:3]]
    for _ in range(25):
        chosen = rng.sample(lemmas, 8)
        counts = {lm: rng.randint(1, 9) for lm in chosen}
        factor = rng.randint(2, 30)

        def make(c):
            return NormalizedDocument(id="q", lang="en", lemma_freq=c,
                                      char_length=100, token_count=sum(c.values()))

        base = assign(make(counts), profiles)
        scaled = assign(make({lm: v * factor for lm, v in counts.items()}), profiles)
        scale_ok &= set(base.entries) == set(scaled.entries) and all(
            abs(base.entries[c] - scaled.entries[c]) < 1e-12 for c in base.entries
        )

        full = assign(make(counts), profiles, k=100)
        prefix_ok = assign(make(counts), profiles, k=8).ranked() == full.ranked()[:8]
        scale_ok &= prefix_ok

    penalty_ok = True
    opts = SimilarityOptions()
    for q in pipeline.src_records[:30]:
        for c in pipeline.tgt_records[:30]:
            raw, _, final = similarity(q, c, opts, pipeline.length_model)
            penalty_ok &= final <= raw + 1e-12

    elapsed = time.perf_counter() - start
    ok = scale_ok and penalty_ok and elapsed < 120.0
    _verdict(9, ok, f"scale/truncation invariants={scale_ok}, "
                    f"penalty monotone={penalty_ok}, {elapsed:.1f}s (<120s)")
