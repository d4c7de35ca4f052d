"""The batched scoring engine against the scalar reference.

``score_matrix`` and its callers must give every score of the one-pair
``similarity``/``length_factor`` path to within 1e-12, and the same
rankings, with exact score ties broken by ascending id.  Scores closer
than 1e-12 that are not equal may swap places: the engine computes the
length factor with numpy's ``exp``, which can differ from ``math.exp`` in
the last bit.  Each test prints the largest score error it saw.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlingua.assign import DescriptorVector
from xlingua.errors import ValidationError
from xlingua.harness import _variant
from xlingua.similarity import (
    DocRecord,
    LengthModel,
    SimilarityOptions,
    detect_translation,
    detect_translations,
    find_most_similar,
    length_factor,
    score_matrix,
    similarity,
)

TOLERANCE = 1e-12
# Sums and products of these weights are exact in any order, so every path
# computes bit-identical cosines and ties between different vectors are
# exact.
DYADIC = (0.125, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
# Mostly a few shared codes; the huge ones do not fit in 32 bits.
CODES = st.one_of(st.integers(1, 12), st.sampled_from([10**9, 10**12]))
LENGTHS = (40, 80, 100, 113, 150)


@st.composite
def cases(draw):
    """Queries, candidates (exact duplicates, maybe queries), options, model."""
    weight = st.sampled_from(DYADIC) if draw(st.booleans()) else st.floats(0.01, 10.0)

    def fresh(doc_id):
        entries = draw(st.dictionaries(CODES, weight, max_size=8))
        lang = draw(st.sampled_from(["en", "es"]))
        length = draw(st.sampled_from(LENGTHS))
        return DocRecord(DescriptorVector(doc_id, lang, entries), length)

    candidates = []
    for i in range(draw(st.integers(1, 8))):
        doc_id = f"c{draw(st.integers(0, 99)):02d}-{i}"
        source = draw(st.none() | st.sampled_from(candidates)) if candidates else None
        if source is None:
            candidates.append(fresh(doc_id))
        else:  # an exact duplicate under another id
            vector = DescriptorVector(doc_id, source.lang, source.vector.entries)
            candidates.append(DocRecord(vector, source.char_length))
    queries = [fresh(f"q{i}") for i in range(draw(st.integers(1, 3)))]
    for q in queries:
        if draw(st.booleans()):
            candidates.insert(draw(st.integers(0, len(candidates))), q)
    opts = SimilarityOptions(
        use_length_factor=draw(st.booleans()),
        same_language_bias=draw(st.sampled_from([1.0, 0.83, 0.5])),
    )
    model = LengthModel()
    model.set("en", "es", draw(st.floats(0.5, 2.0)), draw(st.floats(0.05, 1.0)))
    model.set("es", "en", draw(st.floats(0.5, 2.0)), draw(st.floats(0.05, 1.0)))
    return queries, candidates, opts, model, draw(st.booleans())


def reference(q, c, opts, model, lf_only):
    """(raw, lf, final) of one pair from the scalar functions."""
    if not lf_only:
        return similarity(q, c, opts, model)
    lf = 1.0
    if opts.use_length_factor:
        lf = length_factor(q.char_length, c.char_length, q.lang, c.lang, model)
    return 1.0, lf, lf * opts.same_language_bias if c.lang == q.lang else lf


def near_tie(a, b):
    return a != b and abs(a - b) <= TOLERANCE


def report(name, worst):
    print(f"\n{name}: max abs score error vs scalar path {max(worst):.2e}")
    assert max(worst) <= TOLERANCE


def test_score_matrix_matches_the_scalar_reference():
    worst = [0.0]

    @given(cases())
    @settings(max_examples=200, deadline=None)
    def check(case):
        queries, candidates, opts, model, lf_only = case
        raw, lf, final = score_matrix(queries, candidates, opts, model, lf_only)
        assert raw.shape == lf.shape == final.shape == (len(queries), len(candidates))
        for i, q in enumerate(queries):
            for j, c in enumerate(candidates):
                if c.id == q.id:
                    assert final[i, j] == -np.inf
                    continue
                want = reference(q, c, opts, model, lf_only)
                got = (raw[i, j], lf[i, j], final[i, j])
                worst.append(max(abs(g - w) for g, w in zip(got, want)))

    check()
    report("score_matrix", worst)


def test_find_most_similar_ranks_like_the_scalar_path():
    worst = [0.0]

    @given(cases())
    @settings(max_examples=200, deadline=None)
    def check(case):
        queries, candidates, opts, model, _ = case
        for q in queries:
            pool = [c for c in candidates if c.id != q.id]
            if not pool:
                continue
            scored = [(c.id, reference(q, c, opts, model, False)[2]) for c in pool]
            want = sorted(scored, key=lambda cs: (-cs[1], cs[0]))
            score_of = dict(scored)
            got = find_most_similar(q, candidates, replace(opts, top_k=len(pool)), model)
            assert [m.rank for m in got] == list(range(1, len(pool) + 1))
            for m, (want_id, want_score) in zip(got, want):
                worst.append(abs(m.final_score - want_score))
                if m.candidate_id != want_id:
                    assert near_tie(score_of[m.candidate_id], want_score)
            top = find_most_similar(q, candidates, replace(opts, top_k=2), model)
            assert [m.candidate_id for m in top] == [m.candidate_id for m in got[:2]]

    check()
    report("find_most_similar", worst)


def test_variant_ranks_like_a_scalar_recount():
    worst = [0.0]

    @given(cases(), st.data())
    @settings(max_examples=200, deadline=None)
    def check(case, data):
        queries, candidates, opts, model, lf_only = case
        by_id = {c.id: c for c in candidates}
        candidates = sorted(by_id.values(), key=lambda c: c.id)
        truth = {}
        for q in queries:
            others = [c.id for c in candidates if c.id != q.id]
            if not others:
                return
            truth[q.id] = data.draw(st.sampled_from(others))
        result = _variant(queries, candidates, truth, model, opts, lf_only)

        histogram = {}
        for q, (got_ok, got_best) in zip(queries, result.outcomes):
            scored = [
                (c.id, reference(q, c, opts, model, lf_only)[2])
                for c in candidates
                if c.id != q.id
            ]
            true_id = truth[q.id]
            true_score = dict(scored)[true_id]
            rank = 1 + sum(
                1 for cid, s in scored if s > true_score or (s == true_score and cid < true_id)
            )
            histogram[rank] = histogram.get(rank, 0) + 1
            best_id, best_score = min(scored, key=lambda cs: (-cs[1], cs[0]))
            worst.append(abs(got_best - best_score))
            if not any(near_tie(s, best_score) for _, s in scored):
                assert got_ok == (best_id == true_id)
            if any(near_tie(s, true_score) for _, s in scored):
                return  # rounding may order these two either way
        assert result.rank_histogram == dict(sorted(histogram.items()))

    check()
    report("_variant", worst)


@given(cases(), st.integers(1, 20))
@settings(max_examples=100, deadline=None)
def test_detect_translations_in_row_blocks_decides_like_one_query_at_a_time(case, block):
    queries, candidates, opts, model, _ = case
    opts = replace(opts, threshold=0.3)
    if any(not [c for c in candidates if c.id != q.id] for q in queries):
        return
    with mock.patch("xlingua.similarity._SCORE_BLOCK", block):
        found = detect_translations(queries, candidates, opts, model)
    assert found == [detect_translation(q, candidates, opts, model) for q in queries]


def test_identical_candidates_tie_exactly_and_break_by_id():
    q = DocRecord(DescriptorVector("q", "en", {3: 0.7, 1: 0.2, 2: 0.1}), 100)
    twin = DescriptorVector("t", "es", {2: 0.3, 1: 0.9, 7: 0.45})
    ids = [f"c{i:02d}" for i in range(37)]
    candidates = [DocRecord(DescriptorVector(i, "es", twin.entries), 113) for i in reversed(ids)]
    model = LengthModel()
    model.set("en", "es", 1.1, 0.2)
    _, _, final = score_matrix([q, q], candidates, SimilarityOptions(), model)
    assert (final == final[0, 0]).all()
    ranked = find_most_similar(q, candidates, SimilarityOptions(top_k=5), model)
    assert [m.candidate_id for m in ranked] == ids[:5]


def test_zero_length_query_is_refused_only_with_the_length_factor():
    q = DocRecord(DescriptorVector("q", "en", {}), 0)
    c = DocRecord(DescriptorVector("c", "es", {1: 1.0}), 10)
    model = LengthModel(pairs={("en", "es"): (1.0, 0.1)})
    with pytest.raises(ValidationError, match="source length must be positive"):
        score_matrix([q], [c], SimilarityOptions(), model)
    raw, lf, final = score_matrix([q], [c], SimilarityOptions(use_length_factor=False))
    assert (raw[0, 0], lf[0, 0], final[0, 0]) == (0.0, 1.0, 0.0)


@given(cases(), st.sampled_from([0.0, 0.3, 0.7, 1.0]))
@settings(max_examples=200, deadline=None)
def test_detect_translation_picks_the_rank_1_of_find_most_similar(case, threshold):
    queries, candidates, opts, model, _ = case
    opts = replace(opts, threshold=threshold)
    for q in queries:
        try:
            top = find_most_similar(q, candidates, replace(opts, top_k=1), model)[0]
        except ValidationError as exc:  # the query is its only candidate
            with pytest.raises(ValidationError, match=str(exc)):
                detect_translation(q, candidates, opts, model)
            continue
        want = top if top.final_score >= threshold else None
        assert detect_translation(q, candidates, opts, model) == want


def test_detect_translation_breaks_an_exact_tie_by_the_smallest_id():
    q = DocRecord(DescriptorVector("q", "en", {1: 0.5, 2: 0.5}), 100)
    twin = DescriptorVector("t", "es", {1: 1.0, 2: 1.0})
    weaker = DocRecord(DescriptorVector("a", "es", {1: 1.0}), 100)
    candidates = [weaker, *(DocRecord(DescriptorVector(i, "es", twin.entries), 100) for i in ("c9", "c2", "c5"))]
    opts = SimilarityOptions(use_length_factor=False, threshold=0.0)
    match = detect_translation(q, candidates, opts)
    assert match.candidate_id == "c2"
    assert match == find_most_similar(q, candidates, replace(opts, top_k=1))[0]
    with pytest.raises(ValidationError, match="empty candidate set"):
        detect_translation(q, [q], opts)
