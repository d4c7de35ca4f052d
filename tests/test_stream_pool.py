"""Scoring a pool that grows by appends, as a stream of arrivals does.

Each ``DescriptorVector`` holds its codes, weights and norm from
construction, and later searches reuse the kept candidate stack.  Every score
of the reused records must equal, bit for bit, a score of uncached copies
and the scalar ``cosine``; with the length factor off the final scores
and their order (ties by ascending id) must equal the scalar path's too.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from xlingua.assign import DescriptorVector
from xlingua.similarity import (
    DocRecord,
    LengthModel,
    SimilarityOptions,
    find_most_similar,
    score_matrix,
    similarity,
)

# Sums and products of these weights are exact in any order, so exact
# duplicates and coinciding dot products tie exactly.
DYADIC = (0.125, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
CODES = st.one_of(st.integers(1, 12), st.sampled_from([10**9, 10**12]))


@st.composite
def arrivals(draw):
    """Records with distinct ids (some exact duplicates, some empty), options, model."""
    weight = st.sampled_from(DYADIC) if draw(st.booleans()) else st.floats(0.01, 10.0)
    records = []
    for i in range(draw(st.integers(2, 10))):
        doc_id = f"d{draw(st.integers(0, 99)):02d}-{i}"
        source = draw(st.none() | st.sampled_from(records)) if records else None
        if source is None:
            entries = draw(st.dictionaries(CODES, weight, max_size=8))
            lang = draw(st.sampled_from(["en", "es"]))
            length = draw(st.sampled_from([40, 100, 113]))
            records.append(DocRecord(DescriptorVector(doc_id, lang, entries), length))
        else:  # an exact duplicate under another id
            records.append(DocRecord(DescriptorVector(doc_id, source.lang, source.vector.entries), source.char_length))
    opts = SimilarityOptions(
        use_length_factor=draw(st.booleans()),
        same_language_bias=draw(st.sampled_from([1.0, 0.83, 0.5])),
    )
    model = LengthModel()
    model.set("en", "es", draw(st.floats(0.5, 2.0)), draw(st.floats(0.05, 1.0)))
    model.set("es", "en", draw(st.floats(0.5, 2.0)), draw(st.floats(0.05, 1.0)))
    return records, opts, model


def fresh_copy(record):
    """The same record rebuilt from its entries, with nothing cached."""
    v = record.vector
    return DocRecord(DescriptorVector(v.doc_id, v.lang, dict(v.entries)), record.char_length)


@given(arrivals())
@settings(max_examples=100, deadline=None)
def test_a_pool_growing_by_appends_scores_like_fresh_copies(case):
    records, opts, model = case
    pool = []
    for arrival in records:
        if pool:
            # the arrival alone, as a stream search; then every record so far again
            for queries in ([arrival], [arrival, *pool]):
                got = score_matrix(queries, pool, opts, model)
                want = score_matrix(
                    [fresh_copy(q) for q in queries], [fresh_copy(c) for c in pool], opts, model
                )
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)
                raw = got[0]
                for i, q in enumerate(queries):
                    for j, c in enumerate(pool):
                        if c.id != q.id:
                            assert raw[i, j] == similarity(q, c, opts, model)[0]
            every = replace(opts, top_k=len(pool))
            ranked = find_most_similar(arrival, pool, every, model)
            copies = [fresh_copy(c) for c in pool]
            assert ranked == find_most_similar(fresh_copy(arrival), copies, every, model)
            if not opts.use_length_factor:  # then the scalar final is exact too
                scored = [(c.id, similarity(arrival, c, opts, model)[2]) for c in pool]
                order = sorted(scored, key=lambda cs: (-cs[1], cs[0]))
                assert [(m.candidate_id, m.final_score) for m in ranked] == order
        pool.append(arrival)


def test_empty_queries_and_pools_score_zero():
    empty = [DocRecord(DescriptorVector(f"e{i}", "es", {}), 50) for i in range(3)]
    q = DocRecord(DescriptorVector("q", "en", {}), 50)
    opts = SimilarityOptions(use_length_factor=False)
    raw, lf, final = score_matrix([q], empty, opts)
    assert raw.tolist() == final.tolist() == [[0.0, 0.0, 0.0]]
    for got in score_matrix([], [], opts):
        assert got.shape == (0, 0)
    assert score_matrix([q], [], opts)[0].shape == (1, 0)


def test_one_empty_vector_in_a_pool_scores_zero_among_the_others():
    q = DocRecord(DescriptorVector("q", "en", {3: 0.7, 1: 0.2, 2: 0.1}), 100)
    pool = [
        DocRecord(DescriptorVector("a", "es", {2: 0.3, 1: 0.9}), 100),
        DocRecord(DescriptorVector("b", "es", {}), 100),
        DocRecord(DescriptorVector("c", "es", {3: 0.5, 9: 0.25}), 100),
    ]
    opts = SimilarityOptions(use_length_factor=False)
    for _ in range(2):  # again, from the kept stack
        raw = score_matrix([q], pool, opts)[0][0]
        assert raw.tolist() == [similarity(q, c, opts)[0] for c in pool]
        assert raw[1] == 0.0 and raw[0] > 0.0 and raw[2] > 0.0


def test_codes_and_weights_are_read_only_and_follow_the_entries():
    v = DescriptorVector("v", "en", {7: 0.5, 2: 0.25})
    codes, weights = v.codes, v.weights
    assert codes.dtype == np.int64 and weights.dtype == np.float64
    assert dict(zip(codes.tolist(), weights.tolist())) == v.entries
    assert codes.tolist() == [7, 2] and list(v.entries) == [7, 2]
    assert v.codes is v.codes and v.weights is v.weights
    assert not codes.flags.writeable and not weights.flags.writeable
