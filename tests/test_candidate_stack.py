"""The candidate stack that ``score_matrix`` keeps from one search to the next.

A search whose candidates extend the last search's candidates, by
identity, appends only the new ones to the kept dense rows and columns and
maps the queries onto the kept codes; any other search builds a new stack.
Either way every score must equal, bit for bit, the scores of uncached
copies and the scalar ``similarity``.  The stack holds its records, but
only those of the last searched pool, and a search that raises leaves no
stack behind.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlingua import similarity
from xlingua.assign import DescriptorVector
from xlingua.errors import ConfigError, ValidationError
from xlingua.similarity import (
    DocRecord,
    LengthModel,
    SimilarityOptions,
    find_most_similar,
    score_matrix,
)

DYADIC = (0.125, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
CODES = st.one_of(st.integers(1, 6), st.sampled_from([10**9, 10**12]))  # few, so pools share them
QUERY_ONLY = st.integers(500, 505)  # codes no candidate has
NOVEL = 777  # a code that only the "A+novel" arrival brings: A's stack is rebuilt
STEPS = ("A", "B", "A+arrival", "A+novel", "prefix", "swapped")


def fresh_copy(record):
    v = record.vector
    return DocRecord(DescriptorVector(v.doc_id, v.lang, dict(v.entries)), record.char_length)


@st.composite
def searches(draw):
    """Two unrelated pools, variants of the first, and searches of them by two query sets."""
    weight = st.sampled_from(DYADIC) if draw(st.booleans()) else st.floats(0.01, 10.0)

    def record(doc_id, codes):
        entries = draw(st.dictionaries(codes, weight, max_size=8))  # may be empty
        lang = draw(st.sampled_from(["en", "es"]))
        return DocRecord(DescriptorVector(doc_id, lang, entries), draw(st.sampled_from([40, 100])))

    n = draw(st.integers(2, 6))
    a = [record(f"a{i}", CODES) for i in range(n)]
    b = [record(f"b{i}", CODES) for i in range(n)]
    seen = sorted({code for r in a for code in r.vector.entries})
    arrival = record("arrival", st.sampled_from(seen) if seen else CODES)  # appends to A's stack
    novel = record("novel", CODES)
    novel = DocRecord(
        DescriptorVector("novel", novel.lang, {**novel.vector.entries, NOVEL: draw(weight)}),
        novel.char_length,
    )
    swap = draw(st.integers(0, n - 1))
    pools = {
        "A": a,
        "B": b,
        "A+arrival": [*a, arrival],
        "A+novel": [*a, novel],
        "prefix": a[: draw(st.integers(1, n - 1))],
        "swapped": [*a[:swap], fresh_copy(a[swap]), *a[swap + 1 :]],
    }
    # two query sets, so that a kept stack meets query codes it has no column for
    queries = [
        [record(f"q{k}{i}", st.one_of(CODES, QUERY_ONLY)) for i in range(draw(st.integers(1, 3)))]
        for k in range(2)
    ]
    opts = SimilarityOptions(
        use_length_factor=draw(st.booleans()),
        same_language_bias=draw(st.sampled_from([1.0, 0.83])),
    )
    model = LengthModel()
    model.set("en", "es", draw(st.floats(0.5, 2.0)), draw(st.floats(0.05, 1.0)))
    model.set("es", "en", draw(st.floats(0.5, 2.0)), draw(st.floats(0.05, 1.0)))
    order = draw(st.lists(st.tuples(st.sampled_from(STEPS), st.sampled_from(queries)), max_size=12))
    return pools, opts, model, order


def uncached_scores(queries, candidates, opts, model):
    """``score_matrix`` of uncached copies, leaving the kept stack in place."""
    kept = list(similarity._last_stack)
    try:
        copies = [fresh_copy(q) for q in queries], [fresh_copy(c) for c in candidates]
        return score_matrix(*copies, opts, model)
    finally:
        similarity._last_stack[:] = kept


def extends(stack, candidates) -> bool:
    """Whether a search over ``candidates`` may append to ``stack``."""
    stacked = stack.records
    if len(stacked) > len(candidates) or any(s is not c for s, c in zip(stacked, candidates)):
        return False
    known = set(stack.codes.tolist())
    return all(known.issuperset(c.vector.entries) for c in candidates[len(stacked) :])


@given(searches())
@settings(max_examples=150, deadline=None)
def test_interleaved_searches_score_like_fresh_copies_and_the_scalar(case):
    pools, opts, model, order = case
    similarity._last_stack.clear()
    for step, queries in order:
        candidates = pools[step]
        before = similarity._last_stack[0] if similarity._last_stack else None
        reuse = before is not None and extends(before, candidates)
        got = score_matrix(queries, candidates, opts, model)
        assert (similarity._last_stack[0] is before) == reuse
        for g, w in zip(got, uncached_scores(queries, candidates, opts, model)):
            assert np.array_equal(g, w)
        raw = got[0]
        for i, q in enumerate(queries):
            for j, c in enumerate(candidates):
                assert raw[i, j] == similarity.similarity(q, c, opts, model)[0]


def test_an_appended_code_the_stack_lacks_builds_a_new_stack():
    opts = SimilarityOptions(use_length_factor=False)
    q = DocRecord(DescriptorVector("q", "en", {1: 0.5, 10**12: 0.5, 600: 1.0}), 100)
    pool = [DocRecord(DescriptorVector("a", "es", {1: 1.0}), 100)]
    score_matrix([q], pool, opts)
    first = similarity._last_stack[0]
    pool.append(DocRecord(DescriptorVector("b", "es", {1: 2.0}), 100))
    score_matrix([q], pool, opts)  # 1 is a pool code, so it has a column
    assert similarity._last_stack[0] is first
    pool.append(DocRecord(DescriptorVector("c", "es", {5: 1.0}), 100))
    raw = score_matrix([q], pool, opts)[0]
    assert similarity._last_stack[0] is not first
    assert raw[0].tolist() == [similarity.cosine(q.vector, c.vector) for c in pool]


def test_the_stack_keeps_at_most_the_last_searched_pool():
    opts = SimilarityOptions(use_length_factor=False)
    q = DocRecord(DescriptorVector("q", "en", {7: 1.0}), 100)
    a = [DocRecord(DescriptorVector(f"a{i}", "es", {i: 1.0, 7: 0.5}), 100) for i in range(5)]
    b = [DocRecord(DescriptorVector(f"b{i}", "es", {i: 0.5, 8: 1.0}), 100) for i in range(5)]
    find_most_similar(q, a, opts)
    records = [weakref.ref(c) for c in a]
    assert all(r() is not None for r in records)
    find_most_similar(q, b, opts)  # an unrelated pool replaces A's stack
    del a
    gc.collect()
    assert all(r() is None for r in records)
    assert list(map(id, similarity._last_stack[0].records)) == list(map(id, b))


def test_concurrent_searches_of_growing_pools_score_like_one_at_a_time():
    opts = SimilarityOptions(use_length_factor=False)

    def pool(t):
        return [
            DocRecord(DescriptorVector(f"t{t}-{i}", "es", {i % 9: 1.0, (i * t) % 7: 0.5}), 100)
            for i in range(25)
        ]

    q = DocRecord(DescriptorVector("q", "en", {1: 1.0, 3: 0.25, 6: 0.5}), 100)
    pools = [pool(t) for t in range(4)]
    want = [[score_matrix([q], p[:n], opts)[0] for n in range(1, 26)] for p in pools]
    got: list[list] = [[] for _ in pools]

    def search(t):
        for n in range(1, 26):
            got[t].append(score_matrix([q], pools[t][:n], opts)[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=search, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for g, w in zip(got, want):
        assert len(g) == len(w) and all(np.array_equal(x, y) for x, y in zip(g, w))


def test_a_search_that_raises_leaves_the_next_search_right():
    opts = SimilarityOptions(use_length_factor=True)
    partial = LengthModel()
    partial.set("en", "es", 1.1, 0.3)
    q = DocRecord(DescriptorVector("q", "en", {1: 1.0, 2: 0.5, 3: 0.25}), 100)
    pool = [DocRecord(DescriptorVector(f"c{i}", "es", {i: 1.0, 3: 0.5}), 90 + i) for i in range(3)]
    score_matrix([q], pool, opts, partial)
    pool.append(DocRecord(DescriptorVector("fr", "fr", {2: 3.0}), 40))
    with pytest.raises(ConfigError, match="'en' -> 'fr'"):
        score_matrix([q], pool, opts, partial)  # raises after taking and extending the stack
    assert not similarity._last_stack
    full = LengthModel()
    full.set("en", "es", 1.1, 0.3)
    full.set("en", "fr", 0.9, 0.2)
    got = score_matrix([q], pool, opts, full)
    for g, w in zip(got, uncached_scores([q], pool, opts, full)):
        assert np.array_equal(g, w)
    want = [similarity.similarity(q, c, opts, full) for c in pool]
    assert got[0][0].tolist() == [raw for raw, _, _ in want]
    assert got[2][0].tolist() == [final for _, _, final in want]


def test_appends_with_an_unseen_language_or_a_repeated_id_score_like_fresh_copies():
    opts = SimilarityOptions(use_length_factor=True, same_language_bias=0.83)
    model = LengthModel()
    for src, tgt, mu in (("en", "es", 1.1), ("es", "en", 0.9), ("en", "fr", 1.2), ("es", "fr", 1.05)):
        model.set(src, tgt, mu, 0.2)
    queries = [
        DocRecord(DescriptorVector("q", "en", {1: 1.0, 2: 0.5}), 100),
        DocRecord(DescriptorVector("p", "es", {2: 1.0, 3: 0.5}), 80),
    ]
    pool = [
        DocRecord(DescriptorVector("a", "es", {1: 1.0, 3: 0.5}), 110),
        DocRecord(DescriptorVector("b", "en", {2: 1.0}), 95),
        DocRecord(DescriptorVector("q", "es", {1: 0.5, 2: 0.5}), 105),
    ]
    score_matrix(queries, pool, opts, model)
    first = similarity._last_stack[0]
    for arrival in (
        DocRecord(DescriptorVector("fr1", "fr", {1: 0.25, 3: 1.0}), 120),  # a new language
        DocRecord(DescriptorVector("a", "fr", {2: 2.0}), 90),  # a repeated id
        DocRecord(DescriptorVector("q", "en", {3: 1.0}), 100),  # the query's id, again
    ):
        pool.append(arrival)
        got = score_matrix(queries, pool, opts, model)
        assert similarity._last_stack[0] is first  # appended, not rebuilt
        for g, w in zip(got, uncached_scores(queries, pool, opts, model)):
            assert np.array_equal(g, w)
        final = got[2]
        for i, q in enumerate(queries):
            for j, c in enumerate(pool):
                if c.id == q.id:
                    assert final[i, j] == -np.inf
                else:
                    assert np.isclose(final[i, j], similarity.similarity(q, c, opts, model)[2])
    assert set(first.langs) == {"es", "en", "fr"}
    assert first.rows_of["q"] == [2, 5] and first.rows_of["a"] == [0, 4]


def test_a_zero_length_query_is_refused_even_without_candidates():
    opts = SimilarityOptions(use_length_factor=True)
    q = DocRecord(DescriptorVector("q", "en", {}), 0)
    for search in (score_matrix, similarity.detect_translations):
        with pytest.raises(ValidationError, match="source length must be positive"):
            search([q], [], opts, LengthModel())


def test_a_growing_pool_builds_one_stack_for_thirty_searches(monkeypatch):
    init = similarity._CandidateStack.__init__
    built = []

    def counted(stack):
        built.append(stack)
        init(stack)

    monkeypatch.setattr(similarity._CandidateStack, "__init__", counted)
    opts = SimilarityOptions(use_length_factor=True)
    model = LengthModel()
    model.set("en", "es", 1.1, 0.3)
    model.set("es", "en", 0.9, 0.3)

    def record(i):
        lang = ("en", "es")[i % 2]
        entries = {1 + i % 7: 1.0, 1 + (3 * i) % 7: 0.5, 1 + (5 * i) % 7: 0.25}
        return DocRecord(DescriptorVector(f"d{i}", lang, entries), 80 + 7 * (i % 5))

    pool = [record(i) for i in range(7)]  # every code 1..7
    similarity._last_stack.clear()
    for i in range(7, 37):
        arrival = record(i)
        similarity.detect_translation(arrival, pool, opts, model)
        pool.append(arrival)
    assert built == similarity._last_stack and len(built[0].records) == 36
