import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlingua.assign import DescriptorVector, assign
from xlingua.errors import ValidationError
from xlingua.kernels import csr_cosine_scores
from xlingua.normalize import NormalizedDocument
from xlingua.profiles import ProfileSet


def make_profiles():
    profiles = {
        1: [("fish", 5.0), ("net", 2.0)],
        2: [("steel", 4.0), ("furnace", 3.0)],
        3: [("fish", 1.0), ("market", 4.0)],
    }
    return ProfileSet(lang="en", profiles=profiles, n_docs=10)


def doc(**lemmas):
    return NormalizedDocument(
        id="q", lang="en", lemma_freq=dict(lemmas),
        char_length=50, token_count=sum(lemmas.values()),
    )


def test_scores_positive_bounded_and_ranked():
    vec = assign(doc(fish=3, net=1, market=1), make_profiles())
    assert vec.entries
    for code, score in vec.entries.items():
        assert 0.0 < score <= 1.0
    ranked = vec.ranked()
    scores = [s for _, s in ranked]
    assert scores == sorted(scores, reverse=True)
    assert ranked[0][0] == 1  # fish+net dominate


def test_unmatched_document_gets_empty_vector():
    vec = assign(doc(zebra=4), make_profiles())
    assert vec.entries == {}


def test_empty_document_gets_empty_vector():
    vec = assign(doc(), make_profiles())
    assert vec.entries == {}


def test_language_mismatch_rejected():
    bad = NormalizedDocument(id="q", lang="es", lemma_freq={"pez": 1},
                             char_length=10, token_count=1)
    with pytest.raises(ValidationError):
        assign(bad, make_profiles())


def test_truncation_is_a_prefix():
    """The top-k vector is exactly the first k entries of the full ranking."""
    full = assign(doc(fish=3, net=1, steel=2, market=2), make_profiles(), k=100)
    short = assign(doc(fish=3, net=1, steel=2, market=2), make_profiles(), k=2)
    assert short.ranked() == full.ranked()[:2]


@given(st.integers(min_value=2, max_value=20))
@settings(deadline=None)
def test_scale_invariance(factor):
    """Multiplying every lemma count by a constant leaves the vector unchanged."""
    base = assign(doc(fish=3, net=1, market=2), make_profiles())
    scaled = assign(doc(fish=3 * factor, net=factor, market=2 * factor), make_profiles())
    assert set(base.entries) == set(scaled.entries)
    for code in base.entries:
        assert scaled.entries[code] == pytest.approx(base.entries[code], abs=1e-12)


def test_tied_scores_break_by_ascending_code():
    profiles = ProfileSet(
        lang="en",
        profiles={
            7: [("alpha", 1.0)],
            3: [("alpha", 1.0)],
        },
        n_docs=4,
    )
    ranked = assign(doc(alpha=2), profiles).ranked()
    assert [code for code, _ in ranked] == [3, 7]


def reference_entries(doc, profiles, k):
    """assign's entries as a Python sort over (clamped score, code) pairs."""
    codes, vocab, indptr, indices, data, norms = profiles.csr()
    query = np.zeros(len(vocab))
    for lemma, cnt in doc.lemma_freq.items():
        if lemma in vocab:
            query[vocab[lemma]] = cnt
    query_norm = math.sqrt(sum(c * c for c in doc.lemma_freq.values()))
    scores = csr_cosine_scores(indptr, indices, data, norms, query, query_norm)
    scored = [(min(float(s), 1.0), code) for s, code in zip(scores, codes.tolist()) if s > 0.0]
    scored.sort(key=lambda sc: (-sc[0], sc[1]))
    return {code: s for s, code in scored[:k]}


def test_cosines_above_one_are_clamped_and_tie_by_code():
    # against (1, 1, 1), the profile (1, 1, 1) rounds to a cosine of
    # 1.0000000000000002 and (3, 3, 3) to exactly 1.0
    ones = [("x", 1.0), ("y", 1.0), ("z", 1.0)]
    profiles = ProfileSet(
        lang="en",
        profiles={
            9: ones,
            4: [("x", 3.0), ("y", 3.0), ("z", 3.0)],
            6: ones,
            2: [("x", 1.0)],
        },
        n_docs=4,
    )
    codes, vocab, indptr, indices, data, norms = profiles.csr()
    raw = csr_cosine_scores(indptr, indices, data, norms, np.ones(len(vocab)), math.sqrt(3.0))
    assert raw.tolist()[1:] == [1.0, 1.0000000000000002, 1.0000000000000002]
    vec = assign(doc(x=1, y=1, z=1), profiles)
    assert list(vec.entries.items()) == list(reference_entries(doc(x=1, y=1, z=1), profiles, 100).items())
    assert list(vec.entries)[:3] == [4, 6, 9]
    assert all(s == 1.0 for s in list(vec.entries.values())[:3])


_WORDS = ["fish", "net", "steel", "market", "quota", "ñu"]


@given(
    st.dictionaries(
        st.integers(1, 30),
        st.lists(st.tuples(st.sampled_from(_WORDS), st.sampled_from([1.0, 2.0, 0.5, 3.25])), max_size=4)
        .map(dict)
        .filter(bool),
        min_size=1,
        max_size=12,
    ),
    st.dictionaries(st.sampled_from(_WORDS + ["oov"]), st.integers(1, 3), min_size=1, max_size=5),
    st.integers(1, 12),
)
@settings(deadline=None, max_examples=200)
def test_entries_equal_the_python_sort_reference(weights, lemma_freq, k):
    """Same codes, scores and order, ties and clamped cosines included."""
    profiles = ProfileSet(
        lang="en",
        profiles={code: ws.items() for code, ws in weights.items()},
        n_docs=10,
    )
    got = assign(doc(**lemma_freq), profiles, k)
    assert list(got.entries.items()) == list(reference_entries(doc(**lemma_freq), profiles, k).items())
    assert all(type(code) is int and type(s) is float for code, s in got.entries.items())


def test_a_vector_cannot_be_changed_once_built():
    v = DescriptorVector("v", "en", {7: 0.5, 2: 0.25})
    for name, value in (("doc_id", "w"), ("codes", v.codes[:1]), ("entries", {}), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(v, name, value)
    with pytest.raises(AttributeError):
        del v.lang
    with pytest.raises(TypeError):
        v.entries[7] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        v.codes[0] = 3
    with pytest.raises(ValueError, match="read-only"):
        v.weights[0] = 1.0
    assert v.entries == {7: 0.5, 2: 0.25} and v.norm() == math.sqrt(0.5**2 + 0.25**2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_weight_is_refused(bad):
    with pytest.raises(ValidationError, match="document v: descriptor weights must be finite"):
        DescriptorVector("v", "en", {1: 0.5, 2: bad})


def test_a_100_entry_vector_takes_at_most_2400_bytes():
    # 120 profiles that each match the document, codes up to 7,000 as in
    # a Eurovoc-sized thesaurus; k=100 keeps 100 entries per vector
    profiles = ProfileSet(
        lang="en",
        profiles={
            code: [("fish", 1.0 + i), ("net", 120.0 - i)]
            for i, code in enumerate(range(7000 - 58 * 119, 7001, 58))
        },
        n_docs=10,
    )
    docs = [doc(fish=1 + i % 7, net=1 + i % 5) for i in range(500)]
    assert len(assign(docs[0], profiles).entries) == 100
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        vectors = [assign(d, profiles) for d in docs]
        per_vector = (tracemalloc.get_traced_memory()[0] - before) / len(vectors)
    finally:
        tracemalloc.stop()
    assert per_vector <= 2400, per_vector
