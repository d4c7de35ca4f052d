import importlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlingua.assign import DescriptorVector
from xlingua.errors import ConfigError, ParseError, ValidationError
from xlingua.normalize import NormalizedDocument, RawDocument
from xlingua.similarity import (
    DocRecord,
    LengthModel,
    SimilarityOptions,
    cosine,
    dedupe,
    detect_translation,
    estimate_length_model,
    find_most_similar,
    jaccard,
    length_factor,
    load_length_model,
    save_length_model,
    shingles,
    similarity,
)


def vec(doc_id="d", lang="en", **entries):
    return DescriptorVector(
        doc_id=doc_id, lang=lang,
        entries={int(k[1:]): v for k, v in entries.items()},
    )


def record(doc_id, lang, char_length=100, **entries):
    return DocRecord(vector=vec(doc_id, lang, **entries), char_length=char_length)


def oracle_cosine(a, b):
    keys = set(a) | set(b)
    dot = sum(a.get(k, 0.0) * b.get(k, 0.0) for k in keys)
    na = math.sqrt(sum(v * v for v in a.values()))
    nb = math.sqrt(sum(v * v for v in b.values()))
    return dot / (na * nb) if na and nb else 0.0


@given(
    st.dictionaries(st.integers(0, 200), st.floats(0.01, 10.0), min_size=0, max_size=40),
    st.dictionaries(st.integers(0, 200), st.floats(0.01, 10.0), min_size=0, max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_cosine_matches_naive_oracle(a, b):
    va = DescriptorVector(doc_id="a", lang="en", entries=a)
    vb = DescriptorVector(doc_id="b", lang="en", entries=b)
    got = cosine(va, vb)
    assert got == pytest.approx(min(oracle_cosine(a, b), 1.0), abs=1e-12)
    assert got == cosine(vb, va)  # symmetric
    assert 0.0 <= got <= 1.0


def test_cosine_disjoint_support_is_zero():
    assert cosine(vec(c1=1.0, c2=2.0), vec("e", "en", c3=1.0)) == 0.0


def test_cosine_empty_vector_is_zero():
    assert cosine(vec(), vec(c1=1.0)) == 0.0


def test_length_factor_identities():
    model = LengthModel(pairs={("en", "es"): (1.135, 0.2)})
    mu, sigma = 1.135, 0.2
    assert length_factor(1000, 1135, "en", "es", model) == 1.0  # exactly at mu
    # exact identities, feeding the ratio through integer-free lengths
    assert length_factor(1000, 1000, "en", "es", model) == pytest.approx(
        math.exp(-0.5 * ((1.0 - mu) / sigma) ** 2), abs=1e-12
    )
    z1 = length_factor(200, 267, "en", "es", model)
    assert z1 == pytest.approx(math.exp(-0.5 * ((267 / 200 - mu) / sigma) ** 2), abs=1e-12)


def test_length_factor_peaks_at_mu():
    model = LengthModel(pairs={("en", "es"): (1.0, 0.1)})
    at_mu = length_factor(100, 100, "en", "es", model)
    assert at_mu == 1.0
    assert length_factor(100, 110, "en", "es", model) == pytest.approx(math.exp(-0.5))
    assert length_factor(100, 120, "en", "es", model) == pytest.approx(math.exp(-2.0))


def test_length_factor_zero_source_rejected():
    with pytest.raises(ValidationError):
        length_factor(0, 10, "en", "es", LengthModel(pairs={("en", "es"): (1.0, 0.1)}))


def test_length_model_same_language_default():
    model = LengthModel(pairs={("en", "es"): (1.135, 0.05)})
    assert model.get("en", "en") == (1.0, model.same_lang_sigma)
    with pytest.raises(ConfigError):
        model.get("en", "fr")


def test_similarity_composition():
    """final = cosine x length factor x (bias if same language)."""
    model = LengthModel(pairs={("en", "es"): (1.0, 0.5)})
    opts = SimilarityOptions(same_language_bias=0.83)
    q = record("q", "en", 100, c1=1.0)
    cand = record("c", "es", 150, c1=1.0)
    raw, lf, final = similarity(q, cand, opts, model)
    assert raw == pytest.approx(1.0)
    assert lf == pytest.approx(math.exp(-0.5))
    assert final == pytest.approx(raw * lf)

    dup = record("d", "en", 100, c1=1.0)
    raw, lf, final = similarity(q, dup, opts, model)
    assert final == pytest.approx(raw * lf * 0.83)


def test_similarity_requires_model_when_lf_enabled():
    with pytest.raises(ConfigError):
        similarity(record("q", "en", 100, c1=1.0), record("c", "es", 100, c1=1.0),
                   SimilarityOptions())


def test_final_never_exceeds_raw_cosine():
    model = LengthModel(pairs={("en", "es"): (1.135, 0.05)})
    opts = SimilarityOptions()
    q = record("q", "en", 100, c1=1.0, c2=0.4)
    for lang, length in (("es", 113), ("es", 200), ("en", 100)):
        cand = record("c", lang, length, c1=0.9, c2=0.2)
        raw, _, final = similarity(q, cand, opts, model)
        assert final <= raw + 1e-12


def test_bias_lets_translation_outrank_same_language_duplicate():
    """A same-language exact duplicate (cosine 1 -> 0.83) loses to any
    cross-language candidate scoring above the bias."""
    opts = SimilarityOptions(use_length_factor=False, same_language_bias=0.83)
    q = record("q", "en", 100, c1=1.0, c2=0.5)
    duplicate = record("dup", "en", 100, c1=1.0, c2=0.5)
    translation = record("tr", "es", 113, c1=1.0, c2=0.45)
    ranked = find_most_similar(q, [duplicate, translation], opts)
    raw_translation = cosine(q.vector, translation.vector)
    assert raw_translation > 0.83
    assert ranked[0].candidate_id == "tr"


def test_find_most_similar_excludes_query_and_sorts_ties_by_id():
    opts = SimilarityOptions(use_length_factor=False)
    q = record("q", "en", 100, c1=1.0)
    twin_b = record("b", "es", 100, c1=2.0)
    twin_a = record("a", "es", 100, c1=3.0)
    ranked = find_most_similar(q, [q, twin_b, twin_a], opts)
    assert [m.candidate_id for m in ranked] == ["a", "b"]
    with pytest.raises(ValidationError):
        find_most_similar(q, [q], opts)


def test_detect_translation_threshold():
    opts = SimilarityOptions(use_length_factor=False, threshold=0.70)
    q = record("q", "en", 100, c1=1.0, c2=1.0)
    good = record("g", "es", 100, c1=1.0, c2=0.9)
    match = detect_translation(q, [good], opts)
    assert match is not None and match.candidate_id == "g"

    weak = record("w", "es", 100, c1=1.0, c3=2.0)  # cosine ~0.316
    assert detect_translation(q, [weak], opts) is None


def test_estimate_length_model():
    def ndoc(doc_id, lang, chars):
        return NormalizedDocument(id=doc_id, lang=lang, lemma_freq={},
                                  char_length=chars, token_count=0)

    pairs = [(ndoc(f"s{i}", "en", 100), ndoc(f"t{i}", "es", 100 + 10 * i)) for i in range(5)]
    mu, sigma = estimate_length_model(pairs)
    ratios = [1.0, 1.1, 1.2, 1.3, 1.4]
    assert mu == pytest.approx(sum(ratios) / 5)
    with pytest.raises(ValidationError):
        estimate_length_model(pairs[:1])


def test_shingles_and_jaccard():
    assert shingles("abcdef", 5) == frozenset({"abcde", "bcdef"})
    assert shingles("ab", 5) == frozenset({"ab"})
    assert jaccard(frozenset({"a", "b"}), frozenset({"b", "c"})) == pytest.approx(1 / 3)
    assert jaccard(frozenset(), frozenset()) == 1.0


def test_dedupe_removes_planted_duplicates():
    base = " ".join(f"token{i:03d}" for i in range(200))
    near = base[:-8] + "tokenXYZ"  # >95% identical
    other = " ".join(f"word{i:03d}" for i in range(200))
    docs = [
        RawDocument(id="a1", lang="en", text=base),
        RawDocument(id="a2", lang="en", text=near),
        RawDocument(id="b1", lang="en", text=other),
    ]
    kept, report = dedupe(docs, threshold=0.95)
    assert [d.id for d in kept] == ["a1", "b1"]
    assert len(report) == 1
    kept_id, removed_id, score = report[0]
    assert (kept_id, removed_id) == ("a1", "a2")
    assert score >= 0.95


def test_dedupe_rejects_mixed_languages():
    docs = [RawDocument(id="a", lang="en", text="x" * 50),
            RawDocument(id="b", lang="es", text="x" * 50)]
    with pytest.raises(ValidationError):
        dedupe(docs)


def test_length_model_round_trip(tmp_path):
    model = LengthModel(pairs={("en", "es"): (1.135, 0.052), ("es", "en"): (0.881, 0.041)})
    p1 = tmp_path / "a.lm"
    p2 = tmp_path / "b.lm"
    save_length_model(model, str(p1))
    loaded = load_length_model(str(p1))
    save_length_model(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.pairs == model.pairs


@pytest.mark.parametrize(
    "mu, sigma", [("nan", "nan"), ("1.1", "inf"), ("-inf", "0.05"), ("1.1", "0")]
)
def test_length_model_loader_rejects_non_finite_or_non_positive(tmp_path, mu, sigma):
    path = tmp_path / "bad.lm"
    path.write_text(f"# fitted\nPAIR en es {mu} {sigma}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"{path}:2:"):
        load_length_model(str(path))
    with pytest.raises(ValidationError):
        LengthModel().set("en", "es", float(mu), float(sigma))


def test_package_attribute_is_the_similarity_module():
    import xlingua

    assert xlingua.similarity is importlib.import_module("xlingua.similarity")
