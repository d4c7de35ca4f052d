import importlib
import math
import pkgutil
import random
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xlingua
from xlingua.assign import DescriptorVector
from xlingua.errors import ConfigError, ParseError, ValidationError
from xlingua.normalize import NormalizedDocument, RawDocument
from xlingua.similarity import (
    _join_candidates,
    _key_jaccard,
    _min_overlap,
    _shingle_keys,
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


@pytest.mark.parametrize("threshold", [math.nan, 0.0, -0.5, 1.5, math.inf])
def test_dedupe_rejects_threshold_outside_zero_one(threshold):
    docs = [RawDocument(id="a", lang="en", text="x" * 50)]
    with pytest.raises(ValidationError, match="threshold"):
        dedupe(docs, threshold)


def test_dedupe_rejects_repeated_ids():
    # reporting ("a", "a", 1.0) would remove both copies from the kept list
    docs = [RawDocument(id="a", lang="en", text="x" * n) for n in (50, 51)]
    with pytest.raises(ValidationError, match="'a' occurs more than once"):
        dedupe(docs)


def all_pairs_dedupe(docs, threshold):
    """The exhaustive loop: every pair in id order, verified with jaccard."""
    ordered = sorted(docs, key=lambda d: d.id)
    sets = [shingles(d.text) for d in ordered]
    report = []
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            j_sim = jaccard(sets[i], sets[j])
            if j_sim >= threshold:
                report.append((ordered[i].id, ordered[j].id, j_sim))
    removed = {b for _, b, _ in report}
    return [d for d in docs if d.id not in removed], report


@st.composite
def dedupe_inputs(draw):
    """Documents sharing a base text, with edits, exact copies, empty and
    sub-shingle texts over a small alphabet, and ids that may repeat.  The
    alphabets include multi-byte and astral (above U+FFFF) code points."""
    alphabet = draw(
        st.sampled_from(
            ["ab", "abc", "abcdefgh ", "abcdefghijklmnopqrstuvwxyz ", "áéñ ", "日本語", "😀😁x"]
        )
    )
    base = draw(st.text(alphabet, max_size=60))
    texts = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["copy", "edit", "fresh", "short", "empty"]))
        if kind == "copy":
            texts.append(base)
        elif kind == "edit":
            chars = list(base)
            for _ in range(draw(st.integers(1, 3))):
                if chars:
                    chars[draw(st.integers(0, len(chars) - 1))] = draw(st.sampled_from(alphabet))
            texts.append("".join(chars))
        elif kind == "fresh":
            texts.append(draw(st.text(alphabet, max_size=40)))
        elif kind == "short":
            texts.append(draw(st.text(alphabet, min_size=1, max_size=4)))
        else:
            texts.append("")
    ids = draw(st.lists(st.integers(0, 15), min_size=len(texts), max_size=len(texts)))
    docs = [RawDocument(id=f"d{i:02d}", lang="en", text=t) for i, t in zip(ids, texts)]
    # exact fractions k/n make t * |x| an integer, or the float next to one
    fraction = st.integers(1, 40).flatmap(lambda n: st.integers(1, n).map(lambda k: k / n))
    threshold = draw(
        st.one_of(
            fraction,
            fraction.map(lambda t: math.nextafter(t, 0.0)),
            st.floats(1e-9, 1.0),
            st.sampled_from([1.0, 0.95, 0.5, 1e-9]),
        )
    )
    return docs, threshold


@given(dedupe_inputs())
@settings(max_examples=400, deadline=None)
def test_dedupe_equals_the_all_pairs_loop(case):
    docs, threshold = case
    if len({d.id for d in docs}) < len(docs):
        with pytest.raises(ValidationError, match="more than once"):
            dedupe(docs, threshold)
        # the same texts under distinct ids, in the same id order
        docs = [
            RawDocument(id=f"{d.id}.{k:02d}", lang=d.lang, text=d.text) for k, d in enumerate(docs)
        ]
    kept, report = dedupe(docs, threshold)
    want_kept, want_report = all_pairs_dedupe(docs, threshold)
    assert [d.id for d in kept] == [d.id for d in want_kept]
    assert report == want_report  # same pairs, same order, identical floats


def test_min_overlap_does_not_overshoot_where_ceil_does():
    # 0.28 * 25 rounds to 7.000000000000001, yet 7 / 25 >= 0.28
    assert math.ceil(0.28 * 25) == 8
    assert _min_overlap(25, 0.28) == 7
    for n in range(1, 60):
        for t in (1e-9, 0.07, 0.28, 0.56, 0.95, 1.0):
            k = _min_overlap(n, t)
            assert k / n >= t and (k == 1 or (k - 1) / n < t)


def test_join_keeps_a_pair_whose_overlap_is_exactly_the_minimum():
    # y is the 7 most frequent keys of x, so they sit last in x's global
    # order: a prefix cut at ceil(0.28 * 25) = 8 would miss them
    x = np.arange(25, dtype=np.int64)
    y = np.arange(18, 25, dtype=np.int64)
    assert jaccard(frozenset(x.tolist()), frozenset(y.tolist())) == 7 / 25 >= 0.28
    assert _key_jaccard(x, y) == 7 / 25
    assert _join_candidates([x, y], 0.28) == [(0, 1)]


def test_join_prunes_a_planted_corpus_and_keeps_every_qualifying_pair():
    rng = random.Random(4)
    words = ["".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 8))) for _ in range(300)]
    texts = [" ".join(rng.choices(words, k=120)) for _ in range(40)]
    for b in range(0, 40, 8):
        tokens = texts[b].split(" ")
        tokens[rng.randrange(len(tokens))] = "planted"
        texts.append(" ".join(tokens))
    texts += ["", "", "abc"]
    sets = [shingles(t) for t in texts]
    keys = _shingle_keys(texts)
    assert [len(k) for k in keys] == [len(s) for s in sets]
    n = len(sets)
    candidates = _join_candidates(keys, 0.95)
    qualifying = {
        (i, j) for i in range(n) for j in range(i + 1, n) if jaccard(sets[i], sets[j]) >= 0.95
    }
    assert len(qualifying) == 6  # five planted edits and the two empty texts
    assert qualifying <= set(candidates)
    assert len(candidates) < n * (n - 1) // 2
    assert len(candidates) < n  # on this corpus, far fewer than all pairs
    assert candidates == sorted(set(candidates))


@pytest.fixture
def shingle_calls(monkeypatch):
    """The texts passed to ``similarity.shingles``, which only the
    dict-numbered key path calls."""
    calls = []
    monkeypatch.setattr(
        importlib.import_module("xlingua.similarity"),
        "shingles",
        lambda text: calls.append(text) or shingles(text),
    )
    return calls


def _assert_keys_count_like_shingles(texts):
    keys = _shingle_keys(texts)
    sets = [shingles(t) for t in texts]
    for k, s in zip(keys, sets):
        assert k.dtype == np.int64 and len(k) == len(s)
        assert (np.diff(k) > 0).all()
    for i in range(len(texts)):
        for j in range(len(texts)):
            assert len(np.intersect1d(keys[i], keys[j])) == len(sets[i] & sets[j])
            assert _key_jaccard(keys[i], keys[j]) == jaccard(sets[i], sets[j])


def test_packed_keys_count_like_the_string_shingles(shingle_calls):
    texts = [
        "", "a", "ab", "abcd", "abcde", "abcdef", "bcdef", "abcd\0", "\0", "\0\0\0\0\0\0",
        "\ud800x\ud800x\ud800", "😀😁x😀😁x", "日本語日本語", "ñandú ñandú", "abab", "ababab",
    ]
    _assert_keys_count_like_shingles(texts)
    # 6,207 distinct code points, the most that packed keys take
    limit = "".join(chr(0x4E00 + i) for i in range(6207))
    _assert_keys_count_like_shingles([limit, limit[:3000] + limit[3001:], limit[::-1], ""])
    assert shingle_calls == []


def test_dedupe_numbers_string_shingles_above_6207_code_points(shingle_calls):
    base = "".join(chr(0x4E00 + i) for i in range(6208))
    edited = base[:3000] + "x" + base[3001:]
    texts = [base, edited, base[::-1], base[:4000], "日本", "", base, "x" * 10, "日本"]
    docs = [RawDocument(id=f"c{i}", lang="zh", text=t) for i, t in enumerate(texts)]
    for threshold in (0.95, 0.6, 1.0):
        shingle_calls.clear()
        kept, report = dedupe(docs, threshold)
        assert shingle_calls == texts  # one string shingle set per text, in id order
        want_kept, want_report = all_pairs_dedupe(docs, threshold)
        assert [d.id for d in kept] == [d.id for d in want_kept]
        assert report == want_report
    assert [(a, b) for a, b, _ in report] == [("c0", "c6"), ("c4", "c8")]
    _assert_keys_count_like_shingles(texts)


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


@pytest.mark.parametrize("bad", [0.0, -0.2, math.nan])
def test_length_model_constructor_rejects_what_set_rejects(bad):
    # unchecked, sigma 0 scored an equal-length same-language pair nan, and
    # find_most_similar then reported an empty candidate set
    with pytest.raises(ValidationError, match="finite and positive"):
        LengthModel(same_lang_sigma=bad)
    for pair in ((1.1, bad), (bad, 0.05)):
        with pytest.raises(ValidationError, match="finite and positive"):
            LengthModel(pairs={("en", "es"): (1.0, 0.1), ("es", "en"): pair})
    q = DocRecord(DescriptorVector("q", "en", {1: 1.0}), 100)
    c = DocRecord(DescriptorVector("c", "en", {1: 1.0}), 100)
    opts = SimilarityOptions()
    match = find_most_similar(q, [c], opts, LengthModel(same_lang_sigma=0.2))
    assert [m.final_score for m in match] == [opts.same_language_bias]


def test_a_length_model_changes_only_through_set():
    # a direct write used to skip the check: sigma nan or 0 made the score nan
    m = LengthModel()
    with pytest.raises(TypeError):
        m.pairs[("en", "es")] = (1.0, math.nan)
    with pytest.raises(AttributeError):
        m.same_lang_sigma = 0.0
    with pytest.raises(AttributeError):
        m.pairs = {}
    m.set("en", "es", 1.1, 0.2)
    assert m.pairs == {("en", "es"): (1.1, 0.2)} and m.same_lang_sigma == 0.2
    with pytest.raises(ValidationError, match="finite and positive"):
        m.set("en", "es", 1.0, math.nan)
    assert m.get("en", "es") == (1.1, 0.2)


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(xlingua.__path__)))
def test_package_attribute_is_the_submodule(name):
    module = importlib.import_module(f"xlingua.{name}")
    assert getattr(xlingua, name) is module
