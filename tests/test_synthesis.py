import hashlib
import json
import math
import random

import pytest

from xlingua.errors import ConfigError, ValidationError
from xlingua.harness import build_pipeline
from xlingua.similarity import estimate_length_model
from xlingua.synthesis import (
    _STOPWORD_RATE,
    SyntheticSpec,
    _class_plan,
    _mix_weights,
    _sample_tokens,
    _stopwords,
    _test_plan,
    _word,
    generate_synthetic,
    write_corpus,
)

SMALL = dict(
    n_descriptors=8,
    n_train_docs=60,
    n_test_pairs=16,
    vocab_size_per_lang=300,
    rng_seed=11,
)


def test_spec_validation():
    with pytest.raises(ValidationError):
        SyntheticSpec(n_descriptors=0)
    with pytest.raises(ValidationError):
        SyntheticSpec(noise_rate=1.0)
    with pytest.raises(ValidationError):
        SyntheticSpec(src_lang="en", tgt_lang="en")
    with pytest.raises(ValidationError):
        SyntheticSpec(n_descriptors=50, vocab_size_per_lang=100)
    with pytest.raises(ValidationError):
        SyntheticSpec(max_topics_per_doc=0)


def test_spec_json_round_trip(tmp_path):
    spec = SyntheticSpec(**SMALL)
    path = tmp_path / "spec.json"
    spec.to_json(str(path))
    assert SyntheticSpec.from_json(str(path)) == spec
    # file is plain json with the field names
    assert json.loads(path.read_text())["n_descriptors"] == 8


@pytest.mark.parametrize(
    "text",
    [
        '{"n_descriptors": 8, "colour": "red"}',  # unknown key
        '{"n_descriptors": 8,',  # bad JSON
        "[8, 60]",  # not an object
        '{"n_descriptors": "8"}',  # wrong value type
        '{"n_descriptors": 8.0}',  # a count must be an integer
    ],
    ids=["unknown-key", "bad-json", "not-an-object", "wrong-type", "float-count"],
)
def test_spec_from_json_rejects_bad_files_with_config_error(tmp_path, text):
    path = tmp_path / "spec.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match="spec.json"):
        SyntheticSpec.from_json(str(path))


def test_spec_from_json_names_the_file_in_range_errors(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"n_descriptors": 0}', encoding="utf-8")
    with pytest.raises(ValidationError, match="spec.json: n_descriptors must be positive"):
        SyntheticSpec.from_json(str(path))


# No spec below is ever generated: the rejected ones would never finish.
@pytest.mark.parametrize(
    "kw",
    [
        dict(n_test_pairs=400),  # 344 length classes over 30 descriptors
        dict(n_descriptors=120, n_test_pairs=1600, vocab_size_per_lang=4000),
        dict(n_test_pairs=10**7),  # 1.35 ** n_classes overflows a float
        # 8 classes: 99,986 tokens at the top, 100,019 with the full +4 jitter
        dict(doc_length_mean=12_235.0),
    ],
)
def test_spec_rejects_length_geometry_beyond_the_token_cap(kw):
    with pytest.raises(ValidationError, match="length classes.*100,000 tokens"):
        SyntheticSpec(**kw)


@pytest.mark.parametrize(
    "kw",
    [
        dict(),
        dict(n_descriptors=120, n_train_docs=1200, n_test_pairs=400, vocab_size_per_lang=4000),
        dict(n_descriptors=120, n_test_pairs=410, vocab_size_per_lang=4000),
        dict(doc_length_mean=12_000.0),  # about 98,100 tokens at the top
    ],
)
def test_spec_accepts_default_and_scaled_geometry(kw):
    spec = SyntheticSpec(**kw)
    classes = {c for _, c in _test_plan(spec, random.Random(0))}
    assert classes == set(range(_class_plan(spec)[2])) == set(range(8))


# No spec below is ever generated.  Each used to be accepted and then end
# in a NaN or overflow traceback, or plan a target of about 2.5e8 tokens.
@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(doc_length_mean=math.nan), "doc_length_mean must be finite"),
        (dict(doc_length_std=math.nan), "doc_length_std must be finite"),
        (dict(target_length_inflation=math.nan), "target_length_inflation must be finite"),
        (dict(target_length_inflation=math.inf), "target_length_inflation must be finite"),
        (dict(length_ratio_std=1e308), "longest target document more than 200,000 tokens"),
        (dict(target_length_inflation=1e6), "longest target document more than 200,000 tokens"),
        (dict(noise_rate=math.nan), "noise_rate must be finite"),
    ],
    ids=[
        "nan-length-mean",
        "nan-length-std",
        "nan-inflation",
        "infinite-inflation",
        "overflowing-ratio-std",
        "huge-inflation",
        "nan-noise-rate",
    ],
)
def test_spec_rejects_non_finite_and_overflowing_values(kw, message):
    with pytest.raises(ValidationError, match=message):
        SyntheticSpec(**kw)


def test_target_cap_applies_to_the_top_of_the_ratio_band():
    # longest source 98,098 tokens; a top ratio of 1.95 + sqrt(3) * 0.05
    # plans a 199,788-token target, 1.96 one of 200,769
    SyntheticSpec(doc_length_mean=12_000.0, target_length_inflation=1.95)
    with pytest.raises(ValidationError, match="200,000 tokens"):
        SyntheticSpec(doc_length_mean=12_000.0, target_length_inflation=1.96)


# No spec below is ever generated.  Each used to be accepted, and every
# target drawn below ratio 0 came out at the 30-token floor.
@pytest.mark.parametrize(
    "kw",
    [
        dict(length_ratio_std=1.0),  # bottom 1.135 - 1.7321 = -0.597
        dict(length_ratio_std=0.7),  # bottom 1.135 - 1.2124 = -0.077
        dict(target_length_inflation=math.sqrt(3), length_ratio_std=1.0),  # bottom exactly 0
    ],
)
def test_spec_rejects_a_ratio_band_reaching_zero(kw):
    with pytest.raises(ValidationError, match="length ratio band.*at or below 0"):
        SyntheticSpec(**kw)


def test_ratio_band_just_above_zero_is_accepted():
    # bottom 1.135 - sqrt(3) * 0.65 = 0.0092
    SyntheticSpec(length_ratio_std=0.65)


def test_spec_from_json_names_the_file_in_geometry_errors(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"n_test_pairs": 400}', encoding="utf-8")
    with pytest.raises(ValidationError, match="spec.json: 400 test pairs over 30 descriptors"):
        SyntheticSpec.from_json(str(path))


def test_generation_is_deterministic():
    a = generate_synthetic(SyntheticSpec(**SMALL))
    b = generate_synthetic(SyntheticSpec(**SMALL))
    assert [(s.text, t.text) for s, t in a.test.pairs] == [
        (s.text, t.text) for s, t in b.test.pairs
    ]
    assert [(s.id, t.id) for s, t in a.train.pairs] == [
        (s.id, t.id) for s, t in b.train.pairs
    ]


def test_seed_changes_output():
    a = generate_synthetic(SyntheticSpec(**SMALL))
    b = generate_synthetic(SyntheticSpec(**{**SMALL, "rng_seed": 12}))
    assert a.test.pairs[0][0].text != b.test.pairs[0][0].text


def test_corpus_shape_and_ids():
    corpus = generate_synthetic(SyntheticSpec(**SMALL))
    assert len(corpus.train) == 60
    assert len(corpus.test) == 16
    ids = [d.id for s, t in corpus.test.pairs for d in (s, t)]
    assert len(set(ids)) == len(ids)
    for src, tgt in corpus.test.pairs:
        assert src.lang == "en" and tgt.lang == "es"
        assert src.id.rsplit("-", 1)[0] == tgt.id.rsplit("-", 1)[0]


def test_training_docs_are_labelled_with_one_to_four_descriptors():
    corpus = generate_synthetic(SyntheticSpec(**SMALL))
    for src, tgt in corpus.train.pairs:
        assert src.manual_descriptors == tgt.manual_descriptors
        assert 1 <= len(src.manual_descriptors) <= 4


def test_vocabularies_are_disjoint():
    corpus = generate_synthetic(SyntheticSpec(**SMALL))
    en = {tok for s, _ in corpus.train.pairs for tok in s.text.split()}
    es = {tok for _, t in corpus.train.pairs for tok in t.text.split()}
    assert not en & es


def test_single_topic_no_noise_pairs_agree_on_argmax():
    """With noise off and one descriptor per doc, both sides of each pair
    assign the same top descriptor."""
    spec = SyntheticSpec(**{**SMALL, "noise_rate": 0.0, "max_topics_per_doc": 1})
    pipe = build_pipeline(generate_synthetic(spec))
    for src, tgt in zip(pipe.src_records, pipe.tgt_records):
        assert src.vector.ranked()[0][0] == tgt.vector.ranked()[0][0]


def test_length_model_recovery():
    # >=200 pairs: the estimated mean ratio lands within 0.02 of the target
    spec = SyntheticSpec(n_train_docs=250)
    corpus = generate_synthetic(spec)
    mu, sigma = estimate_length_model(corpus.train.pairs)
    assert mu == pytest.approx(1.135, abs=0.02)
    assert sigma > 0


def test_write_corpus_is_loadable(tmp_path):
    from xlingua.normalize import load_language_resources, read_manifest
    from xlingua.thesaurus import load_thesaurus

    corpus = generate_synthetic(SyntheticSpec(**SMALL))
    out = tmp_path / "corpus"
    write_corpus(corpus, str(out))

    thesaurus = load_thesaurus(str(out / "thesaurus.txt"))
    assert set(thesaurus.descriptors) == set(corpus.thesaurus.descriptors)

    res = load_language_resources(str(out / "resources"), "en")
    assert res.stopwords == corpus.resources["en"].stopwords

    train = read_manifest(str(out / "train_manifest.tsv"))
    assert len(train) == 2 * len(corpus.train)
    by_id = {d.id: d for d in train}
    for src, tgt in corpus.train.pairs:
        assert by_id[src.id].text == src.text
        assert by_id[src.id].manual_descriptors == src.manual_descriptors

    test = read_manifest(str(out / "test_manifest.tsv"))
    assert len(test) == 2 * len(corpus.test)


def _corpus_digest(corpus) -> str:
    h = hashlib.sha256()
    for pairs in (corpus.train.pairs, corpus.test.pairs):
        for pair in pairs:
            for d in pair:
                labels = ",".join(map(str, sorted(d.manual_descriptors or ())))
                h.update(f"{d.id}\t{d.lang}\t{d.text}\t{labels}\n".encode("utf-8"))
    return h.hexdigest()


# sha256 of every document (id, language, text, sorted labels; training
# pairs, then test pairs), as the plain random.choices/randrange loop
# generated them on CPython 3.11.  Generation must never change one byte.
PINNED_CORPORA = [
    (dict(), "eb2bb0ac4048699edcc7ffc722a3ecde51fc4ce554dd413291fe4d9c955365b5"),
    (
        dict(n_descriptors=120, n_train_docs=1200, n_test_pairs=400, vocab_size_per_lang=4000),
        "801300be72ab9cfa016d185e5d51bcfd8567547987b81621a31a39b572d75217",
    ),
    (
        dict(
            n_descriptors=120,
            n_train_docs=100,
            n_test_pairs=1,
            vocab_size_per_lang=4000,
            rng_seed=1,
        ),
        "c84dd9dab9fd7b59d7b85dda1f216f313ae080d3f3af1c9010e86e7f90ebff1b",
    ),
]
PINNED_IDS = ["default", "x4", "perfbench-dedupe"]


@pytest.mark.parametrize("kw, digest", PINNED_CORPORA, ids=PINNED_IDS)
def test_corpus_bytes_are_pinned(kw, digest):
    assert _corpus_digest(generate_synthetic(SyntheticSpec(**kw))) == digest


def _plain_sample_tokens(spec, lang, codes, weights, n_tokens, rng):
    """The reference loop: one random.choices/randrange call per token."""
    lpd = spec.lemmas_per_descriptor
    stop = _stopwords(lang)
    tokens = []
    for _ in range(n_tokens):
        if rng.random() < spec.noise_rate:
            idx = rng.randrange(spec.n_descriptors * lpd, spec.vocab_size_per_lang)
        else:
            code = rng.choices(codes, weights=weights, k=1)[0]
            idx = (code - 1) * lpd + rng.randrange(lpd)
        tokens.append(_word(lang, idx))
        if rng.random() < _STOPWORD_RATE:
            tokens.append(rng.choice(stop))
    return tokens


@pytest.mark.parametrize(
    "kw",
    [
        dict(),
        dict(noise_rate=0.0, lemmas_per_descriptor=1),  # 1-bit draws, never noise
        # 64 background words (an exact power of two) and 16 lemmas per block
        dict(noise_rate=0.9, lemmas_per_descriptor=16, n_descriptors=4, vocab_size_per_lang=128,
             n_test_pairs=4),
        dict(lemmas_per_descriptor=33, n_descriptors=9, vocab_size_per_lang=4096, n_test_pairs=8),
    ],
)
def test_sample_tokens_draws_like_the_plain_random_calls(kw):
    spec = SyntheticSpec(**kw)
    words = {"en": tuple(_word("en", i) for i in range(spec.vocab_size_per_lang))}
    topics = random.Random(5)
    for seed in range(20):
        n = topics.randint(1, min(4, spec.n_descriptors))
        codes = tuple(sorted(topics.sample(range(1, spec.n_descriptors + 1), n)))
        # unnormalised weights too: choices() scales by their total
        weights = tuple(w * (seed + 1) for w in _mix_weights(n, topics))
        fast_rng, plain_rng = random.Random(seed), random.Random(seed)
        fast = _sample_tokens(spec, "en", words, codes, weights, 300, fast_rng)
        assert fast == _plain_sample_tokens(spec, "en", codes, weights, 300, plain_rng)
        assert fast_rng.getstate() == plain_rng.getstate()
