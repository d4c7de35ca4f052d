import json
import random

import pytest

from xlingua.errors import ConfigError, ValidationError
from xlingua.harness import build_pipeline, normalize_corpus
from xlingua.similarity import estimate_length_model
from xlingua.synthesis import (
    SyntheticSpec,
    _class_plan,
    _test_plan,
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
    mu, sigma = estimate_length_model(normalize_corpus(corpus.train, corpus.resources))
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
