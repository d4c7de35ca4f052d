import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xlingua.profiles as profiles_module
from xlingua.errors import ParseError, ValidationError
from xlingua.kernels import g2_batch
from xlingua.normalize import NormalizedDocument
from xlingua.profiles import (
    IDF_LOG_N_OVER_DF,
    IDF_LOG_N_OVER_DF_PLUS_ONE,
    AssociateProfile,
    ProfileSet,
    TrainingConfig,
    idf,
    load_profiles,
    save_profiles,
    train_profiles,
)
from xlingua.thesaurus import Descriptor, Thesaurus


def doc(doc_id, codes, **lemmas):
    return NormalizedDocument(
        id=doc_id,
        lang="en",
        lemma_freq=dict(lemmas),
        char_length=100,
        token_count=sum(lemmas.values()),
        manual_descriptors=frozenset(codes),
    )


def flat_thesaurus(n):
    return Thesaurus(
        descriptors={
            c: Descriptor(c, {"en": f"T{c}"}, frozenset(), frozenset(), frozenset(), 1, 1)
            for c in range(1, n + 1)
        },
        languages=("en",),
    )


def oracle_g2(k11, k12, k21, k22):
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
        if obs > 0:
            g += obs * math.log(obs * total / (row * col))
    return max(2.0 * g, 0.0)


def test_idf_variants():
    assert idf(10, 100, "log_n_over_df") == pytest.approx(math.log(10.0))
    assert idf(10, 100, "log_n_over_df_plus_one") == pytest.approx(math.log(100 / 11) + 1.0)
    with pytest.raises(ValidationError):
        idf(10, 100, "bogus")


def make_training_corpus():
    # descriptor 1 docs talk about fish, descriptor 2 docs about steel;
    # "the" is everywhere and should never win a profile slot.
    corpus = []
    for i in range(4):
        corpus.append(doc(f"f{i}", {1}, fish=6, net=3, the=5))
        corpus.append(doc(f"s{i}", {2}, steel=6, furnace=3, the=5))
    return corpus


def test_train_profiles_selects_topical_lemmas():
    ps = train_profiles(make_training_corpus(), flat_thesaurus(2))
    lemmas1 = [lm for lm, _ in ps.profiles[1].associates]
    lemmas2 = [lm for lm, _ in ps.profiles[2].associates]
    assert "fish" in lemmas1 and "net" in lemmas1
    assert "steel" in lemmas2 and "furnace" in lemmas2
    assert "the" not in lemmas1 and "the" not in lemmas2
    assert "steel" not in lemmas1  # negatively associated


def test_train_profiles_weights_non_increasing_and_capped():
    config = TrainingConfig(max_associates=1)
    ps = train_profiles(make_training_corpus(), flat_thesaurus(2), config)
    for profile in ps.profiles.values():
        weights = [w for _, w in profile.associates]
        assert len(weights) <= 1
        assert all(w > 0 for w in weights)
        assert weights == sorted(weights, reverse=True)


def test_train_profiles_min_doc_freq_filter():
    corpus = make_training_corpus()
    # "rare" appears in a single subset document
    corpus[0] = doc("f0", {1}, fish=6, net=3, the=5, rare=4)
    ps = train_profiles(corpus, flat_thesaurus(2))
    assert "rare" not in [lm for lm, _ in ps.profiles[1].associates]


def test_train_profiles_weight_is_g2_times_idf():
    ps = train_profiles(make_training_corpus(), flat_thesaurus(2))
    # "fish" under descriptor 1: 24 of the subset's 56 tokens, none of the
    # other 56; it occurs in 4 of the 8 documents
    want = oracle_g2(24, 32, 0, 56) * idf(4, 8, "log_n_over_df_plus_one")
    got = dict(ps.profiles[1].associates)["fish"]
    assert got == pytest.approx(want, rel=1e-12)


def reference_train_profiles(corpus, thesaurus, config=None):
    """train_profiles as dict loops over lemma strings: the exact reference."""
    config = config or TrainingConfig()
    docs = list(corpus)
    if not docs:
        raise ValidationError("empty training corpus")
    if len({d.lang for d in docs}) != 1:
        raise ValidationError("training corpus mixes languages")
    lang = docs[0].lang
    doc_freq, global_counts, doc_totals = {}, {}, []
    for doc in docs:
        doc_totals.append(sum(doc.lemma_freq.values()))
        for lemma, cnt in doc.lemma_freq.items():
            doc_freq[lemma] = doc_freq.get(lemma, 0) + 1
            global_counts[lemma] = global_counts.get(lemma, 0) + cnt
    grand_total = sum(doc_totals)
    by_descriptor = {}
    for i, doc in enumerate(docs):
        for code in doc.manual_descriptors or ():
            by_descriptor.setdefault(code, []).append(i)
    profiles = {}
    for code in sorted(thesaurus.descriptors):
        doc_idxs = by_descriptor.get(code)
        if not doc_idxs:
            continue
        subset_counts, subset_df, subset_total = {}, {}, 0
        for i in doc_idxs:
            subset_total += doc_totals[i]
            for lemma, cnt in docs[i].lemma_freq.items():
                subset_counts[lemma] = subset_counts.get(lemma, 0) + cnt
                subset_df[lemma] = subset_df.get(lemma, 0) + 1
        candidates = sorted(lm for lm, df in subset_df.items() if df >= config.min_doc_freq)
        if not candidates:
            continue
        k11 = np.array([subset_counts[lm] for lm in candidates], dtype=np.float64)
        k12 = subset_total - k11
        k21 = np.array([global_counts[lm] for lm in candidates], dtype=np.float64) - k11
        k22 = (grand_total - subset_total) - k21
        g2 = g2_batch(k11, k12, k21, k22)
        positive = k11 * grand_total > (k11 + k21) * subset_total
        keep = (g2 >= config.g2_threshold) & positive
        scored = [
            (g2[i] * idf(doc_freq[candidates[i]], len(docs), config.idf_variant), candidates[i])
            for i in np.nonzero(keep)[0]
        ]
        scored = [(w, lm) for w, lm in scored if w > 0]
        if not scored:
            continue
        scored.sort(key=lambda wl: (-wl[0], wl[1]))
        associates = [(lm, w) for w, lm in scored[: config.max_associates]]
        profiles[code] = AssociateProfile.from_associates(code, lang, associates)
    if not profiles:
        raise ValidationError("no descriptor has any training document with surviving associates")
    return ProfileSet(lang=lang, profiles=profiles, n_docs=len(docs))


# short lemmas, so documents share them; non-ASCII ones sort after ASCII
_LEMMAS = ["a", "b", "ab", "z", "é", "ß", "Ω", "ñu", "日本"]


@st.composite
def training_corpora(draw):
    n_docs = draw(st.integers(min_value=1, max_value=12))
    # a twin lemma always has the counts of "a", so their weights tie
    twin = draw(st.booleans())
    docs = []
    for i in range(n_docs):
        lemma_freq = draw(st.dictionaries(st.sampled_from(_LEMMAS), st.integers(1, 4), max_size=6))
        lemma_freq.pop("ß", None)
        if twin and "a" in lemma_freq:
            lemma_freq["ß"] = lemma_freq["a"]
        # codes 1-4 are in the thesaurus, 9 is not; None is an unindexed document
        codes = draw(st.none() | st.frozensets(st.sampled_from([1, 2, 3, 4, 9]), max_size=3))
        docs.append(
            NormalizedDocument(
                id=f"d{i}", lang="en", lemma_freq=lemma_freq, char_length=10,
                token_count=sum(lemma_freq.values()), manual_descriptors=codes,
            )
        )
    # a repeated document ties the weights of its lemmas
    if draw(st.booleans()):
        docs += docs[: draw(st.integers(1, n_docs))]
    config = TrainingConfig(
        min_doc_freq=draw(st.integers(1, 4)),
        g2_threshold=draw(st.sampled_from([0.0, 0.5, 3.84])),
        max_associates=draw(st.integers(1, 4)),
        idf_variant=draw(st.sampled_from([IDF_LOG_N_OVER_DF, IDF_LOG_N_OVER_DF_PLUS_ONE])),
    )
    return docs, config


@given(training_corpora())
@settings(deadline=None, max_examples=300)
def test_train_profiles_equals_the_dict_loop_reference(corpus):
    docs, config = corpus
    try:
        want = reference_train_profiles(docs, flat_thesaurus(4), config)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=re.escape(str(exc))):
            train_profiles(docs, flat_thesaurus(4), config)
        return
    # the corpus counts are summed in blocks of rows; 3-row blocks split
    # these small corpora too
    for block_rows in (profiles_module._BINCOUNT_ROWS, 3):
        with mock.patch.object(profiles_module, "_BINCOUNT_ROWS", block_rows):
            got = train_profiles(docs, flat_thesaurus(4), config)
        assert list(got.profiles) == list(want.profiles)
        for code, profile in want.profiles.items():
            # tuples of floats: weights and norms are equal to the last bit
            assert got.profiles[code] == profile
        assert (got.lang, got.n_docs) == (want.lang, want.n_docs)


def test_train_profiles_rejects_mixed_languages():
    corpus = make_training_corpus()
    bad = NormalizedDocument(
        id="x", lang="es", lemma_freq={"pez": 1}, char_length=10,
        token_count=1, manual_descriptors=frozenset({1}),
    )
    with pytest.raises(ValidationError):
        train_profiles(corpus + [bad], flat_thesaurus(2))


def test_profile_norm_matches_weights():
    p = AssociateProfile.from_associates(1, "en", [("a", 3.0), ("b", 4.0)])
    assert p.norm == pytest.approx(5.0)


@given(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=50))
@settings(deadline=None)
def test_idf_monotone_in_df(n_extra, df):
    n_docs = df + n_extra
    # adding a document that holds the lemma never raises its idf
    assert idf(df, n_docs) >= idf(df + 1, n_docs + 1)
    # rarer lemmas never get a smaller idf within a fixed corpus
    if df + 1 <= n_docs:
        assert idf(df, n_docs) >= idf(df + 1, n_docs)


def test_save_load_round_trip(tmp_path):
    ps = train_profiles(make_training_corpus(), flat_thesaurus(2))
    p1 = tmp_path / "a.prof"
    p2 = tmp_path / "b.prof"
    save_profiles(ps, str(p1))
    loaded = load_profiles(str(p1))
    save_profiles(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.lang == ps.lang
    assert set(loaded.profiles) == set(ps.profiles)
    for code, profile in ps.profiles.items():
        got = loaded.profiles[code]
        assert [lm for lm, _ in got.associates] == [lm for lm, _ in profile.associates]
        # weights are serialized at 6 decimals, so the recomputed norm
        # matches only up to that quantization
        assert got.norm == pytest.approx(profile.norm, rel=1e-6)


def test_training_is_deterministic(tmp_path):
    paths = []
    for name in ("x", "y"):
        ps = train_profiles(make_training_corpus(), flat_thesaurus(2))
        path = tmp_path / name
        save_profiles(ps, str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


_HEADER = "PROFILESET en 10\n"


@pytest.mark.parametrize(
    "text, where",
    [
        (_HEADER + "P 1\nA a 2.000000\nP 1\nA b 1.000000\n", ":4"),  # repeated block
        (_HEADER + "P 1\nA a nan\n", ":3"),
        (_HEADER + "P 1\nA a inf\n", ":3"),
        (_HEADER + "P 1\nA a -1.000000\n", ":3"),
        (_HEADER + "P 1\nA a 1.000000\nA b 1.500000\n", ":4"),  # increasing weights
        (_HEADER + "P 1\nA a 2.000000\nA a 1.000000\n", ":4"),  # repeated associate
        (_HEADER + "P 1\nA a 1.000000\nPROFILESET es 99\nP 2\nA b 1.000000\n", ":4"),
        ("PROFILESET en 0\nP 1\nA a 1.000000\n", ":1"),
        ("PROFILESET en -3\nP 1\nA a 1.000000\n", ":1"),
        (_HEADER + "P 1\nP 2\nA a 1.000000\n", ":2"),  # P 1 has no A line
        (_HEADER, ""),  # no P block: the file has no line to blame
        ("PROFILESET en 10 junk\nP 1\nA a 1.000000\n", ":1"),
        (_HEADER + "P 1\nA a 1.0 junk\n", ":3"),
        (_HEADER + "P -4\nA a 1.000000\n", ":2"),
    ],
    ids=[
        "repeated-code", "nan", "inf", "negative", "increasing", "repeated-lemma",
        "second-header", "zero-docs", "negative-docs", "empty-block", "no-profile",
        "header-junk", "associate-junk", "negative-code",
    ],
)
def test_load_profiles_rejects_what_save_never_writes(tmp_path, text, where):
    path = tmp_path / "bad.prof"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=rf"bad\.prof{where}: "):
        load_profiles(str(path))


def test_a_profile_set_cannot_be_changed_once_built():
    from xlingua.assign import assign

    given = {1: AssociateProfile.from_associates(1, "en", [("fish", 2.0)])}
    ps = ProfileSet(lang="en", profiles=given, n_docs=3)
    given.clear()  # the set keeps its own copy
    query = NormalizedDocument(id="q", lang="en", lemma_freq={"fish": 1}, char_length=4, token_count=1)
    assert assign(query, ps).entries == {1: 1.0}
    with pytest.raises(AttributeError):
        ps.profiles.clear()
    with pytest.raises(TypeError):
        ps.profiles[2] = ps.profiles[1]
    with pytest.raises(AttributeError):
        ps.profiles = {}
    assert assign(query, ps).entries == {1: 1.0} and ps.csr()[1] == {"fish": 0}


def test_load_profiles_accepts_equal_consecutive_weights(tmp_path):
    path = tmp_path / "eq.prof"
    path.write_text("PROFILESET en 10\nP 1\nA a 1.000000\nA b 1.000000\n", encoding="utf-8")
    ps = load_profiles(str(path))
    assert ps.profiles[1].associates == (("a", 1.0), ("b", 1.0))


def test_save_load_round_trip_on_synthetic_profiles(tmp_path):
    """Both languages' trained profiles reload, including the equal
    neighbouring weights that rounding to 6 decimals produces."""
    from xlingua.harness import normalize_corpus
    from xlingua.synthesis import SyntheticSpec, generate_synthetic

    corpus = generate_synthetic(
        SyntheticSpec(n_descriptors=8, n_train_docs=60, n_test_pairs=4, vocab_size_per_lang=300)
    )
    train = normalize_corpus(corpus.train, corpus.resources)
    for side in (0, 1):
        ps = train_profiles([pair[side] for pair in train], corpus.thesaurus)
        p1, p2 = tmp_path / f"{side}a.prof", tmp_path / f"{side}b.prof"
        save_profiles(ps, str(p1))
        lines = p1.read_text(encoding="utf-8").splitlines()
        assert any(
            a.startswith("A ") and b.startswith("A ") and a.split()[2] == b.split()[2]
            for a, b in zip(lines, lines[1:])
        )
        save_profiles(load_profiles(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()
