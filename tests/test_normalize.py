from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from xlingua.errors import ParseError, ValidationError
from xlingua.normalize import (
    _TOKEN_RE,
    COMPOUND_JOINER,
    LanguageResources,
    RawDocument,
    load_language_resources,
    normalize,
    read_manifest,
    tokenize,
)


def test_tokenize_lowercases_and_splits_on_punctuation():
    assert tokenize("The EU's budget, 2004!") == ["the", "eu", "s", "budget", "2004"]


def test_tokenize_keeps_unicode_words():
    assert tokenize("Comisión Européenne") == ["comisión", "européenne"]


@given(st.text())
def test_tokenize_never_emits_empty_tokens(text):
    assert all(tok for tok in tokenize(text))


# whitespace str.split() splits on, letters and digits, the regex's one word
# character that is not alphanumeric, a combining mark, a letter whose
# lowercase adds a combining mark, and a digit that is not decimal
_SPACES = " \t\n\x1c\x1d\x1e\x1f\xa0\u3000\u2028"
_WORDS = "aZ9éß\u4e00\u0661"
_TRICKY = "_,\u0301\u0130\xb2"


@given(
    st.text(alphabet=_SPACES + _WORDS)
    | st.text(alphabet=st.sampled_from(_SPACES + _WORDS + _TRICKY) | st.characters())
)
@example(" two  spaces ")
@example("a\x1cb\x1fc")
@example("no\xa0break\u3000ideographic space")
@example("snake_case")
@example("cafe\u0301")
@example("\u0130stanbul")
@example("x\xb2 \xb2")
@example("The EU's budget, 2004! is (mostly) spent")
def test_tokenize_matches_the_regex(text):
    """Matching whitespace pieces one by one gives exactly the regex's tokens."""
    assert tokenize(text) == _TOKEN_RE.findall(text.lower())


def test_normalize_pipeline_order():
    """Lemmatization happens before compound joining and stopword removal."""
    res = LanguageResources(
        lang="en",
        stopwords=frozenset({"the"}),
        lemma_lexicon={"fisheries": "fishery", "policies": "policy"},
        compounds=(("fishery", "policy"),),
    )
    doc = RawDocument(id="d1", lang="en", text="The fisheries policies report")
    norm = normalize(doc, res)
    assert norm.lemma_freq == {"fishery_policy": 1, "report": 1}
    assert norm.token_count == 4
    assert norm.char_length == len(doc.text)


def test_normalize_longest_compound_wins():
    res = LanguageResources(
        lang="en",
        compounds=(("a", "b"), ("a", "b", "c")),
    )
    norm = normalize(RawDocument(id="d", lang="en", text="a b c"), res)
    assert norm.lemma_freq == {"a_b_c": 1}


def reference_normalize(doc, res):
    """normalize as a regex, a per-document compound index and a filtered Counter."""
    tokens = _TOKEN_RE.findall(doc.text.lower())
    lemmas = [res.lemma_lexicon.get(tok, tok) for tok in tokens]
    if res.compounds:
        by_first = {}
        for seq in res.compounds:
            by_first.setdefault(seq[0], []).append(tuple(seq))
        for seqs in by_first.values():
            seqs.sort(key=len, reverse=True)
        out, i = [], 0
        while i < len(lemmas):
            for seq in by_first.get(lemmas[i], ()):
                if tuple(lemmas[i : i + len(seq)]) == seq:
                    out.append(COMPOUND_JOINER.join(seq))
                    i += len(seq)
                    break
            else:
                out.append(lemmas[i])
                i += 1
        lemmas = out
    counts = Counter(lm for lm in lemmas if lm not in res.stopwords)
    return dict(counts), len(tokens)


# compounds that overlap: shared first lemmas, nested and chained sequences
_OVERLAPPING = LanguageResources(
    lang="en",
    stopwords=frozenset({"the", "of", "b"}),
    lemma_lexicon={"fish": "fishery", "bs": "b", "cs": "c"},
    compounds=(("a", "b"), ("a", "b", "c"), ("b", "c"), ("c", "a"), ("fishery", "policy")),
)
_PLAIN = LanguageResources(lang="en", stopwords=frozenset({"the"}))


@given(
    st.lists(
        st.lists(
            st.sampled_from(["a", "b", "c", "bs", "cs", "the", "of", "fish", "policy", "Ñu", "x_y", "A,"]),
            max_size=30,
        ).map(" ".join),
        min_size=1,
        max_size=40,
    )
)
def test_normalize_matches_the_reference_on_many_documents(texts):
    """One resources object serves every document; counts keep their order."""
    for res in (_OVERLAPPING, _PLAIN):
        for i, text in enumerate(texts):
            doc = RawDocument(id=f"d{i}", lang="en", text=text)
            norm = normalize(doc, res)
            lemma_freq, token_count = reference_normalize(doc, res)
            assert list(norm.lemma_freq.items()) == list(lemma_freq.items())
            assert norm.token_count == token_count


def test_normalize_language_mismatch():
    res = LanguageResources(lang="en")
    with pytest.raises(ValidationError):
        normalize(RawDocument(id="d", lang="es", text="hola"), res)


def test_char_length_ignores_resources():
    text = "the the the"
    plain = normalize(RawDocument(id="d", lang="en", text=text), LanguageResources(lang="en"))
    filtered = normalize(
        RawDocument(id="d", lang="en", text=text),
        LanguageResources(lang="en", stopwords=frozenset({"the"})),
    )
    assert plain.char_length == filtered.char_length == len(text)
    assert filtered.lemma_freq == {}


def test_empty_id_rejected():
    with pytest.raises(ValidationError):
        RawDocument(id="", lang="en", text="x")


def test_load_language_resources(tmp_path):
    d = tmp_path / "en"
    d.mkdir()
    (d / "stopwords.txt").write_text("the\nof\n", encoding="utf-8")
    (d / "lexicon.tsv").write_text("went\tgo\n", encoding="utf-8")
    (d / "compounds.txt").write_text("common market\n", encoding="utf-8")
    res = load_language_resources(str(tmp_path), "en")
    assert res.stopwords == frozenset({"the", "of"})
    assert res.lemma_lexicon == {"went": "go"}
    assert res.compounds == (("common", "market"),)


def test_load_language_resources_missing_files_are_empty(tmp_path):
    res = load_language_resources(str(tmp_path), "xx")
    assert res.stopwords == frozenset()
    assert res.lemma_lexicon == {}
    assert res.compounds == ()


def test_bad_lexicon_line(tmp_path):
    d = tmp_path / "en"
    d.mkdir()
    (d / "lexicon.tsv").write_text("no tab here\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_language_resources(str(tmp_path), "en")


def test_read_manifest(tmp_path):
    (tmp_path / "doc1.txt").write_text("hello world", encoding="utf-8")
    (tmp_path / "doc2.txt").write_text("hola mundo", encoding="utf-8")
    manifest = tmp_path / "m.tsv"
    manifest.write_text(
        "# corpus\nd1\ten\tdoc1.txt\t1,2\nd2\tes\tdoc2.txt\t\n",
        encoding="utf-8",
    )
    docs = read_manifest(str(manifest))
    assert [d.id for d in docs] == ["d1", "d2"]
    assert docs[0].manual_descriptors == frozenset({1, 2})
    assert docs[1].manual_descriptors is None
    assert docs[1].text == "hola mundo"


def test_read_manifest_duplicate_id(tmp_path):
    (tmp_path / "a.txt").write_text("x", encoding="utf-8")
    manifest = tmp_path / "m.tsv"
    manifest.write_text("d1\ten\ta.txt\t\nd1\ten\ta.txt\t\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        read_manifest(str(manifest))


def test_read_manifest_non_integer_code_is_a_parse_error(tmp_path):
    (tmp_path / "a.txt").write_text("x", encoding="utf-8")
    manifest = tmp_path / "m.tsv"
    manifest.write_text("# header\na\ten\ta.txt\t1,x\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"m\.tsv:2: "):
        read_manifest(str(manifest))
