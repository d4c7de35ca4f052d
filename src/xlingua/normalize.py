"""Text normalization: tokenize, lemmatize, mark compounds, drop stopwords.

The pipeline is deliberately dumb and language-independent: lemmatization
is a lexicon lookup with identity fallback, compounds are joined greedily
longest-match over the lemma sequence, and "length" always means the
character count of the raw text.
"""

from __future__ import annotations

import os
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from xlingua.errors import ParseError, ValidationError, open_text

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

COMPOUND_JOINER = "_"


@dataclass(frozen=True)
class LanguageResources:
    lang: str
    stopwords: frozenset[str] = frozenset()
    lemma_lexicon: dict[str, str] = field(default_factory=dict)
    compounds: tuple[tuple[str, ...], ...] = ()

    @cached_property
    def _compound_index(self) -> dict[str, list[tuple[str, ...]]]:
        """Compounds by first lemma, longest first; built once, not per document."""
        by_first: dict[str, list[tuple[str, ...]]] = {}
        for seq in self.compounds:
            by_first.setdefault(seq[0], []).append(tuple(seq))
        for seqs in by_first.values():
            seqs.sort(key=len, reverse=True)
        return by_first


@dataclass(frozen=True)
class RawDocument:
    id: str
    lang: str
    text: str
    manual_descriptors: frozenset[int] | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("document id must be nonempty")

    @property
    def char_length(self) -> int:
        return len(self.text)


@dataclass(frozen=True)
class NormalizedDocument:
    id: str
    lang: str
    lemma_freq: dict[str, int]
    char_length: int
    token_count: int
    manual_descriptors: frozenset[int] | None = None


def tokenize(text: str) -> list[str]:
    """Lowercased maximal runs of letters/digits; punctuation discarded."""
    # str.isalnum() and the class [^\W_] agree on every code point, and no
    # whitespace is alphanumeric: a run never crosses a whitespace piece, and
    # an all-alphanumeric piece is one run
    tokens: list[str] = []
    for piece in text.lower().split():
        if piece.isalnum():
            tokens.append(piece)
        else:
            tokens += _TOKEN_RE.findall(piece)
    return tokens


def _join_compounds(lemmas: list[str], res: LanguageResources) -> list[str]:
    if not res.compounds:
        return lemmas
    by_first = res._compound_index
    out: list[str] = []
    i = 0
    n = len(lemmas)
    while i < n:
        matched = False
        for seq in by_first.get(lemmas[i], ()):
            k = len(seq)
            if i + k <= n and tuple(lemmas[i : i + k]) == seq:
                out.append(COMPOUND_JOINER.join(seq))
                i += k
                matched = True
                break
        if not matched:
            out.append(lemmas[i])
            i += 1
    return out


def normalize(doc: RawDocument, res: LanguageResources) -> NormalizedDocument:
    """Run the full normalization pipeline on one document.

    Order: tokenize, lemmatize (lexicon lookup, identity fallback), greedy
    longest-match compound joining, stopword removal, frequency counting.
    """
    if doc.lang != res.lang:
        raise ValidationError(
            f"document {doc.id}: language {doc.lang!r} does not match resources {res.lang!r}"
        )
    tokens = tokenize(doc.text)
    lexicon = res.lemma_lexicon
    lemmas = [lexicon.get(tok, tok) for tok in tokens] if lexicon else tokens
    lemmas = _join_compounds(lemmas, res)
    # counted before the stopwords go: deleting keys keeps the remaining
    # lemmas in first-occurrence order
    counts = Counter(lemmas)
    for lm in counts.keys() & res.stopwords:
        del counts[lm]
    return NormalizedDocument(
        id=doc.id,
        lang=doc.lang,
        lemma_freq=dict(counts),
        char_length=doc.char_length,
        token_count=len(tokens),
        manual_descriptors=doc.manual_descriptors,
    )


def load_language_resources(resource_dir: str, lang: str) -> LanguageResources:
    """Load stopwords/lexicon/compounds for one language.

    Expects ``<resource_dir>/<lang>/stopwords.txt`` (one lemma per line),
    ``lexicon.tsv`` (surface<TAB>lemma) and ``compounds.txt`` (space
    separated lemma sequence per line).  Missing files mean empty
    resources.
    """
    base = os.path.join(resource_dir, lang)
    stopwords: set[str] = set()
    lexicon: dict[str, str] = {}
    compounds: list[tuple[str, ...]] = []

    sw_path = os.path.join(base, "stopwords.txt")
    if os.path.exists(sw_path):
        with open_text(sw_path) as fh:
            stopwords = {line.strip() for line in fh if line.strip()}

    lex_path = os.path.join(base, "lexicon.tsv")
    if os.path.exists(lex_path):
        with open_text(lex_path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ParseError(f"{lex_path}:{lineno}: expected surface<TAB>lemma")
                lexicon[parts[0]] = parts[1]

    cmp_path = os.path.join(base, "compounds.txt")
    if os.path.exists(cmp_path):
        with open_text(cmp_path) as fh:
            for lineno, line in enumerate(fh, start=1):
                seq = tuple(line.split())
                if not seq:
                    continue
                if len(seq) < 2:
                    raise ParseError(f"{cmp_path}:{lineno}: compound needs at least 2 lemmas")
                compounds.append(seq)

    return LanguageResources(
        lang=lang,
        stopwords=frozenset(stopwords),
        lemma_lexicon=lexicon,
        compounds=tuple(compounds),
    )


def read_manifest(path: str) -> Iterator[RawDocument]:
    """Read a corpus manifest: ``id<TAB>lang<TAB>path<TAB>codes`` per line.

    Document paths are resolved relative to the manifest location; the
    codes column is comma-separated and may be empty.  Documents are
    yielded one at a time, so a line is checked and its file read only
    when iteration reaches it.
    """
    base = os.path.dirname(os.path.abspath(path))
    seen: set[str] = set()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ParseError(f"{path}:{lineno}: expected 4 tab-separated fields")
            doc_id, lang, rel_path, codes_field = parts
            if doc_id in seen:
                raise ValidationError(f"{path}:{lineno}: duplicate document id {doc_id!r}")
            seen.add(doc_id)
            try:
                codes = (
                    frozenset(int(c) for c in codes_field.split(",") if c.strip())
                    if codes_field.strip()
                    else None
                )
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: descriptor codes {codes_field!r} are not comma-separated integers"
                ) from None
            doc_path = rel_path if os.path.isabs(rel_path) else os.path.join(base, rel_path)
            with open_text(doc_path) as doc_fh:
                text = doc_fh.read()
            yield RawDocument(id=doc_id, lang=lang, text=text, manual_descriptors=codes)
