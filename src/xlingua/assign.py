"""Map a normalized document to its top-K scored descriptors."""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping

import numpy as np

from xlingua.errors import ValidationError
from xlingua.kernels import csr_cosine_scores, ordered_sum
from xlingua.normalize import NormalizedDocument
from xlingua.profiles import ProfileSet

DEFAULT_TOP_K = 100


class DescriptorVector:
    """Sparse top-K descriptor representation of one document.

    The entries are held once, in the order given, as read-only int64
    ``codes`` and float64 ``weights``, and the norm is taken at
    construction.  No attribute can be set afterwards, so no score can
    be computed from stale entries.
    """

    __slots__ = ("doc_id", "lang", "codes", "weights", "_norm")

    def __init__(self, doc_id: str, lang: str, entries: Mapping[int, float]) -> None:
        n = len(entries)
        codes = np.fromiter(entries, dtype=np.int64, count=n)
        weights = np.fromiter(entries.values(), dtype=np.float64, count=n)
        if not np.isfinite(weights).all():
            raise ValidationError(f"document {doc_id}: descriptor weights must be finite")
        codes.flags.writeable = weights.flags.writeable = False
        # once per vector: every search takes the norm of every candidate
        norm = math.sqrt(ordered_sum(w * w for w in weights.tolist()))
        for name, value in zip(self.__slots__, (doc_id, lang, codes, weights, norm)):
            object.__setattr__(self, name, value)

    def _read_only(self, name: str, *_) -> None:
        raise AttributeError(f"DescriptorVector is read-only: cannot change {name!r}")

    __setattr__ = __delattr__ = _read_only

    def __repr__(self) -> str:
        return f"DescriptorVector({self.doc_id!r}, {self.lang!r}, {dict(self.entries)!r})"

    @property
    def entries(self) -> Mapping[int, float]:
        """Code to weight, read-only; built on each access, never cached."""
        return MappingProxyType(dict(zip(self.codes.tolist(), self.weights.tolist())))

    def ranked(self) -> list[tuple[int, float]]:
        """Entries sorted by descending score, ties by ascending code."""
        return sorted(self.entries.items(), key=lambda cs: (-cs[1], cs[0]))

    def norm(self) -> float:
        return self._norm


def assign(doc: NormalizedDocument, profiles: ProfileSet, k: int = DEFAULT_TOP_K) -> DescriptorVector:
    """Score the document against every profile and keep the k best.

    The score per descriptor is the cosine between the document's lemma
    frequencies and the profile's associate weights over the union of
    their lemma keys.  An empty document yields an empty vector.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if doc.lang != profiles.lang:
        raise ValidationError(
            f"document {doc.id}: language {doc.lang!r} does not match profiles {profiles.lang!r}"
        )
    if not doc.lemma_freq:
        return DescriptorVector(doc_id=doc.id, lang=doc.lang, entries={})

    codes, vocab, indptr, indices, data, norms = profiles.csr()
    query = np.zeros(len(vocab), dtype=np.float64)
    for lemma, cnt in doc.lemma_freq.items():
        idx = vocab.get(lemma)
        if idx is not None:
            query[idx] = cnt
    # union semantics: the query norm covers all document lemmas, in or
    # out of the profile vocabulary
    query_norm = math.sqrt(sum(c * c for c in doc.lemma_freq.values()))
    scores = csr_cosine_scores(indptr, indices, data, norms, query, query_norm)

    positive = np.flatnonzero(scores > 0.0)
    clamped = np.minimum(scores[positive], 1.0)
    # the codes ascend, so a stable sort breaks ties by ascending code
    top = np.argsort(-clamped, kind="stable")[:k]
    entries = dict(zip(codes[positive[top]].tolist(), clamped[top].tolist()))
    return DescriptorVector(doc_id=doc.id, lang=doc.lang, entries=entries)
