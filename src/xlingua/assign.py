"""Map a normalized document to its top-K scored descriptors."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from xlingua.errors import ValidationError
from xlingua.kernels import csr_cosine_scores
from xlingua.normalize import NormalizedDocument
from xlingua.profiles import ProfileSet

DEFAULT_TOP_K = 100


@dataclass(frozen=True)
class DescriptorVector:
    """Sparse top-K descriptor representation of one document.

    ``entries`` must not change once built: ``norm()`` and ``arrays`` are
    computed from it once per vector and cached, so a changed dict
    would be scored with its old norm and old weights.
    """

    doc_id: str
    lang: str
    entries: dict[int, float] = field(default_factory=dict)

    def ranked(self) -> list[tuple[int, float]]:
        """Entries sorted by descending score, ties by ascending code."""
        return sorted(self.entries.items(), key=lambda cs: (-cs[1], cs[0]))

    def norm(self) -> float:
        return self._norm

    @cached_property
    def _norm(self) -> float:
        # once per vector: every search takes the norm of every candidate
        return math.sqrt(sum(s * s for s in self.entries.values()))

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The entries as read-only int64 codes and float64 weights.

        Built once per vector: every search stacks the rows of every
        candidate.  The arrays keep the dict's entry order.
        """
        n = len(self.entries)
        codes = np.fromiter(self.entries, dtype=np.int64, count=n)
        weights = np.fromiter(self.entries.values(), dtype=np.float64, count=n)
        # the same arrays go to every caller
        codes.flags.writeable = weights.flags.writeable = False
        return codes, weights


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
