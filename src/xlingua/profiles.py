"""Associate-profile training: one ranked weighted lemma list per descriptor.

For every descriptor, lemma frequencies in the subset of training
documents manually indexed with it are compared against the whole corpus
with Dunning's log-likelihood ratio; surviving candidates are weighted by
G2 x IDF and the top entries kept.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

from xlingua.errors import ParseError, ValidationError, open_text
from xlingua.kernels import g2_batch, ordered_sum
from xlingua.normalize import NormalizedDocument
from xlingua.thesaurus import Thesaurus

IDF_LOG_N_OVER_DF = "log_n_over_df"
IDF_LOG_N_OVER_DF_PLUS_ONE = "log_n_over_df_plus_one"
_IDF_VARIANTS = (IDF_LOG_N_OVER_DF, IDF_LOG_N_OVER_DF_PLUS_ONE)

# np.bincount copies its input to intp and float64. Over a whole corpus
# those copies are large, freshly mapped blocks, which raised perfbench's
# peak RSS by about 1 MB; 8,192 rows keep each copy at 64 KiB.
_BINCOUNT_ROWS = 1 << 13

# fields per line of a saved profile set, the tag included
_FIELDS = {"PROFILESET": 3, "P": 2, "A": 3}


@dataclass(frozen=True)
class TrainingConfig:
    min_doc_freq: int = 2
    g2_threshold: float = 3.84  # chi-square(1) at 95%
    max_associates: int = 300
    idf_variant: str = IDF_LOG_N_OVER_DF_PLUS_ONE

    def __post_init__(self) -> None:
        if self.min_doc_freq < 1:
            raise ValidationError("min_doc_freq must be >= 1")
        if self.g2_threshold < 0:
            raise ValidationError("g2_threshold must be >= 0")
        if self.max_associates < 1:
            raise ValidationError("max_associates must be >= 1")
        if self.idf_variant not in _IDF_VARIANTS:
            raise ValidationError(f"unknown idf_variant {self.idf_variant!r}")


class ProfileSet:
    """One language's associate profiles, held once as read-only CSR arrays.

    Row ``i`` is the profile of descriptor ``codes[i]`` (ascending): the
    ``vocab`` columns ``indices[indptr[i]:indptr[i + 1]]`` in rank order,
    weighted by ``data[...]``, with Euclidean norm ``norms[i]``.  ``vocab``
    maps a lemma to its column, numbered in first-seen order.  Nothing can
    be set or written to, so no score can be computed from stale profiles.
    """

    __slots__ = ("lang", "n_docs", "codes", "vocab", "indptr", "indices", "data", "norms")

    def __init__(self, lang: str, profiles: Mapping[int, Iterable[tuple[str, float]]], n_docs: int) -> None:
        codes = sorted(profiles)
        vocab, indptr, indices, data, norms = {}, [0], [], [], []
        for code in codes:
            for lemma, w in profiles[code]:
                indices.append(vocab.setdefault(lemma, len(vocab)))
                data.append(float(w))
            norms.append(math.sqrt(ordered_sum(w * w for w in data[indptr[-1]:])))
            indptr.append(len(data))
        values = (
            lang, n_docs, np.array(codes, dtype=np.int64), MappingProxyType(vocab),
            np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64),
            np.array(data, dtype=np.float64), np.array(norms, dtype=np.float64),
        )
        for name, value in zip(self.__slots__, values):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def _read_only(self, name: str, *_) -> None:
        raise AttributeError(f"ProfileSet is read-only: cannot change {name!r}")

    __setattr__ = __delattr__ = _read_only

    def __repr__(self) -> str:
        return f"ProfileSet({self.lang!r}, {len(self.codes)} profiles, n_docs={self.n_docs})"

    def csr(self) -> tuple:
        """The stored arrays: ``(codes, vocab, indptr, indices, data, norms)``."""
        return self.codes, self.vocab, self.indptr, self.indices, self.data, self.norms

    def _rows(self) -> Iterator[tuple[int, Iterator[tuple[str, float]]]]:
        """Each code with its ``(lemma, weight)`` associates, read from the arrays."""
        lemmas = list(self.vocab)
        words, weights = [lemmas[i] for i in self.indices.tolist()], self.data.tolist()
        bounds = self.indptr.tolist()
        for code, a, b in zip(self.codes.tolist(), bounds, bounds[1:]):
            yield code, zip(words[a:b], weights[a:b])

    @property
    def profiles(self) -> Mapping[int, tuple[tuple[str, float], ...]]:
        """Code to its associates, read-only; built on each access, never cached."""
        return MappingProxyType({code: tuple(row) for code, row in self._rows()})


def idf(df: int, n_docs: int, variant: str = IDF_LOG_N_OVER_DF_PLUS_ONE) -> float:
    """Inverse document frequency under the chosen variant."""
    if variant == IDF_LOG_N_OVER_DF:
        if df < 1:
            raise ValidationError("df must be >= 1 for log_n_over_df")
        return math.log(n_docs / df)
    if variant == IDF_LOG_N_OVER_DF_PLUS_ONE:
        return math.log(n_docs / (df + 1)) + 1.0
    raise ValidationError(f"unknown idf_variant {variant!r}")


def train_profiles(
    corpus: Iterable[NormalizedDocument],
    thesaurus: Thesaurus,
    config: TrainingConfig | None = None,
) -> ProfileSet:
    """Train one profile per descriptor that has training documents.

    Candidate lemmas must occur in at least ``min_doc_freq`` subset
    documents, be positively associated (subset rate above global rate)
    and clear ``g2_threshold``; weight is G2 x IDF, top ``max_associates``
    kept, ties broken lexicographically.

    ``corpus`` is read once, one document at a time, so a generator of
    ``normalize`` calls trains without a normalized collection in memory.
    """
    config = config or TrainingConfig()
    lang: str | None = None
    n_docs = 0
    # lemma -> id, the next id given on a lemma's first lookup; one row per
    # (document, lemma), documents in corpus order. The rows are int32 to
    # keep these corpus-sized buffers small, and a document is dropped once
    # its rows are taken, so no normalized collection is held.
    first_seen: defaultdict[str, int] = defaultdict(count().__next__)
    ids = array("i")
    counts = array("i")
    bounds = [0]
    by_descriptor: dict[int, list[int]] = {}
    for doc in corpus:
        if lang is None:
            lang = doc.lang
        elif doc.lang != lang:
            raise ValidationError(f"training corpus mixes languages: {sorted({lang, doc.lang})}")
        freq = doc.lemma_freq
        # fromlist converts a list faster than extend does an iterator
        ids.fromlist(list(map(first_seen.__getitem__, freq)))
        counts.fromlist(list(freq.values()))
        bounds.append(len(ids))
        for code in doc.manual_descriptors or ():
            by_descriptor.setdefault(code, []).append(n_docs)
        n_docs += 1
    if lang is None:
        raise ValidationError("empty training corpus")

    lemmas = sorted(first_seen)
    # first-seen id -> lexicographic id, so that ascending id is lemma order;
    # the rows are renumbered block by block below
    rank = np.empty(len(lemmas), dtype=np.int32)
    rank[list(map(first_seen.__getitem__, lemmas))] = np.arange(len(lemmas))
    del first_seen
    n_rows = bounds[-1]
    ids = np.frombuffer(ids, dtype=np.int32)
    counts = np.frombuffer(counts, dtype=np.int32)
    # float64 sums of integer counts are exact below 2**53
    df = np.zeros(len(lemmas), dtype=np.int64)
    global_counts = np.zeros(len(lemmas))
    for start in range(0, n_rows, _BINCOUNT_ROWS):
        block = slice(start, start + _BINCOUNT_ROWS)
        ids[block] = rank[ids[block]]
        df += np.bincount(ids[block], minlength=len(lemmas))
        global_counts += np.bincount(ids[block], weights=counts[block], minlength=len(lemmas))
    grand_total = counts.sum()
    # idf depends on the lemma only through its df
    idf_by_df = np.array(
        [0.0] + [idf(d, n_docs, config.idf_variant) for d in range(1, int(df.max(initial=0)) + 1)]
    )

    profiles: dict[int, list[tuple[str, float]]] = {}
    for code in sorted(thesaurus.descriptors):
        doc_idxs = by_descriptor.get(code)
        if not doc_idxs:
            continue
        # the subset's rows: each of its documents' runs, concatenated
        sub_ids = np.concatenate([ids[bounds[i]:bounds[i + 1]] for i in doc_idxs])
        sub_counts = np.concatenate([counts[bounds[i]:bounds[i + 1]] for i in doc_idxs])
        subset_total = sub_counts.sum()
        # a lemma occurs once per document, so its rows count its documents
        candidates = np.flatnonzero(np.bincount(sub_ids) >= config.min_doc_freq)
        if not len(candidates):
            continue
        k11 = np.bincount(sub_ids, weights=sub_counts)[candidates]
        k12 = subset_total - k11
        k21 = global_counts[candidates] - k11
        k22 = (grand_total - subset_total) - k21
        g2 = g2_batch(k11, k12, k21, k22)
        # positive association: subset rate strictly above the global rate
        positive = k11 * grand_total > (k11 + k21) * subset_total
        weights = g2 * idf_by_df[df[candidates]]
        keep = (g2 >= config.g2_threshold) & positive & (weights > 0)
        if not keep.any():
            continue
        scored = sorted(zip((-weights[keep]).tolist(), candidates[keep].tolist()))
        profiles[code] = [(lemmas[i], -w) for w, i in scored[: config.max_associates]]

    if not profiles:
        raise ValidationError("no descriptor has any training document with surviving associates")
    return ProfileSet(lang=lang, profiles=profiles, n_docs=n_docs)


def save_profiles(ps: ProfileSet, path: str) -> None:
    """Write a profile set; descriptors ascending, weights at 6 decimals."""
    lines = [f"PROFILESET {ps.lang} {ps.n_docs}"]
    for code, row in ps._rows():
        lines.append(f"P {code}")
        lines.extend(f"A {lemma} {w:.6f}" for lemma, w in row)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_profiles(path: str) -> ProfileSet:
    """Load a profile set; norms are recomputed from the stored weights."""
    lang: str | None = None
    n_docs = 0
    profiles: dict[int, list[tuple[str, float]]] = {}
    current_code: int | None = None
    current_line = 0  # the line of current_code's P
    current: dict[str, float] = {}  # lemma -> weight, in file order

    def flush() -> None:
        nonlocal current_code, current
        if current_code is not None:
            if not current:
                raise ParseError(f"{path}:{current_line}: profile P {current_code} has no associates")
            profiles[current_code] = list(current.items())
        current_code, current = None, {}

    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split()
            try:
                # an unknown tag passes this check and is rejected below
                if len(parts) != _FIELDS.get(parts[0], len(parts)):
                    raise ParseError(
                        f"{path}:{lineno}: {parts[0]} takes {_FIELDS[parts[0]] - 1} fields: {line!r}"
                    )
                if parts[0] == "PROFILESET":
                    if lang is not None:
                        raise ParseError(f"{path}:{lineno}: repeated PROFILESET header")
                    lang, n_docs = parts[1], int(parts[2])
                    if n_docs < 1:
                        raise ParseError(f"{path}:{lineno}: document count {n_docs} must be >= 1")
                elif parts[0] == "P":
                    if lang is None:
                        raise ParseError(f"{path}:{lineno}: P before PROFILESET header")
                    flush()
                    current_code, current_line = int(parts[1]), lineno
                    if current_code < 1:
                        raise ParseError(f"{path}:{lineno}: code {current_code} must be >= 1")
                    if current_code in profiles:
                        raise ParseError(f"{path}:{lineno}: repeated profile P {current_code}")
                elif parts[0] == "A":
                    if current_code is None:
                        raise ParseError(f"{path}:{lineno}: A outside a profile")
                    w = float(parts[2])
                    if not (math.isfinite(w) and w >= 0.0):
                        raise ParseError(f"{path}:{lineno}: weight {parts[2]!r} must be finite and >= 0")
                    # the saver writes weights in non-increasing order; equal
                    # neighbours are legal since it rounds to 6 decimals
                    if current and w > next(reversed(current.values())):
                        raise ParseError(f"{path}:{lineno}: weight {parts[2]} exceeds the one above it")
                    if parts[1] in current:
                        raise ParseError(f"{path}:{lineno}: repeated associate {parts[1]!r}")
                    current[parts[1]] = w
                else:
                    raise ParseError(f"{path}:{lineno}: unknown tag {parts[0]!r}")
            except (ValueError, IndexError) as exc:
                raise ParseError(f"{path}:{lineno}: malformed line {line!r}") from exc
    if lang is None:
        raise ParseError(f"{path}: missing PROFILESET header")
    flush()
    if not profiles:
        raise ParseError(f"{path}: no profile")
    return ProfileSet(lang=lang, profiles=profiles, n_docs=n_docs)
