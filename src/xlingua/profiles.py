"""Associate-profile training: one ranked weighted lemma list per descriptor.

For every descriptor, lemma frequencies in the subset of training
documents manually indexed with it are compared against the whole corpus
with Dunning's log-likelihood ratio; surviving candidates are weighted by
G2 x IDF and the top entries kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from types import MappingProxyType
from typing import Iterable, Mapping

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


@dataclass(frozen=True)
class AssociateProfile:
    descriptor: int
    lang: str
    associates: tuple[tuple[str, float], ...]
    norm: float

    @staticmethod
    def from_associates(descriptor, lang, associates) -> "AssociateProfile":
        associates = tuple((lemma, float(w)) for lemma, w in associates)
        norm = math.sqrt(ordered_sum(w * w for _, w in associates))
        return AssociateProfile(descriptor, lang, associates, norm)


@dataclass(frozen=True)
class ProfileSet:
    """One language's profiles; frozen, with ``profiles`` a read-only copy."""

    lang: str
    profiles: Mapping[int, AssociateProfile]
    n_docs: int

    def __post_init__(self) -> None:
        # csr() is cached, so the profiles it is built from must not change
        object.__setattr__(self, "profiles", MappingProxyType(dict(self.profiles)))

    def csr(self) -> tuple:
        """CSR view of all profiles (ascending codes, lemma vocab, arrays), built once."""
        return self._csr

    @cached_property
    def _csr(self) -> tuple:
        codes = sorted(self.profiles)
        vocab: dict[str, int] = {}
        indptr = [0]
        indices: list[int] = []
        data: list[float] = []
        norms: list[float] = []
        for code in codes:
            p = self.profiles[code]
            for lemma, w in p.associates:
                indices.append(vocab.setdefault(lemma, len(vocab)))
                data.append(w)
            indptr.append(len(indices))
            norms.append(p.norm)
        return (
            np.asarray(codes, dtype=np.int64),
            vocab,
            np.asarray(indptr, dtype=np.int64),
            np.asarray(indices, dtype=np.int64),
            np.asarray(data, dtype=np.float64),
            np.asarray(norms, dtype=np.float64),
        )


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
    """
    config = config or TrainingConfig()
    docs = list(corpus)
    if not docs:
        raise ValidationError("empty training corpus")
    langs = {d.lang for d in docs}
    if len(langs) != 1:
        raise ValidationError(f"training corpus mixes languages: {sorted(langs)}")
    lang = docs[0].lang

    n_docs = len(docs)
    lemmas = sorted(set(chain.from_iterable(d.lemma_freq for d in docs)))
    # ids in lexicographic order, so that ascending id is lemma order
    lemma_id = dict(zip(lemmas, range(len(lemmas))))
    # one row per (document, lemma), documents in corpus order; the rows are
    # int32 to keep these corpus-sized arrays small
    bounds = [0, *accumulate(len(d.lemma_freq) for d in docs)]
    n_rows = bounds[-1]
    ids = np.fromiter(
        map(lemma_id.__getitem__, chain.from_iterable(d.lemma_freq for d in docs)),
        dtype=np.int32,
        count=n_rows,
    )
    counts = np.fromiter(
        chain.from_iterable(d.lemma_freq.values() for d in docs), dtype=np.int32, count=n_rows
    )
    # float64 sums of integer counts are exact below 2**53
    df = np.zeros(len(lemmas), dtype=np.int64)
    global_counts = np.zeros(len(lemmas))
    for start in range(0, n_rows, _BINCOUNT_ROWS):
        block = slice(start, start + _BINCOUNT_ROWS)
        df += np.bincount(ids[block], minlength=len(lemmas))
        global_counts += np.bincount(ids[block], weights=counts[block], minlength=len(lemmas))
    grand_total = counts.sum()
    # idf depends on the lemma only through its df
    idf_by_df = np.array(
        [0.0] + [idf(d, n_docs, config.idf_variant) for d in range(1, int(df.max(initial=0)) + 1)]
    )

    by_descriptor: dict[int, list[int]] = {}
    for i, doc in enumerate(docs):
        for code in doc.manual_descriptors or ():
            by_descriptor.setdefault(code, []).append(i)

    profiles: dict[int, AssociateProfile] = {}
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
        associates = [(lemmas[i], -w) for w, i in scored[: config.max_associates]]
        profiles[code] = AssociateProfile.from_associates(code, lang, associates)

    if not profiles:
        raise ValidationError("no descriptor has any training document with surviving associates")
    return ProfileSet(lang=lang, profiles=profiles, n_docs=n_docs)


def save_profiles(ps: ProfileSet, path: str) -> None:
    """Write a profile set; descriptors ascending, weights at 6 decimals."""
    lines = [f"PROFILESET {ps.lang} {ps.n_docs}"]
    for code in sorted(ps.profiles):
        lines.append(f"P {code}")
        for lemma, w in ps.profiles[code].associates:
            lines.append(f"A {lemma} {w:.6f}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_profiles(path: str) -> ProfileSet:
    """Load a profile set; norms are recomputed from the stored weights."""
    lang: str | None = None
    n_docs = 0
    profiles: dict[int, AssociateProfile] = {}
    current_code: int | None = None
    current_line = 0  # the line of current_code's P
    current: dict[str, float] = {}  # lemma -> weight, in file order

    def flush() -> None:
        nonlocal current_code, current
        if current_code is not None:
            if not current:
                raise ParseError(f"{path}:{current_line}: profile P {current_code} has no associates")
            profiles[current_code] = AssociateProfile.from_associates(
                current_code, lang, current.items()
            )
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
