"""Descriptor-vector comparison and ranked search.

Final score = cosine x optional length factor x optional same-language
bias.  The length factor is a Gaussian penalty on the candidate/query
character-length ratio centered at the language pair's mean translation
length ratio; the bias multiplies candidates that share the query's
language so same-language duplicates do not systematically outrank true
translations.

``score_matrix`` is the one scoring path: it scores every query against
every candidate at once, from dense arrays of descriptor weights, and is
what the search functions, the experiment harness and the CLI call.  The
scalar ``cosine``, ``length_factor`` and ``similarity`` compute the same
formula for one pair; they are kept as the reference the engine is
tested against.  Likewise ``dedupe`` works on packed integer shingle
keys, and the string ``shingles`` with ``jaccard`` are its reference.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from xlingua.assign import DescriptorVector
from xlingua.errors import ConfigError, ParseError, ValidationError, open_text
from xlingua.normalize import NormalizedDocument, RawDocument

DEFAULT_SAME_LANGUAGE_BIAS = 0.83
DEFAULT_THRESHOLD = 0.70
DEDUPE_THRESHOLD = 0.95
SHINGLE_SIZE = 5
SIGMA_FLOOR = 1e-6
# Elements of one block of query x candidate x code products in score_matrix.
_PRODUCT_BLOCK = 1 << 15
# Scores in one block of query rows in detect_translations.
_SCORE_BLOCK = 1 << 20


@dataclass
class LengthModel:
    """Per language pair: mean and stddev of the target/source char ratio."""

    pairs: dict[tuple[str, str], tuple[float, float]] = field(default_factory=dict)
    same_lang_sigma: float = 0.2

    def get(self, src_lang: str, tgt_lang: str) -> tuple[float, float]:
        key = (src_lang, tgt_lang)
        if key in self.pairs:
            return self.pairs[key]
        if src_lang == tgt_lang:
            return (1.0, self.same_lang_sigma)
        raise ConfigError(f"no length model entry for pair {src_lang!r} -> {tgt_lang!r}")

    def set(self, src_lang: str, tgt_lang: str, mu: float, sigma: float) -> None:
        # nan fails every comparison, so test for the legal range, not against it
        if not (0 < mu < math.inf and 0 < sigma < math.inf):
            raise ValidationError(
                f"length model mu and sigma must be finite and positive, got {mu} and {sigma}"
            )
        self.pairs[(src_lang, tgt_lang)] = (mu, sigma)


@dataclass(frozen=True)
class SimilarityOptions:
    use_length_factor: bool = True
    same_language_bias: float = DEFAULT_SAME_LANGUAGE_BIAS
    threshold: float = DEFAULT_THRESHOLD
    top_k: int = 10

    def __post_init__(self) -> None:
        if not 0.0 < self.same_language_bias <= 1.0:
            raise ValidationError("same_language_bias must be in (0, 1]")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValidationError("threshold must be in [0, 1]")
        if self.top_k < 1:
            raise ValidationError("top_k must be >= 1")


@dataclass(frozen=True)
class DocRecord:
    """A document as seen by the search layer: its vector plus raw length."""

    vector: DescriptorVector
    char_length: int

    @property
    def id(self) -> str:
        return self.vector.doc_id

    @property
    def lang(self) -> str:
        return self.vector.lang


@dataclass(frozen=True)
class RankedMatch:
    candidate_id: str
    candidate_lang: str
    raw_cosine: float
    length_factor: float
    final_score: float
    rank: int


def cosine(a: DescriptorVector, b: DescriptorVector) -> float:
    """Cosine over the union of the two key sets; 0 if either is empty."""
    if not a.entries or not b.entries:
        return 0.0
    # summation in sorted-key order keeps the result exactly symmetric
    common = sorted(a.entries.keys() & b.entries.keys())
    dot = sum(a.entries[c] * b.entries[c] for c in common)
    if dot == 0.0:
        return 0.0
    return min(dot / (a.norm() * b.norm()), 1.0)


def length_factor(
    src_len: int, tgt_len: int, src_lang: str, tgt_lang: str, model: LengthModel
) -> float:
    """Gaussian penalty on the length ratio tgt_len/src_len, peak 1 at mu."""
    if src_len <= 0:
        raise ValidationError("source length must be positive")
    mu, sigma = model.get(src_lang, tgt_lang)
    r = tgt_len / src_len
    z = (r - mu) / sigma
    return math.exp(-0.5 * z * z)


def similarity(
    query: DocRecord,
    cand: DocRecord,
    opts: SimilarityOptions,
    model: LengthModel | None = None,
) -> tuple[float, float, float]:
    """Score one candidate; returns (raw_cosine, length_factor, final).

    The one-pair reference that ``score_matrix`` is tested against.
    """
    raw = cosine(query.vector, cand.vector)
    lf = 1.0
    if opts.use_length_factor:
        if model is None:
            raise ConfigError("length factor enabled but no length model given")
        lf = length_factor(query.char_length, cand.char_length, query.lang, cand.lang, model)
    final = raw * lf
    if cand.lang == query.lang:
        final *= opts.same_language_bias
    return raw, lf, final


def _cosines(queries: Sequence[DocRecord], candidates: Sequence[DocRecord]) -> np.ndarray:
    """Q x C cosines over the union of codes, as ``cosine`` defines them.

    Each dot product is summed one code at a time in ascending code order,
    the order ``cosine`` uses, and each norm is ``DescriptorVector.norm``.
    A BLAS matrix product would sum in an order that depends on where a
    candidate sits in the matrix, so that identical candidates could score
    apart by rounding and exact ties would not be broken by id.

    The dense rows are scattered from each vector's ``arrays``, which the
    vector builds once and caches, so a search over a pool that grows by
    appends converts only the records it has not seen before.  The rows
    are the ones the ``entries`` dicts give: the scatter puts each weight
    in its code's column whatever the entry order, and the sums run over
    the columns, so every cosine stays bit-identical.
    """
    n_q, n_c = len(queries), len(candidates)
    records = [*queries, *candidates]
    if not records:
        return np.zeros((n_q, n_c))  # np.concatenate needs at least one array
    arrays = [r.vector.arrays for r in records]
    distinct, column = np.unique(np.concatenate([c for c, _ in arrays]), return_inverse=True)
    # One trailing zero column keeps every row non-empty; adding 0.0 to a
    # sum is exact.
    dense = np.zeros((len(records), len(distinct) + 1))
    row = np.repeat(np.arange(len(records)), [len(c) for c, _ in arrays])
    dense[row, column] = np.concatenate([w for _, w in arrays])
    norm = np.array([r.vector.norm() for r in records])
    q, c = dense[:n_q], dense[n_q:]
    dots = np.empty((n_q, n_c))
    step = max(1, _PRODUCT_BLOCK // max(1, c.size))
    for lo in range(0, n_q, step):
        products = q[lo : lo + step, None, :] * c[None, :, :]
        dots[lo : lo + step] = np.cumsum(products, axis=2, out=products)[:, :, -1]
    cos = np.zeros_like(dots)
    np.divide(dots, np.outer(norm[:n_q], norm[n_q:]), out=cos, where=dots != 0.0)
    return np.minimum(cos, 1.0, out=cos)


def _length_factors(
    queries: Sequence[DocRecord],
    candidates: Sequence[DocRecord],
    model: LengthModel,
    langs: list[str],
    q_lang: np.ndarray,
    c_lang: np.ndarray,
) -> np.ndarray:
    """Q x C Gaussian length factors, (mu, sigma) per language pair.

    ``q_lang``/``c_lang`` index each record's language in ``langs``.
    """
    for q in queries:
        if q.char_length <= 0:
            raise ValidationError(f"query {q.id}: source length must be positive")
    mu = np.ones((len(langs), len(langs)))
    sigma = np.ones((len(langs), len(langs)))
    for qi in set(q_lang.tolist()):
        for ci in set(c_lang.tolist()):
            mu[qi, ci], sigma[qi, ci] = model.get(langs[qi], langs[ci])
    pair = (q_lang[:, None], c_lang[None, :])
    ratio = (
        np.array([c.char_length for c in candidates], dtype=np.float64)[None, :]
        / np.array([q.char_length for q in queries], dtype=np.float64)[:, None]
    )
    z = (ratio - mu[pair]) / sigma[pair]
    return np.exp(-0.5 * z * z)


def score_matrix(
    queries: Sequence[DocRecord],
    candidates: Sequence[DocRecord],
    opts: SimilarityOptions,
    model: LengthModel | None = None,
    lf_only: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score every query against every candidate; returns Q x C (raw, lf, final).

    final = raw cosine x length factor (1 when ``opts.use_length_factor``
    is off) x ``opts.same_language_bias`` where the candidate shares the
    query's language.  A candidate carrying the query's own id scores
    -inf in ``final``.  ``lf_only`` is the length-factor-only ablation:
    the cosine is not computed and counts as 1.
    """
    shape = (len(queries), len(candidates))
    index: dict[str, int] = {}
    q_lang = np.array([index.setdefault(q.lang, len(index)) for q in queries], dtype=np.intp)
    c_lang = np.array([index.setdefault(c.lang, len(index)) for c in candidates], dtype=np.intp)
    raw = np.ones(shape) if lf_only else _cosines(queries, candidates)
    if opts.use_length_factor:
        if model is None:
            raise ConfigError("length factor enabled but no length model given")
        lf = _length_factors(queries, candidates, model, list(index), q_lang, c_lang)
    else:
        lf = np.ones(shape)
    final = raw * lf
    final[q_lang[:, None] == c_lang[None, :]] *= opts.same_language_bias
    position: dict[str, list[int]] = {}
    for j, c in enumerate(candidates):
        position.setdefault(c.id, []).append(j)
    for i, q in enumerate(queries):
        if q.id in position:
            final[i, position[q.id]] = -np.inf
    return raw, lf, final


def _ranked(
    candidates: Sequence[DocRecord], raw: np.ndarray, lf: np.ndarray, final: np.ndarray, top_k: int
) -> list[RankedMatch]:
    """The top_k of one score row, descending final score, ties by id."""
    pool = np.flatnonzero(final > -np.inf)
    if not len(pool):
        raise ValidationError("empty candidate set")
    if len(pool) > top_k:
        # every candidate tied with the k-th best competes for the last places
        kth = np.partition(final[pool], len(pool) - top_k)[len(pool) - top_k]
        pool = pool[final[pool] >= kth]
    scores = final.tolist()
    order = sorted(pool.tolist(), key=lambda j: (-scores[j], candidates[j].id))[:top_k]
    return [
        RankedMatch(
            candidate_id=candidates[j].id,
            candidate_lang=candidates[j].lang,
            raw_cosine=float(raw[j]),
            length_factor=float(lf[j]),
            final_score=scores[j],
            rank=i + 1,
        )
        for i, j in enumerate(order)
    ]


def find_most_similar(
    query: DocRecord,
    candidates: Sequence[DocRecord],
    opts: SimilarityOptions,
    model: LengthModel | None = None,
) -> list[RankedMatch]:
    """Exhaustively score all candidates; descending final score, ties by id."""
    raw, lf, final = score_matrix([query], candidates, opts, model)
    return _ranked(candidates, raw[0], lf[0], final[0], opts.top_k)


def detect_translations(
    queries: Sequence[DocRecord],
    candidates: Sequence[DocRecord],
    opts: SimilarityOptions,
    model: LengthModel | None = None,
) -> list[Optional[RankedMatch]]:
    """Per query, the rank-1 match if it clears the decision threshold.

    Queries are scored in blocks of rows, so that each Q x C array holds
    at most about ``_SCORE_BLOCK`` scores whatever the number of queries.
    """
    found = []
    step = max(1, _SCORE_BLOCK // max(1, len(candidates)))
    for lo in range(0, len(queries), step):
        raw, lf, final = score_matrix(queries[lo : lo + step], candidates, opts, model)
        for i in range(len(raw)):
            best = _ranked(candidates, raw[i], lf[i], final[i], 1)[0]
            found.append(best if best.final_score >= opts.threshold else None)
    return found


def detect_translation(
    query: DocRecord,
    candidates: Sequence[DocRecord],
    opts: SimilarityOptions,
    model: LengthModel | None = None,
) -> Optional[RankedMatch]:
    """The rank-1 match, if it clears the decision threshold."""
    return detect_translations([query], candidates, opts, model)[0]


def estimate_length_model(
    pairs: Iterable[tuple[NormalizedDocument, NormalizedDocument]],
) -> tuple[float, float]:
    """Mean and sample stddev (n-1) of tgt/src char ratios over pairs."""
    ratios = []
    for src, tgt in pairs:
        if src.char_length <= 0:
            raise ValidationError(f"pair ({src.id}, {tgt.id}): zero-length source")
        ratios.append(tgt.char_length / src.char_length)
    if len(ratios) < 2:
        raise ValidationError("need at least 2 pairs to estimate a length model")
    mu = statistics.mean(ratios)
    sigma = max(statistics.stdev(ratios), SIGMA_FLOOR)
    return mu, sigma


def shingles(text: str, size: int = SHINGLE_SIZE) -> frozenset[str]:
    """Character n-gram shingle set; short texts yield the text itself."""
    if len(text) < size:
        return frozenset([text]) if text else frozenset()
    return frozenset(text[i : i + size] for i in range(len(text) - size + 1))


def jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def _min_overlap(size: int, threshold: float) -> int:
    """The smallest k with ``k / size >= threshold``, as ``jaccard`` compares.

    ``ceil(threshold * size)`` can overshoot by one where the product lands
    just above an integer; stepping by the same float test cannot.
    """
    k = math.ceil(threshold * size)
    while k > 1 and (k - 1) / size >= threshold:
        k -= 1
    while k / size < threshold:
        k += 1
    return k


def _distinct(ordered: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array, ascending."""
    keep = np.empty(len(ordered), dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _shingle_keys(texts: Sequence[str]) -> list[np.ndarray]:
    """Each text's ``shingles`` as a sorted array of distinct int64 keys.

    Across all the texts, two shingles get the same key exactly when they
    are equal (``dedupe`` says why).  A key reads the shingle as
    SHINGLE_SIZE digits in base ``len(alphabet) + 1``, where the alphabet
    is every code point of the texts and a code point's digit is 1 + its
    rank in it; a text shorter than SHINGLE_SIZE is padded at the end with
    digit 0.  When ``base ** SHINGLE_SIZE`` does not fit an int64, the
    keys are ids given to the string shingles in order of appearance.
    """
    size = SHINGLE_SIZE
    empty = np.empty(0, dtype=np.int64)
    codes = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    if not len(codes):
        return [empty] * len(texts)
    alphabet = _distinct(np.sort(codes))
    base = len(alphabet) + 1
    if base**size >= 2**63:
        ids: dict[str, int] = {}
        return [
            np.sort(np.fromiter((ids.setdefault(s, len(ids)) for s in shingles(t)), np.int64))
            for t in texts
        ]
    digit = np.zeros(int(alphabet[-1]) + 1, dtype=np.uint16)
    digit[alphabet] = np.arange(1, base)
    digits = digit[codes]
    # every text is followed by size - 1 zero digits, so that a short text
    # makes one window and no window spans two texts
    lengths = [len(t) for t in texts]
    ends = np.cumsum(lengths).tolist()
    pad = np.zeros(size - 1, dtype=np.uint16)
    stream = np.concatenate([p for n, e in zip(lengths, ends) for p in (digits[e - n : e], pad)])
    windows = len(stream) - size + 1
    keys = stream[:windows].astype(np.int64)
    for k in range(1, size):
        keys *= base
        keys += stream[k : windows + k]
    out = []
    for i, (n, e) in enumerate(zip(lengths, ends)):
        start = e - n + i * (size - 1)  # where text i begins in the stream
        x = keys[start : start + max(n - size + 1, 1)] if n else empty
        x.sort()
        out.append(_distinct(x))
    return out


def _key_jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """``jaccard`` of two sets given as sorted arrays of distinct keys."""
    if not len(a) and not len(b):
        return 1.0
    inter = len(np.intersect1d(a, b, assume_unique=True))
    return inter / (len(a) + len(b) - inter)


def _join_candidates(keys: Sequence[np.ndarray], threshold: float) -> list[tuple[int, int]]:
    """Every pair (i, j), i < j, that can reach ``jaccard >= threshold``, ascending.

    ``keys`` holds each set as a sorted array of distinct int64 keys.  A
    size filter and a prefix filter over an inverted index, as in
    Chaudhuri, Ganti & Kaushik (ICDE 2006) and Bayardo, Ma & Srikant
    (WWW 2007); ``0 < threshold <= 1``.  Empty sets pair only with each
    other.
    """
    if not keys:
        return []
    unique, inverse, df = np.unique(np.concatenate(keys), return_inverse=True, return_counts=True)
    # rarest keys first, ties by the key itself
    rank = np.empty(len(unique), dtype=np.int64)
    rank[np.lexsort((unique, df))] = np.arange(len(unique))
    ranks = rank[inverse]
    sizes = [len(x) for x in keys]
    ends = np.cumsum(sizes).tolist()
    index: dict[int, list[int]] = {}
    empties: list[int] = []
    pairs = []
    for j, (n, end) in enumerate(zip(sizes, ends)):
        if not n:
            pairs += [(i, j) for i in empties]
            empties.append(j)
            continue
        prefix = np.sort(ranks[end - n : end])[: n - _min_overlap(n, threshold) + 1]
        found: set[int] = set()
        for r in prefix.tolist():
            earlier = index.setdefault(r, [])
            found.update(earlier)
            earlier.append(j)
        for i in found:
            m = sizes[i]
            if min(m, n) / max(m, n) >= threshold:
                pairs.append((i, j))
    pairs.sort()
    return pairs


def dedupe(
    docs: Sequence[RawDocument], threshold: float = DEDUPE_THRESHOLD
) -> tuple[list[RawDocument], list[tuple[str, str, float]]]:
    """Drop near-duplicates by character 5-gram Jaccard on the raw text.

    For every pair at or above the threshold, the later document in id
    order is removed.  Returns (kept documents, removed-pair report), the
    report in ascending (earlier, later) id order; ``0 < threshold <= 1``
    and no id may repeat.

    Each text's shingle set is an array of packed int64 keys (see
    ``_shingle_keys``).  The packing is injective: digits 1 and up stand
    for distinct code points, and digit 0 is never a code point's digit,
    so it occurs only as the padding after a text shorter than 5.  A
    padded short text therefore cannot equal a full 5-gram, and it reads
    back as its digits up to the first 0.  Set sizes and overlaps are
    the integers the string sets give, and ``inter / (|x| + |y| - inter)``
    is the same float as ``jaccard``.  Packing needs
    ``(len(alphabet) + 1) ** 5 < 2 ** 63``, which holds up to 6,207
    distinct code points per call; above that the string shingles are
    numbered through a dict instead.

    Only the pairs that two filters let through are verified, and neither
    filter can drop a pair that ``jaccard`` accepts:

    * size filter: ``jaccard(x, y) <= min(|x|, |y|) / max(|x|, |y|)`` in
      real numbers, and rounding is monotone, so a pair whose size ratio
      is below the threshold as a float is below it as a Jaccard too;
    * prefix filter: with keys ordered by (document frequency, key), a
      pair sharing at least k keys has the first of them among the first
      ``|x| - k + 1`` of each set.  Here k is the smallest integer with
      ``k / |x| >= threshold``; the overlap of an accepted pair passes
      that same float test, because ``|x ∪ y| >= |x|``, so it is at least
      k for either set.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValidationError(f"dedupe threshold must be in (0, 1], got {threshold}")
    langs = {d.lang for d in docs}
    if len(langs) > 1:
        raise ValidationError(f"dedupe expects a single language, got {sorted(langs)}")
    ordered = sorted(docs, key=lambda d: d.id)
    for a, b in zip(ordered, ordered[1:]):
        if a.id == b.id:
            raise ValidationError(f"document id {a.id!r} occurs more than once")
    keys = _shingle_keys([d.text for d in ordered])
    removed: set[str] = set()
    report: list[tuple[str, str, float]] = []
    for i, j in _join_candidates(keys, threshold):
        j_sim = _key_jaccard(keys[i], keys[j])
        if j_sim >= threshold:
            report.append((ordered[i].id, ordered[j].id, j_sim))
            removed.add(ordered[j].id)
    kept = [d for d in docs if d.id not in removed]
    return kept, report


def save_length_model(model: LengthModel, path: str) -> None:
    """Write ``PAIR <src> <tgt> <mu> <sigma>`` lines, sorted by pair."""
    lines = [
        f"PAIR {src} {tgt} {mu:.6f} {sigma:.6f}"
        for (src, tgt), (mu, sigma) in sorted(model.pairs.items())
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def load_length_model(path: str) -> LengthModel:
    model = LengthModel()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 5 or parts[0] != "PAIR":
                raise ParseError(f"{path}:{lineno}: expected PAIR <src> <tgt> <mu> <sigma>")
            try:
                mu, sigma = float(parts[3]), float(parts[4])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: malformed numbers") from exc
            try:
                model.set(parts[1], parts[2], mu, sigma)
            except ValidationError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return model
