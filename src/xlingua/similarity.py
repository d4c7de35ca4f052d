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
import operator
import statistics
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import ClassVar, Iterable, Mapping, Optional, Sequence

import numpy as np

from xlingua.assign import DescriptorVector
from xlingua.errors import ConfigError, ParseError, ValidationError, open_text
from xlingua.kernels import ordered_sum
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


@dataclass(frozen=True)
class LengthModel:
    """Per language pair: mean and stddev of the target/source char ratio.

    The fields cannot be assigned and ``pairs`` cannot be written to, so
    ``set()``, which checks what it stores, is the one way to change a model.
    """

    pairs: Mapping[tuple[str, str], tuple[float, float]] = field(default_factory=dict)
    # a same-language pair with no entry has mu 1 and this sigma; not saved
    same_lang_sigma: ClassVar[float] = 0.2

    def __post_init__(self) -> None:
        pairs = {key: _checked(mu, sigma) for key, (mu, sigma) in self.pairs.items()}
        object.__setattr__(self, "pairs", MappingProxyType(pairs))

    def get(self, src_lang: str, tgt_lang: str) -> tuple[float, float]:
        key = (src_lang, tgt_lang)
        if key in self.pairs:
            return self.pairs[key]
        if src_lang == tgt_lang:
            return (1.0, self.same_lang_sigma)
        raise ConfigError(f"no length model entry for pair {src_lang!r} -> {tgt_lang!r}")

    def set(self, src_lang: str, tgt_lang: str, mu: float, sigma: float) -> None:
        pairs = {**self.pairs, (src_lang, tgt_lang): _checked(mu, sigma)}
        object.__setattr__(self, "pairs", MappingProxyType(pairs))


def _checked(mu: float, sigma: float) -> tuple[float, float]:
    """A length-ratio mean and stddev, refused unless both are finite and positive."""
    # nan fails every comparison, so test for the legal range, not against it
    if not (0 < mu < math.inf and 0 < sigma < math.inf):
        raise ValidationError(
            f"length model mu and sigma must be finite and positive, got {mu} and {sigma}"
        )
    return mu, sigma


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
    x, y = a.entries, b.entries
    if not x or not y:
        return 0.0
    # summation in sorted-key order keeps the result exactly symmetric
    dot = ordered_sum(x[c] * y[c] for c in sorted(x.keys() & y.keys()))
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


def _flat(records: Sequence[DocRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every entry of ``records`` as parallel arrays: code, weight, record index."""
    if len(records) == 1:
        v = records[0].vector
        return v.codes, v.weights, np.zeros(len(v.codes), dtype=np.intp)
    codes = np.concatenate([r.vector.codes for r in records])
    weights = np.concatenate([r.vector.weights for r in records])
    rows = np.repeat(np.arange(len(records)), [len(r.vector.codes) for r in records])
    return codes, weights, rows


def _resized(a: np.ndarray, n: int, rows: int) -> np.ndarray:
    """``a`` with room for ``rows`` rows, its first ``n`` kept and the rest 0."""
    out = np.zeros((rows, *a.shape[1:]), dtype=a.dtype)
    out[:n] = a[:n]
    return out


class _CandidateStack:
    """The search index of a candidate list, kept for the next search.

    ``codes`` are sorted and distinct: the codes of the first candidates
    appended to it.  Row i of ``dense`` holds candidate i's weights in
    the columns of its codes and 0.0 in every other column, the last of
    which is 0.0 in every row.  Beside the rows it keeps, per candidate,
    the columns a search reads instead of the records: ``norm``,
    ``length`` (the char length), ``lang`` (an index into ``langs``, which
    numbers the stacked languages) and ``rows_of``, each candidate id's
    rows.  ``records`` holds the stacked records themselves, so none of
    them can die while stacked, and an identity test against it is exact.
    Rows past the stacked ones are all 0.0, and they grow by amortised
    doubling; every column is appended with its row.
    """

    def __init__(self) -> None:
        self.codes = np.zeros(0, dtype=np.int64)
        self.dense = np.zeros((0, 1))
        self.norm = np.zeros(0)
        self.length = np.zeros(0)
        self.lang = np.zeros(0, dtype=np.intp)
        self.langs: dict[str, int] = {}
        self.rows_of: dict[str, list[int]] = {}
        self.records: list[DocRecord] = []

    def _columns(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each code's column, and whether the stack has one for it."""
        column = self.codes.searchsorted(codes)
        if not len(self.codes):
            return column, np.zeros(len(codes), dtype=bool)
        # a code past the last one gets column len(self.codes); clipped, it reads a smaller code
        return column, self.codes.take(column, mode="clip") == codes

    def append(self, records: Sequence[DocRecord]) -> bool:
        """Stack ``records`` past the stacked ones.

        The first records give the stack its columns, one per distinct
        code.  Later, False, with the stack unchanged, if a record has a
        code with no column.
        """
        if not records:
            return True
        codes, weights, rows = _flat(records)
        if self.records:
            column, known = self._columns(codes)
            if not known.all():
                return False
        else:
            self.codes, column = np.unique(codes, return_inverse=True)
            self.dense = np.zeros((0, len(self.codes) + 1))
        n = len(self.records)
        m = n + len(records)
        if m > len(self.dense):
            size = max(m, 2 * len(self.dense))
            self.dense = _resized(self.dense, n, size)
            self.norm = _resized(self.norm, n, size)
            self.length = _resized(self.length, n, size)
            self.lang = _resized(self.lang, n, size)
        self.dense[n + rows, column] = weights
        self.norm[n:m] = [r.vector.norm() for r in records]
        self.length[n:m] = [r.char_length for r in records]
        langs = self.langs
        self.lang[n:m] = [langs.setdefault(r.lang, len(langs)) for r in records]
        for j, r in enumerate(records, n):
            self.rows_of.setdefault(r.id, []).append(j)
        self.records += records
        return True

    def rows(self, queries: Sequence[DocRecord]) -> np.ndarray:
        """The queries' dense rows over the stack's columns.

        A code that no stacked candidate has goes to the trailing column,
        which is 0.0 in every candidate row.
        """
        codes, weights, rows = _flat(queries)
        column, known = self._columns(codes)
        column[~known] = len(self.codes)
        q = np.zeros((len(queries), self.dense.shape[1]))
        q[rows, column] = weights
        return q


# The last search's candidate stack, so at most one pool's records.  A
# search pops it and puts its own back once it is done with it, so two
# concurrent searches never share one; pop and slice assignment are each
# one atomic list operation.
_last_stack: list[_CandidateStack] = []


def _take_stack(candidates: Sequence[DocRecord]) -> _CandidateStack:
    """The kept stack extended to exactly ``candidates``, or a new stack of them.

    The stack is the caller's alone until it puts it back in ``_last_stack``.
    """
    try:
        stack = _last_stack.pop()
    except IndexError:
        stack = None
    if stack is not None:
        n = len(stack.records)
        stacked = n <= len(candidates) and all(map(operator.is_, stack.records, candidates))
        if stacked and stack.append(candidates[n:]):
            return stack
    stack = _CandidateStack()  # frees the old rows before the new ones are built
    stack.append(candidates)
    return stack


def _cosines(queries: Sequence[DocRecord], stack: _CandidateStack) -> np.ndarray:
    """Q x C cosines of the queries and the stacked candidates, as ``cosine`` defines them.

    Each dot product is summed one code at a time in ascending code order,
    the order ``cosine`` uses, and each norm is ``DescriptorVector.norm``.
    A BLAS matrix product would sum in an order that depends on where a
    candidate sits in the matrix, so that identical candidates could score
    apart by rounding and exact ties would not be broken by id.

    The queries are mapped onto the stack's columns, a query code that no
    candidate has onto the trailing zero column.  ``cosine`` sums only the
    codes a pair shares; every other column adds a product 0.0, and
    adding an exact zero leaves every nonzero partial sum as it is, so
    every cosine is bit-identical to ``cosine``'s.
    """
    n_c = len(stack.records)
    q = stack.rows(queries)
    c = stack.dense[:n_c]
    dots = np.empty((len(queries), n_c))
    step = max(1, _PRODUCT_BLOCK // max(1, c.size))
    for lo in range(0, len(queries), step):
        products = q[lo : lo + step, None, :] * c[None, :, :]
        # cumsum adds left to right, as ``cosine`` does; the weights being
        # multiplied come from assign, whose sums are numpy's pairwise ones
        # (kernels.csr_cosine_scores)
        dots[lo : lo + step] = np.cumsum(products, axis=2, out=products)[:, :, -1]
    norm = np.array([r.vector.norm() for r in queries])
    cos = np.zeros(dots.shape)
    np.divide(dots, norm[:, None] * stack.norm[None, :n_c], out=cos, where=dots != 0.0)
    return np.minimum(cos, 1.0, out=cos)


def _length_factors(
    queries: Sequence[DocRecord],
    stack: _CandidateStack,
    model: LengthModel,
    langs: list[str],
    q_lang: np.ndarray,
) -> np.ndarray:
    """Q x C Gaussian length factors, (mu, sigma) per language pair.

    The candidates are the stacked ones.  ``q_lang`` indexes each query's
    language in ``langs``, which begins with the stack's languages.
    """
    n_c = len(stack.records)
    mu, sigma = np.ones((2, len(langs), len(langs)))
    for qi in set(q_lang.tolist()):
        for ci in stack.langs.values():
            mu[qi, ci], sigma[qi, ci] = model.get(langs[qi], langs[ci])
    pair = (q_lang[:, None], stack.lang[None, :n_c])
    ratio = (
        stack.length[None, :n_c]
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

    A search takes the candidates' ``_CandidateStack`` once, reads the
    cosines and the candidates' languages, lengths and ids from it, not
    from the records, and puts it back when it is done.  A search that
    raises does not put it back, so the next one builds a new stack.
    """
    shape = (len(queries), len(candidates))
    if opts.use_length_factor:
        if model is None:
            raise ConfigError("length factor enabled but no length model given")
        for q in queries:
            if q.char_length <= 0:
                raise ValidationError(f"query {q.id}: source length must be positive")
    if not queries or not candidates:
        return np.ones(shape), np.ones(shape), np.ones(shape)
    stack = _take_stack(candidates)
    raw = np.ones(shape) if lf_only else _cosines(queries, stack)
    index = dict(stack.langs)
    q_lang = np.array([index.setdefault(q.lang, len(index)) for q in queries], dtype=np.intp)
    if opts.use_length_factor:
        lf = _length_factors(queries, stack, model, list(index), q_lang)
    else:
        lf = np.ones(shape)
    final = raw * lf
    final[q_lang[:, None] == stack.lang[None, : shape[1]]] *= opts.same_language_bias
    for i, q in enumerate(queries):
        if q.id in stack.rows_of:
            final[i, stack.rows_of[q.id]] = -np.inf
    _last_stack[:] = [stack]
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
    Rank 1 is ``_ranked``'s: ``argmax`` finds a row's best score, and only
    an exact tie for it looks the ids up, where the smallest id wins.
    """
    found: list[Optional[RankedMatch]] = []
    step = max(1, _SCORE_BLOCK // max(1, len(candidates)))
    for lo in range(0, len(queries), step):
        raw, lf, final = score_matrix(queries[lo : lo + step], candidates, opts, model)
        if not len(candidates):
            raise ValidationError("empty candidate set")
        for i, row in enumerate(final):
            j = int(row.argmax())
            score = float(row[j])
            if score == -math.inf:
                raise ValidationError("empty candidate set")
            if np.count_nonzero(row == score) > 1:
                j = min(np.flatnonzero(row == score).tolist(), key=lambda k: candidates[k].id)
            c = candidates[j]
            match = RankedMatch(c.id, c.lang, float(raw[i, j]), float(lf[i, j]), score, 1)
            found.append(match if score >= opts.threshold else None)
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
    pairs: Iterable[tuple[RawDocument | NormalizedDocument, RawDocument | NormalizedDocument]],
) -> tuple[float, float]:
    """Mean and sample stddev (n-1) of tgt/src char ratios over pairs.

    A raw document and its normalized form have the same ``char_length``,
    so either can be passed.
    """
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


def shingles(text: str) -> frozenset[str]:
    """Character SHINGLE_SIZE-gram shingle set; short texts yield the text itself."""
    if len(text) < SHINGLE_SIZE:
        return frozenset([text]) if text else frozenset()
    return frozenset(text[i : i + SHINGLE_SIZE] for i in range(len(text) - SHINGLE_SIZE + 1))


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
    first_line: dict[tuple[str, str], int] = {}  # pair -> the line that gave it
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
            pair = (parts[1], parts[2])
            if pair in first_line:
                raise ParseError(
                    f"{path}:{lineno}: repeated PAIR {pair[0]} {pair[1]}, first given on line {first_line[pair]}"
                )
            first_line[pair] = lineno
            try:
                model.set(parts[1], parts[2], mu, sigma)
            except ValidationError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return model
