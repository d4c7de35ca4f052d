"""Independent scalar reference for the scores and near-duplicates the benchmark checks.

Written from the formulas of the paper, not from ``xlingua.similarity``:

* cosine over the descriptor weights two documents share, divided by the
  product of their Euclidean norms (0 when either vector is empty);
* a Gaussian length factor exp(-z^2 / 2) with z = (len_c / len_q - mu) / sigma,
  where (mu, sigma) belong to the (query language, candidate language) pair
  and a same-language pair is centred on a ratio of 1;
* a multiplicative bias for candidates in the query's own language;
* ranking by descending score, ties broken by ascending id, the query
  itself excluded;
* character 5-gram shingles and their Jaccard coefficient for dedupe.
"""

from __future__ import annotations

import math

SCORE_TOLERANCE = 1e-12
SHINGLE_SIZE = 5


def cosine(a: dict[int, float], b: dict[int, float]) -> float:
    if not a or not b:
        return 0.0
    dot = 0.0
    for code in sorted(a.keys() & b.keys()):
        dot += a[code] * b[code]
    if dot == 0.0:
        return 0.0
    norm_a = math.sqrt(sum(w * w for w in a.values()))
    norm_b = math.sqrt(sum(w * w for w in b.values()))
    return min(dot / (norm_a * norm_b), 1.0)


def length_params(length_model, q_lang: str, c_lang: str) -> tuple[float, float]:
    """(mu, sigma) for a language pair, read from the fitted model's data."""
    if (q_lang, c_lang) in length_model.pairs:
        return length_model.pairs[(q_lang, c_lang)]
    if q_lang == c_lang:
        return 1.0, length_model.same_lang_sigma
    raise KeyError(f"no length parameters for {q_lang}->{c_lang}")


def score(query, cand, length_model, use_lf: bool, bias: float, lf_only: bool = False) -> float:
    """Final score of one candidate (``DocRecord``-like objects)."""
    lf = 1.0
    if use_lf:
        mu, sigma = length_params(length_model, query.lang, cand.lang)
        z = (cand.char_length / query.char_length - mu) / sigma
        lf = math.exp(-0.5 * z * z)
    s = lf if lf_only else cosine(query.vector.entries, cand.vector.entries) * lf
    if cand.lang == query.lang:
        s *= bias
    return s


def rank(query, candidates, length_model, use_lf: bool, bias: float, lf_only: bool = False):
    """[(candidate id, score)] best first, ties by id, the query excluded."""
    scored = [
        (c.id, score(query, c, length_model, use_lf, bias, lf_only))
        for c in candidates
        if c.id != query.id
    ]
    scored.sort(key=lambda cs: (-cs[1], cs[0]))
    return scored


def ranking_mismatch(got: list[tuple[str, float]], want: list[tuple[str, float]]) -> str | None:
    """Describe the first difference between two rankings, or None.

    Ids must agree position by position; a swap is tolerated only between
    candidates whose reference scores tie within SCORE_TOLERANCE.
    """
    if len(got) != len(want):
        return f"length {len(got)} != {len(want)}"
    for pos, ((gid, gs), (wid, ws)) in enumerate(zip(got, want)):
        if abs(gs - ws) > SCORE_TOLERANCE:
            return f"rank {pos + 1}: score {gs!r} != {ws!r}"
        if gid != wid and not any(
            oid == gid and abs(os - ws) <= SCORE_TOLERANCE for oid, os in want
        ):
            return f"rank {pos + 1}: id {gid} != {wid}"
    return None


def shingles(text: str, size: int = SHINGLE_SIZE) -> frozenset[str]:
    if len(text) < size:
        return frozenset([text]) if text else frozenset()
    return frozenset(text[i : i + size] for i in range(len(text) - size + 1))


def jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)
