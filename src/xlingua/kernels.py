"""Numeric inner loops: batched G2 scoring and CSR cosine scoring.

Both kernels ship in two flavours: a numba @njit version and a pure-numpy
fallback.  The numba path is used when numba imports cleanly, unless the
environment variable XLINGUA_NUMBA is set to "0".  The two paths are
numerically interchangeable; tests/test_kernels.py compares them.
"""

from __future__ import annotations

import os

import numpy as np

_WANT_NUMBA = os.environ.get("XLINGUA_NUMBA", "1") != "0"

try:  # pragma: no cover - exercised indirectly via the env flag
    if not _WANT_NUMBA:
        raise ImportError
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]
        return lambda f: f


def _g2_batch_numpy(k11, k12, k21, k22):
    k11 = np.asarray(k11, dtype=np.float64)
    k12 = np.asarray(k12, dtype=np.float64)
    k21 = np.asarray(k21, dtype=np.float64)
    k22 = np.asarray(k22, dtype=np.float64)
    n = k11 + k12 + k21 + k22
    r1 = k11 + k12
    r2 = k21 + k22
    c1 = k11 + k21
    c2 = k12 + k22
    # degenerate tables (a zero marginal) are defined to score 0
    ok = (r1 > 0) & (r2 > 0) & (c1 > 0) & (c2 > 0)
    n_safe = np.where(n > 0, n, 1.0)

    def term(o, e):
        with np.errstate(divide="ignore", invalid="ignore"):
            t = o * np.log(np.where(o > 0, o, 1.0) / np.where(e > 0, e, 1.0))
        return np.where(o > 0, t, 0.0)

    g2 = 2.0 * (
        term(k11, r1 * c1 / n_safe)
        + term(k12, r1 * c2 / n_safe)
        + term(k21, r2 * c1 / n_safe)
        + term(k22, r2 * c2 / n_safe)
    )
    return np.where(ok, np.maximum(g2, 0.0), 0.0)


@njit(cache=True)
def _g2_batch_njit(k11, k12, k21, k22):  # pragma: no cover - jit-compiled
    out = np.empty(k11.shape[0], dtype=np.float64)
    for i in range(k11.shape[0]):
        a, b, c, d = k11[i], k12[i], k21[i], k22[i]
        n = a + b + c + d
        r1, r2 = a + b, c + d
        c1, c2 = a + c, b + d
        if r1 <= 0.0 or r2 <= 0.0 or c1 <= 0.0 or c2 <= 0.0:
            out[i] = 0.0
            continue
        g = 0.0
        if a > 0.0:
            g += a * np.log(a * n / (r1 * c1))
        if b > 0.0:
            g += b * np.log(b * n / (r1 * c2))
        if c > 0.0:
            g += c * np.log(c * n / (r2 * c1))
        if d > 0.0:
            g += d * np.log(d * n / (r2 * c2))
        g *= 2.0
        out[i] = g if g > 0.0 else 0.0
    return out


def _csr_cosine_numpy(indptr, indices, data, row_norms, query, query_norm):
    if query_norm <= 0.0:
        return np.zeros(len(indptr) - 1, dtype=np.float64)
    contrib = data * query[indices]
    # reduceat misbehaves on empty rows; pad with a trailing zero and mask
    padded = np.concatenate([contrib, np.zeros(1)])
    starts = np.minimum(indptr[:-1], len(contrib))
    dots = np.add.reduceat(padded, starts) if len(contrib) else np.zeros(len(starts))
    empty = indptr[:-1] == indptr[1:]
    dots = np.where(empty, 0.0, dots)
    denom = row_norms * query_norm
    return np.where(denom > 0.0, dots / np.where(denom > 0.0, denom, 1.0), 0.0)


@njit(cache=True)
def _csr_cosine_njit(indptr, indices, data, row_norms, query, query_norm):  # pragma: no cover
    n_rows = indptr.shape[0] - 1
    out = np.zeros(n_rows, dtype=np.float64)
    if query_norm <= 0.0:
        return out
    for r in range(n_rows):
        dot = 0.0
        for j in range(indptr[r], indptr[r + 1]):
            dot += data[j] * query[indices[j]]
        denom = row_norms[r] * query_norm
        if denom > 0.0:
            out[r] = dot / denom
    return out


def g2_batch(k11, k12, k21, k22) -> np.ndarray:
    """Dunning log-likelihood ratio for a batch of 2x2 contingency tables.

    Inputs are parallel arrays of cell counts; a table with a zero row or
    column marginal scores 0.  Tiny negative rounding residue is clamped.
    """
    k11 = np.ascontiguousarray(k11, dtype=np.float64)
    k12 = np.ascontiguousarray(k12, dtype=np.float64)
    k21 = np.ascontiguousarray(k21, dtype=np.float64)
    k22 = np.ascontiguousarray(k22, dtype=np.float64)
    if HAS_NUMBA:
        return _g2_batch_njit(k11, k12, k21, k22)
    return _g2_batch_numpy(k11, k12, k21, k22)


def csr_cosine_scores(indptr, indices, data, row_norms, query, query_norm) -> np.ndarray:
    """Cosine of a dense query vector against every row of a CSR matrix.

    row_norms and query_norm are the full Euclidean norms of each side, so
    the result is the cosine over the union of the two key sets even when
    the query has mass outside the matrix vocabulary.
    """
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    data = np.ascontiguousarray(data, dtype=np.float64)
    row_norms = np.ascontiguousarray(row_norms, dtype=np.float64)
    query = np.ascontiguousarray(query, dtype=np.float64)
    if HAS_NUMBA:
        return _csr_cosine_njit(indptr, indices, data, row_norms, query, float(query_norm))
    return _csr_cosine_numpy(indptr, indices, data, row_norms, query, float(query_norm))
