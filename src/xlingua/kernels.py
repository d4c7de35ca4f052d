"""Numeric inner loops: batched G2 and CSR cosine scoring in numpy, and an ordered float sum."""

from __future__ import annotations

import operator
from functools import reduce
from typing import Iterable

import numpy as np


def ordered_sum(values: Iterable[float]) -> float:
    """The floats added one at a time from the left, starting at 0.0.

    This is what ``sum`` computes on CPython up to 3.11; from 3.12 ``sum``
    compensates for rounding, so its last bit can differ, and the scalar
    cosine would no longer equal the engine's ordered ``cumsum``.
    """
    return reduce(operator.add, values, 0.0)


def g2_batch(k11, k12, k21, k22) -> np.ndarray:
    """Dunning log-likelihood ratio for a batch of 2x2 contingency tables.

    Inputs are parallel arrays of cell counts; a table with a zero row or
    column marginal scores 0.  Tiny negative rounding residue is clamped.
    """
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


def csr_cosine_scores(indptr, indices, data, row_norms, query, query_norm) -> np.ndarray:
    """Cosine of a dense query vector against every row of a CSR matrix.

    row_norms and query_norm are the full Euclidean norms of each side, so
    the result is the cosine over the union of the two key sets even when
    the query has mass outside the matrix vocabulary.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    query_norm = float(query_norm)
    if query_norm <= 0.0:
        return np.zeros(len(indptr) - 1, dtype=np.float64)
    indices = np.asarray(indices, dtype=np.int64)
    data = np.asarray(data, dtype=np.float64)
    row_norms = np.asarray(row_norms, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    contrib = data * query[indices]
    # reduceat misbehaves on empty rows; pad with a trailing zero and mask
    padded = np.concatenate([contrib, np.zeros(1)])
    starts = np.minimum(indptr[:-1], len(contrib))
    dots = np.add.reduceat(padded, starts) if len(contrib) else np.zeros(len(starts))
    empty = indptr[:-1] == indptr[1:]
    dots = np.where(empty, 0.0, dots)
    denom = row_norms * query_norm
    return np.where(denom > 0.0, dots / np.where(denom > 0.0, denom, 1.0), 0.0)
