"""Oracle tests for the numeric kernels.

The reference implementations below are coded independently of the
package (plain Python floats, no shared helpers) so they can catch
transcription errors in the vectorized versions.
"""

import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlingua.kernels import csr_cosine_scores, g2_batch


def oracle_g2(k11, k12, k21, k22):
    """Independent log-likelihood ratio: 2 * sum O*ln(O/E) over the table."""
    row1, row2 = k11 + k12, k21 + k22
    col1, col2 = k11 + k21, k12 + k22
    total = row1 + row2
    if total == 0 or row1 == 0 or row2 == 0 or col1 == 0 or col2 == 0:
        return 0.0
    g = 0.0
    for obs, row, col in (
        (k11, row1, col1),
        (k12, row1, col2),
        (k21, row2, col1),
        (k22, row2, col2),
    ):
        if obs > 0:
            g += obs * math.log(obs * total / (row * col))
    return max(2.0 * g, 0.0)


def test_g2_matches_oracle_on_random_tables():
    rng = random.Random(991)
    tables = [[rng.randint(0, 10_000) for _ in range(4)] for _ in range(50)]
    arrays = [np.array(col, dtype=np.float64) for col in zip(*tables)]
    start = time.perf_counter()
    got = g2_batch(*arrays)
    elapsed = time.perf_counter() - start
    for i, table in enumerate(tables):
        assert got[i] == pytest.approx(oracle_g2(*table), abs=1e-9)
    assert elapsed < 1.0


def test_g2_zero_at_independence():
    # observed == expected in every cell -> no association
    k11, k12, k21, k22 = (np.array([v], dtype=np.float64) for v in (20, 80, 40, 160))
    assert g2_batch(k11, k12, k21, k22)[0] == 0.0


def test_g2_symmetric_under_population_swap():
    a = (np.array([7.0]), np.array([3.0]), np.array([11.0]), np.array([29.0]))
    swapped = (a[2], a[3], a[0], a[1])
    assert g2_batch(*a)[0] == pytest.approx(g2_batch(*swapped)[0], abs=1e-12)


@given(
    st.lists(
        st.tuples(*(st.integers(min_value=0, max_value=5000) for _ in range(4))),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_g2_nonnegative_and_matches_oracle(tables):
    arrays = [np.array(col, dtype=np.float64) for col in zip(*tables)]
    got = g2_batch(*arrays)
    for i, table in enumerate(tables):
        assert got[i] >= 0.0
        assert got[i] == pytest.approx(oracle_g2(*table), abs=1e-7)


def _random_csr(rng, n_rows, n_dims):
    indptr = [0]
    indices = []
    data = []
    for _ in range(n_rows):
        cols = sorted(rng.sample(range(n_dims), rng.randint(0, min(12, n_dims))))
        indices.extend(cols)
        data.extend(rng.uniform(0.1, 5.0) for _ in cols)
        indptr.append(len(indices))
    return (
        np.array(indptr, dtype=np.int64),
        np.array(indices, dtype=np.int64),
        np.array(data, dtype=np.float64),
    )


def test_csr_cosine_matches_naive():
    rng = random.Random(17)
    n_rows, n_dims = 40, 25
    indptr, indices, data = _random_csr(rng, n_rows, n_dims)
    norms = np.array(
        [
            math.sqrt(sum(v * v for v in data[indptr[r] : indptr[r + 1]]))
            for r in range(n_rows)
        ]
    )
    query = np.array([rng.uniform(0.0, 3.0) for _ in range(n_dims)])
    qnorm = math.sqrt(float(query @ query))
    got = csr_cosine_scores(indptr, indices, data, norms, query, qnorm)
    for r in range(n_rows):
        dot = sum(
            data[k] * query[indices[k]] for k in range(indptr[r], indptr[r + 1])
        )
        denom = norms[r] * qnorm
        want = dot / denom if denom > 0 else 0.0
        assert got[r] == pytest.approx(want, abs=1e-12)


def test_csr_cosine_empty_rows_score_zero():
    indptr = np.array([0, 0, 2], dtype=np.int64)
    indices = np.array([0, 1], dtype=np.int64)
    data = np.array([1.0, 1.0])
    norms = np.array([0.0, math.sqrt(2.0)])
    query = np.array([1.0, 0.0])
    got = csr_cosine_scores(indptr, indices, data, norms, query, 1.0)
    assert got[0] == 0.0
    assert got[1] == pytest.approx(1.0 / math.sqrt(2.0))

