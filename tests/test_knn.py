import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batbench.errors import KTooLargeError
from batbench.models import KNNConfig, fit_knn
from batbench.models.kernel import _BLOCK_CELLS, squared_distances


def brute_force_knn(train_X, train_y, queries, k):
    """Independent O(n^2) scan: per-pair fsum distances, ties broken by index."""
    preds = np.empty(len(queries))
    for qi, q in enumerate(queries):
        ranked = sorted(
            range(len(train_X)),
            key=lambda j: (math.fsum((train_X[j, c] - q[c]) ** 2
                                     for c in range(train_X.shape[1])), j),
        )
        preds[qi] = math.fsum(train_y[j] for j in ranked[:k]) / k
    return preds


def test_nearest_single_neighbor():
    model = fit_knn(KNNConfig(k=1), np.array([[0.0], [10.0]]), np.array([0.0, 10.0]))
    assert model.predict(np.array([[1.0]]))[0] == 0.0


def test_two_neighbor_mean():
    model = fit_knn(KNNConfig(k=2), np.array([[0.0], [10.0]]), np.array([0.0, 10.0]))
    assert model.predict(np.array([[1.0]]))[0] == 5.0


def test_k_equal_to_train_size_predicts_target_mean():
    rng = np.random.default_rng(0)
    X = rng.random((12, 16))
    y = rng.random(12)
    model = fit_knn(KNNConfig(k=12), X, y)
    expected = math.fsum(y) / 12
    assert np.all(model.predict(rng.random((4, 16))) == expected)


def test_k_too_large():
    with pytest.raises(KTooLargeError):
        fit_knn(KNNConfig(k=3), np.zeros((2, 16)), np.zeros(2))


def test_distance_tie_breaks_to_lower_index():
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]])
    y = np.array([100.0, 200.0, 300.0])
    model = fit_knn(KNNConfig(k=1), X, y)
    # both first rows are at distance 1 from the origin; row 0 must win
    assert model.predict(np.array([[0.0, 0.0]]))[0] == 100.0


def test_matches_brute_force_oracle_exactly():
    rng = np.random.default_rng(123)
    for _ in range(25):
        X = rng.random((50, 16))
        y = rng.random(50)
        queries = rng.random((20, 16))
        model = fit_knn(KNNConfig(k=5), X, y)
        assert np.array_equal(model.predict(queries),
                              brute_force_knn(X, y, queries, 5))


def stable_sort_knn(train_X, train_y, queries, k):
    """The documented rule over squared_distances' own output: a stable sort
    of each query's distance row (NaN last), then the fsum mean of the first k;
    NaN for a query with a non-finite cell."""
    d2 = squared_distances(queries, train_X)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
    means = np.array([math.fsum(train_y[j] for j in row) / k for row in nearest])
    return np.where(np.isfinite(queries).all(axis=1), means, np.nan)


@st.composite
def _tied_problem(draw):
    """Training rows repeated from a few small-integer rows, so that exact
    distance ties straddle the k-th distance; queries with non-finite cells;
    and the number of query rows in one selection block."""
    d = draw(st.integers(1, 3))
    row = st.lists(st.integers(-2, 2).map(float), min_size=d, max_size=d)
    distinct = draw(st.lists(row, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=12))
    X = np.array([distinct[i] for i in picks])
    y = np.array(draw(st.lists(st.integers(-50, 50).map(float),
                               min_size=len(X), max_size=len(X))))
    k = draw(st.integers(1, len(X)))
    cell = st.integers(-3, 3).map(float) | st.sampled_from([np.nan, np.inf, -np.inf])
    queries = np.array(draw(st.lists(st.lists(cell, min_size=d, max_size=d),
                                     min_size=1, max_size=10)))
    return X, y, k, queries, draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(problem=_tied_problem())
def test_selection_breaks_distance_ties_by_index(problem):
    X, y, k, queries, block_rows = problem
    model = fit_knn(KNNConfig(k=k), X, y)
    with np.errstate(invalid="ignore"):  # inf - inf in the distances
        with mock.patch("batbench.models.kernel._BLOCK_CELLS", block_rows * len(X)):
            batch = model.predict(queries)
        assert np.array_equal(batch, stable_sort_knn(X, y, queries, k), equal_nan=True)
        single = [model.predict(queries[i:i + 1])[0] for i in range(len(queries))]
    assert np.array_equal(single, batch, equal_nan=True)
    # small integers: squared_distances is exact, as the oracle's fsum is
    finite = np.isfinite(queries).all(axis=1)
    assert np.array_equal(batch[finite], brute_force_knn(X, y, queries[finite], k))


@pytest.mark.parametrize("n_train", [257, 2000])
def test_blocked_squared_distances_equal_the_one_shot_expression(n_train):
    rng = np.random.default_rng(n_train)
    rows_per_block = _BLOCK_CELLS // n_train
    # three whole row blocks and a partial fourth
    A = rng.normal(size=(3 * rows_per_block + 17, 16))
    B = rng.normal(size=(n_train, 16))
    A[5, 3], A[rows_per_block, 0], B[1, 2] = np.nan, np.inf, -np.inf
    with np.errstate(invalid="ignore"):
        sq_a = np.einsum("ij,ij->i", A, A)
        sq_b = np.einsum("ij,ij->i", B, B)
        D = np.einsum("ik,kj->ij", A, np.ascontiguousarray(B.T))
        D *= 2.0
        expected = np.subtract(sq_a[:, None] + sq_b[None, :], D, out=D)
        blocked = squared_distances(A, B)
        assert blocked.tobytes() == expected.tobytes()
        rows = np.vstack([squared_distances(A[i:i + 1], B) for i in range(len(A))])
        assert rows.tobytes() == blocked.tobytes()
