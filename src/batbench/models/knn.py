"""K-nearest-neighbors regression (euclidean, uniform weights).

Distance ties break toward the lower training-row index: the neighbors are
the first k of a stable sort of the query's distances (NaN last). Predict
takes the squared distances one row block at a time from the generator that
makes KernelRidge's and SVR's kernel blocks (``kernel._row_blocks``), finds
the neighbors in each block by selection, and sorts only the rows where
that rule has a choice to make. The neighbor mean uses
``math.fsum`` so the result is the correctly rounded mean regardless of
summation order. A query row with a non-finite cell answers NaN.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import KTooLargeError
from .config import KNNConfig
from .kernel import _prepared, _row_blocks


class KNNModel:
    family = "KNN"

    def __init__(self, k: int, train_X: np.ndarray, train_y: np.ndarray):
        self.k = k
        self.train_X = np.array(train_X, dtype=np.float64)
        self.train_y = np.array(train_y, dtype=np.float64)
        self.train_X.setflags(write=False)
        self.train_y.setflags(write=False)
        self._prepared = _prepared(self.train_X)
        self.n_features_in = self.train_X.shape[1]
        self.training_target_mean = float(np.mean(self.train_y))

    def predict(self, X) -> np.ndarray:
        k = self.k
        means = np.empty(len(X))
        for start, block in _row_blocks("distances", X, self._prepared):
            # where exactly k distances are at or below the k-th smallest,
            # they are the k nearest under any tie rule
            within = block <= np.partition(block, k - 1, axis=1)[:, k - 1:k]
            exact = within.sum(axis=1) == k
            nearest = np.empty((len(block), k), dtype=np.intp)
            (rows,), (rest,) = exact.nonzero(), (~exact).nonzero()
            nearest[rows] = within[rows].nonzero()[1].reshape(-1, k)
            # a tie at the k-th distance, or a NaN k-th distance
            nearest[rest] = np.argsort(block[rest], axis=1, kind="stable")[:, :k]
            means[start:start + len(block)] = [
                math.fsum(row) / k for row in self.train_y[nearest].tolist()]
        return np.where(np.isfinite(X).all(axis=1), means, np.nan)


def fit_knn(config: KNNConfig, X, y) -> KNNModel:
    if config.k > len(X):
        raise KTooLargeError(f"k={config.k} exceeds {len(X)} training rows")
    return KNNModel(config.k, X, y)
