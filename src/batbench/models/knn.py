"""K-nearest-neighbors regression (euclidean, uniform weights).

Distance ties break toward the lower training-row index. The neighbor mean
uses ``math.fsum`` so the result is the correctly rounded mean regardless of
summation order.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import KTooLargeError
from .config import KNNConfig
from .kernel import squared_distances


class KNNModel:
    family = "KNN"

    def __init__(self, k: int, train_X: np.ndarray, train_y: np.ndarray):
        self.k = k
        self.train_X = np.array(train_X, dtype=np.float64)
        self.train_y = np.array(train_y, dtype=np.float64)
        self.train_X.setflags(write=False)
        self.train_y.setflags(write=False)
        self.n_features_in = self.train_X.shape[1]
        self.training_target_mean = float(np.mean(self.train_y))

    def predict(self, X) -> np.ndarray:
        d2 = squared_distances(X, self.train_X)  # one row per query
        nearest = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
        return np.array([math.fsum(row) / self.k for row in self.train_y[nearest]])


def fit_knn(config: KNNConfig, X, y) -> KNNModel:
    if config.k > len(X):
        raise KTooLargeError(f"k={config.k} exceeds {len(X)} training rows")
    return KNNModel(config.k, X, y)
