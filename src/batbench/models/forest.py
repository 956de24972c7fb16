"""Bagged CART ensemble with per-split feature subsampling."""

from __future__ import annotations

import numpy as np

from ..rng import derive_seed
from .config import RandomForestConfig
from .tree import TreeModel, TreeStack, grow_tree


class ForestModel:
    family = "RandomForest"

    def __init__(self, trees: list[TreeModel], n_features_in: int,
                 training_target_mean: float):
        self._stack = TreeStack(trees)
        self.trees = self._stack.trees
        self.n_features_in = n_features_in
        self.training_target_mean = training_target_mean

    def predict(self, X) -> np.ndarray:
        return self._stack.running_sums(X, 0.0)[-1] / len(self.trees)

    def impurity_contributions(self) -> np.ndarray:
        return sum((t.impurity_contributions() for t in self.trees),
                   np.zeros(self.n_features_in))


def fit_random_forest(config: RandomForestConfig, X, y) -> ForestModel:
    """Fit n_trees CARTs on bootstrap resamples; prediction is their mean.

    Each tree draws its own rng stream from the config seed, so results do
    not depend on fit scheduling.
    """
    n = len(X)
    max_features = min(config.max_features, X.shape[1])
    trees = []
    for i in range(config.n_trees):
        rng = np.random.default_rng(derive_seed(config.seed, "tree", i))
        if config.bootstrap:
            rows = rng.integers(0, n, size=n)
        else:
            rows = np.arange(n)
        trees.append(grow_tree(
            X[rows], y[rows], config.max_depth, config.min_samples_leaf,
            rng=rng, max_features=max_features,
        ))
    return ForestModel(trees, X.shape[1], float(np.mean(y)))
