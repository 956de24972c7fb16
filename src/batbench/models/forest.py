"""Bagged CART ensemble with per-split feature subsampling.

Each tree owns one rng stream. It draws the bootstrap sample, if any, and
then one uint64, the tree's key. A node's candidate features are a
hash of that key and of the node's place in the tree's sample
(``grow.node_candidates``), not a draw from the stream, so they do not
depend on the order the nodes are searched in: all trees grow together, a
whole frontier a round, and nothing else reads the stream. The trees grow
straight into one ``TreeStack``, which the model keeps as it is; a loaded
model stacks the trees of its file.
"""

from __future__ import annotations

import numpy as np

from ..rng import derive_seed
from .config import RandomForestConfig
from .grow import grow_trees
from .tree import TreeModel, TreeStack


class ForestModel:
    family = "RandomForest"

    def __init__(self, trees: list[TreeModel] | TreeStack, n_features_in: int,
                 training_target_mean: float):
        self._stack = TreeStack.of(trees, n_features_in)
        self.trees = self._stack.trees
        self.n_features_in = n_features_in
        self.training_target_mean = training_target_mean

    def predict(self, X) -> np.ndarray:
        return self._stack.final_sums(X, 0.0) / len(self.trees)

    def impurity_contributions(self) -> np.ndarray:
        return sum((t.impurity_contributions() for t in self.trees),
                   np.zeros(self.n_features_in))


def fit_random_forest(config: RandomForestConfig, X, y) -> ForestModel:
    """Fit n_trees CARTs on bootstrap resamples; prediction is their mean.

    Each tree draws its own rng stream from the config seed, so results do
    not depend on fit scheduling: its bootstrap rows, then its key.
    """
    n = len(X)
    samples, tree_keys = [], []
    for i in range(config.n_trees):
        rng = np.random.default_rng(derive_seed(config.seed, "tree", i))
        samples.append(rng.integers(0, n, size=n) if config.bootstrap else np.arange(n))
        tree_keys.append(rng.integers(1 << 64, dtype=np.uint64))
    stack = grow_trees(X, y, samples, config.max_depth, config.min_samples_leaf,
                       tree_keys=tree_keys, max_features=min(config.max_features, X.shape[1]))
    return ForestModel(stack, X.shape[1], float(np.mean(y)))
