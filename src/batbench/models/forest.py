"""Bagged CART ensemble with per-split feature subsampling.

Each tree owns one rng stream. Its first draw is the bootstrap sample; after
that, growth consumes only the stream's ``rng.choice`` feature draws, in the
tree's depth-first order: one per node that is not constant and lies above
max_depth, which includes a node too small to split under min_samples_leaf.
With at most 64 candidate features, the grower computes each tree's draws in
one block with the bits of numpy's ``choice``: Floyd's algorithm and Lemire's
bounded integers on the stream's ``Generator.integers`` uint32 words. A tree
whose words would reject in a bounded draw, or a fit past 64 candidates, draws
through ``choice`` itself. No tree's draws depend on another's, so all trees
grow together, in lockstep rounds.
"""

from __future__ import annotations

import numpy as np

from ..rng import derive_seed
from .config import RandomForestConfig
from .grow import grow_trees
from .tree import TreeModel, TreeStack


class ForestModel:
    family = "RandomForest"

    def __init__(self, trees: list[TreeModel], n_features_in: int,
                 training_target_mean: float):
        self._stack = TreeStack.of(trees, n_features_in)
        self.trees = self._stack.trees
        self.n_features_in = n_features_in
        self.training_target_mean = training_target_mean

    @classmethod
    def from_stack(cls, stack: TreeStack, n_features_in: int,
                   training_target_mean: float) -> ForestModel:
        """The forest of a fit, whose trees grew straight into ``stack``."""
        forest = cls([], n_features_in, training_target_mean)
        forest._stack, forest.trees = stack, stack.trees
        return forest

    def predict(self, X) -> np.ndarray:
        return self._stack.final_sums(X, 0.0) / len(self.trees)

    def impurity_contributions(self) -> np.ndarray:
        return sum((t.impurity_contributions() for t in self.trees),
                   np.zeros(self.n_features_in))


def fit_random_forest(config: RandomForestConfig, X, y) -> ForestModel:
    """Fit n_trees CARTs on bootstrap resamples; prediction is their mean.

    Each tree draws its own rng stream from the config seed, so results do
    not depend on fit scheduling.
    """
    n = len(X)
    rngs = [np.random.default_rng(derive_seed(config.seed, "tree", i))
            for i in range(config.n_trees)]
    samples = [rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
               for rng in rngs]
    stack = grow_trees(X, y, samples, config.max_depth, config.min_samples_leaf,
                       rngs=rngs, max_features=min(config.max_features, X.shape[1]))
    return ForestModel.from_stack(stack, X.shape[1], float(np.mean(y)))
