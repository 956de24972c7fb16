"""Squared-loss gradient boosting over CART trees.

The model starts from the training-target mean and adds learning_rate times
each stage tree, every stage fitted to the current residuals.
"""

from __future__ import annotations

import numpy as np

from .config import GradientBoostingConfig
from .grow import column_keys, grow_tree
from .tree import TreeModel, TreeStack


class BoostingModel:
    family = "GradientBoosting"

    def __init__(self, base_prediction: float, learning_rate: float,
                 stages: list[TreeModel], n_features_in: int):
        self.base_prediction = base_prediction
        self.learning_rate = learning_rate
        self._stack = TreeStack.of(stages, n_features_in)
        self.stages = self._stack.trees
        self.n_features_in = n_features_in
        self.training_target_mean = base_prediction

    def predict(self, X) -> np.ndarray:
        return self._stack.final_sums(X, self.base_prediction, self.learning_rate)

    def staged_predict(self, X):
        """Predictions after 0, 1, ..., n_estimators stages."""
        return iter(self._stack.running_sums(X, self.base_prediction, self.learning_rate))

    def impurity_contributions(self) -> np.ndarray:
        return sum((stage.impurity_contributions() for stage in self.stages),
                   np.zeros(self.n_features_in))


def fit_gradient_boosting(config: GradientBoostingConfig, X, y) -> BoostingModel:
    base = float(np.mean(y))
    current = np.full(len(y), base, dtype=np.float64)
    stages = []
    keys = column_keys(X)  # every stage splits the same columns
    fitted = np.empty(len(y))  # each stage's prediction for the training rows
    for _ in range(config.n_estimators):
        residuals = y - current
        stages.append(grow_tree(X, residuals, config.max_depth, config.min_samples_leaf,
                                keys=keys, fitted=fitted))
        current += config.learning_rate * fitted
    return BoostingModel(base, config.learning_rate, stages, X.shape[1])
