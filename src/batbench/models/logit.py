"""Logistic-function regressor adapted for continuous targets.

Targets are min-max scaled into [clamp, 1 - clamp], logit-transformed, and
fit with ridge-penalized least squares (bias unpenalized). Predictions invert
the transform and are clipped to the training target range.
"""

from __future__ import annotations

import numpy as np

from .config import LogitAdaptedConfig
from .kernel import cholesky_solve


class LogitModel:
    family = "LogitAdapted"

    def __init__(self, weights: np.ndarray, bias: float, y_min: float,
                 y_max: float, clamp: float, constant_target: bool,
                 training_target_mean: float):
        self.weights = np.array(weights, dtype=np.float64)
        self.weights.setflags(write=False)
        self.bias = bias
        self.y_min = y_min
        self.y_max = y_max
        self.clamp = clamp
        self.constant_target = constant_target
        self.n_features_in = len(self.weights)
        self.training_target_mean = training_target_mean

    def predict(self, X) -> np.ndarray:
        if self.constant_target:
            return np.sum(X * self.weights, axis=1) + self.y_min  # zero weights: NaN in, NaN out
        z = np.sum(X * self.weights, axis=1) + self.bias
        p = 1.0 / (1.0 + np.exp(-z))
        span = self.y_max - self.y_min
        raw = self.y_min + (p - self.clamp) * span / (1.0 - 2.0 * self.clamp)
        return np.where(np.isfinite(X).all(axis=1), np.clip(raw, self.y_min, self.y_max), np.nan)


def fit_logit_adapted(config: LogitAdaptedConfig, X, y) -> LogitModel:
    n, d = X.shape
    y_min, y_max = float(np.min(y)), float(np.max(y))
    if y_min == y_max:
        return LogitModel(np.zeros(d), 0.0, y_min, y_max, config.clamp,
                          constant_target=True, training_target_mean=y_min)

    delta = config.clamp
    scaled = delta + (1.0 - 2.0 * delta) * (y - y_min) / (y_max - y_min)
    z = np.log(scaled / (1.0 - scaled))

    # ridge normal equations with an unpenalized bias column
    A = np.empty((d + 1, d + 1), dtype=np.float64)
    A[:d, :d] = X.T @ X + config.alpha * np.eye(d)
    col_sums = X.sum(axis=0)
    A[:d, d] = col_sums
    A[d, :d] = col_sums
    A[d, d] = n
    rhs = np.concatenate([X.T @ z, [z.sum()]])
    solution = cholesky_solve(A, rhs)
    return LogitModel(solution[:d], float(solution[d]), y_min, y_max, delta,
                      constant_target=False, training_target_mean=float(np.mean(y)))
