"""Model family configurations.

Defaults follow mainstream-toolkit conventions; each dataclass validates the
type and range of its own hyperparameters at construction time.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields

from ..errors import ConfigError

N_FEATURES = 16


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """An int or float, not a bool, within the finite float64 range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


@dataclass(frozen=True)
class KNNConfig:
    family = "KNN"
    k: int = 5
    distance: str = "euclidean"
    weighting: str = "uniform"

    def __post_init__(self):
        _check(_is_int(self.k) and self.k >= 1,
               f"k must be an integer >= 1, got {self.k!r}")
        _check(self.distance == "euclidean", "only euclidean distance is supported")
        _check(self.weighting == "uniform", "only uniform weighting is supported")


@dataclass(frozen=True)
class DecisionTreeConfig:
    family = "DecisionTree"
    max_depth: int | None = 8
    min_samples_leaf: int = 5

    def __post_init__(self):
        _check(self.max_depth is None
               or (_is_int(self.max_depth) and self.max_depth >= 0),
               f"max_depth must be None or an integer >= 0, got {self.max_depth!r}")
        _check(_is_int(self.min_samples_leaf) and self.min_samples_leaf >= 1,
               "min_samples_leaf must be an integer >= 1, "
               f"got {self.min_samples_leaf!r}")


@dataclass(frozen=True)
class RandomForestConfig:
    family = "RandomForest"
    n_trees: int = 100
    max_depth: int | None = None
    min_samples_leaf: int = 1
    bootstrap: bool = True
    max_features: int = 6  # ceil(16 / 3)
    seed: int = 0

    def __post_init__(self):
        _check(_is_int(self.n_trees) and self.n_trees >= 1,
               f"n_trees must be an integer >= 1, got {self.n_trees!r}")
        _check(self.max_depth is None
               or (_is_int(self.max_depth) and self.max_depth >= 0),
               f"max_depth must be None or an integer >= 0, got {self.max_depth!r}")
        _check(_is_int(self.min_samples_leaf) and self.min_samples_leaf >= 1,
               "min_samples_leaf must be an integer >= 1, "
               f"got {self.min_samples_leaf!r}")
        _check(isinstance(self.bootstrap, bool),
               f"bootstrap must be true or false, got {self.bootstrap!r}")
        _check(_is_int(self.max_features) and self.max_features >= 1,
               f"max_features must be an integer >= 1, got {self.max_features!r}")
        _check(_is_int(self.seed), f"seed must be an integer, got {self.seed!r}")


@dataclass(frozen=True)
class GradientBoostingConfig:
    family = "GradientBoosting"
    n_estimators: int = 100
    learning_rate: float = 0.1
    max_depth: int | None = 3
    min_samples_leaf: int = 5
    seed: int = 0

    def __post_init__(self):
        _check(_is_int(self.n_estimators) and self.n_estimators >= 0,
               f"n_estimators must be an integer >= 0, got {self.n_estimators!r}")
        _check(_is_real(self.learning_rate) and 0.0 < self.learning_rate <= 1.0,
               f"learning_rate must be a number in (0, 1], got {self.learning_rate!r}")
        _check(self.max_depth is None
               or (_is_int(self.max_depth) and self.max_depth >= 0),
               f"max_depth must be None or an integer >= 0, got {self.max_depth!r}")
        _check(_is_int(self.min_samples_leaf) and self.min_samples_leaf >= 1,
               "min_samples_leaf must be an integer >= 1, "
               f"got {self.min_samples_leaf!r}")
        _check(_is_int(self.seed), f"seed must be an integer, got {self.seed!r}")


@dataclass(frozen=True)
class KernelRidgeConfig:
    family = "KernelRidge"
    alpha: float = 1.0
    kernel: str = "rbf"
    gamma: float = 1.0 / N_FEATURES

    def __post_init__(self):
        _check(_is_real(self.alpha) and self.alpha > 0.0,
               f"alpha must be a finite number > 0, got {self.alpha!r}")
        _check(self.kernel in ("linear", "rbf"),
               f"kernel must be linear or rbf, got {self.kernel!r}")
        _check(_is_real(self.gamma) and self.gamma > 0.0,
               f"gamma must be a finite number > 0, got {self.gamma!r}")


@dataclass(frozen=True)
class SVRConfig:
    family = "SVR"
    C: float = 1.0
    epsilon: float = 0.1
    kernel: str = "rbf"
    gamma: float = 1.0 / N_FEATURES
    max_iter: int = 1000
    tol: float = 1e-3

    def __post_init__(self):
        _check(_is_real(self.C) and self.C > 0.0,
               f"C must be a finite number > 0, got {self.C!r}")
        _check(_is_real(self.epsilon) and self.epsilon >= 0.0,
               f"epsilon must be a finite number >= 0, got {self.epsilon!r}")
        _check(self.kernel in ("linear", "rbf"),
               f"kernel must be linear or rbf, got {self.kernel!r}")
        _check(_is_real(self.gamma) and self.gamma > 0.0,
               f"gamma must be a finite number > 0, got {self.gamma!r}")
        _check(_is_int(self.max_iter) and self.max_iter >= 1,
               f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        _check(_is_real(self.tol) and self.tol > 0.0,
               f"tol must be a finite number > 0, got {self.tol!r}")


@dataclass(frozen=True)
class LogitAdaptedConfig:
    family = "LogitAdapted"
    alpha: float = 1.0
    clamp: float = 0.01

    def __post_init__(self):
        _check(_is_real(self.alpha) and self.alpha > 0.0,
               f"alpha must be a finite number > 0, got {self.alpha!r}")
        _check(_is_real(self.clamp) and 0.0 < self.clamp < 0.5,
               f"clamp must be a number in (0, 0.5), got {self.clamp!r}")


def config_to_dict(config) -> dict:
    """Echo a config (family tag plus hyperparameters) for report metadata."""
    out = {"family": config.family}
    for f in fields(config):
        out[f.name] = getattr(config, f.name)
    return out
