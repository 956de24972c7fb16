"""Model family configurations.

Defaults follow mainstream-toolkit conventions; each dataclass validates its
own hyperparameter ranges at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..errors import ConfigError

N_FEATURES = 16


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class KNNConfig:
    family = "KNN"
    k: int = 5
    distance: str = "euclidean"
    weighting: str = "uniform"

    def __post_init__(self):
        _check(self.k >= 1, f"k must be >= 1, got {self.k}")
        _check(self.distance == "euclidean", "only euclidean distance is supported")
        _check(self.weighting == "uniform", "only uniform weighting is supported")


@dataclass(frozen=True)
class DecisionTreeConfig:
    family = "DecisionTree"
    max_depth: int | None = 8
    min_samples_leaf: int = 5

    def __post_init__(self):
        _check(self.max_depth is None or self.max_depth >= 0,
               f"max_depth must be None or >= 0, got {self.max_depth}")
        _check(self.min_samples_leaf >= 1,
               f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")


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
        _check(self.n_trees >= 1, f"n_trees must be >= 1, got {self.n_trees}")
        _check(self.max_depth is None or self.max_depth >= 0,
               f"max_depth must be None or >= 0, got {self.max_depth}")
        _check(self.min_samples_leaf >= 1,
               f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")
        _check(self.max_features >= 1,
               f"max_features must be >= 1, got {self.max_features}")


@dataclass(frozen=True)
class GradientBoostingConfig:
    family = "GradientBoosting"
    n_estimators: int = 100
    learning_rate: float = 0.1
    max_depth: int | None = 3
    min_samples_leaf: int = 5
    seed: int = 0

    def __post_init__(self):
        _check(self.n_estimators >= 0,
               f"n_estimators must be >= 0, got {self.n_estimators}")
        _check(0.0 < self.learning_rate <= 1.0,
               f"learning_rate must be in (0, 1], got {self.learning_rate}")
        _check(self.max_depth is None or self.max_depth >= 0,
               f"max_depth must be None or >= 0, got {self.max_depth}")
        _check(self.min_samples_leaf >= 1,
               f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")


@dataclass(frozen=True)
class KernelRidgeConfig:
    family = "KernelRidge"
    alpha: float = 1.0
    kernel: str = "rbf"
    gamma: float = 1.0 / N_FEATURES

    def __post_init__(self):
        _check(self.alpha > 0.0, f"alpha must be > 0, got {self.alpha}")
        _check(self.kernel in ("linear", "rbf"),
               f"kernel must be linear or rbf, got {self.kernel!r}")
        _check(self.gamma > 0.0, f"gamma must be > 0, got {self.gamma}")


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
        _check(self.C > 0.0, f"C must be > 0, got {self.C}")
        _check(self.epsilon >= 0.0, f"epsilon must be >= 0, got {self.epsilon}")
        _check(self.kernel in ("linear", "rbf"),
               f"kernel must be linear or rbf, got {self.kernel!r}")
        _check(self.gamma > 0.0, f"gamma must be > 0, got {self.gamma}")
        _check(self.max_iter >= 1, f"max_iter must be >= 1, got {self.max_iter}")
        _check(self.tol > 0.0, f"tol must be > 0, got {self.tol}")


@dataclass(frozen=True)
class LogitAdaptedConfig:
    family = "LogitAdapted"
    alpha: float = 1.0
    clamp: float = 0.01

    def __post_init__(self):
        _check(self.alpha > 0.0, f"alpha must be > 0, got {self.alpha}")
        _check(0.0 < self.clamp < 0.5,
               f"clamp must be in (0, 0.5), got {self.clamp}")


def config_to_dict(config) -> dict:
    """Echo a config (family tag plus hyperparameters) for report metadata."""
    out = {"family": config.family}
    for f in fields(config):
        out[f.name] = getattr(config, f.name)
    return out
