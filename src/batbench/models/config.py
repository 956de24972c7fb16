"""Model family configurations.

Defaults follow mainstream-toolkit conventions. Each field is declared once,
by ``setting``, with its default and its rule: a (text, test) pair. At
construction ``check_settings`` raises "<name> must be <text>, got <value!r>"
for the first value that fails its test.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field, fields

from ..dataset import FEATURE_NAMES
from ..errors import ConfigError

N_FEATURES = len(FEATURE_NAMES)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """An int or float, not a bool, within the finite float64 range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def count(lo: int, optional: bool = False):
    """An integer, not a bool, >= ``lo``; with ``optional``, None too."""
    text = f"an integer >= {lo}"
    return (f"None or {text}" if optional else text,
            lambda v: (optional and v is None) or (_is_int(v) and v >= lo))


def real(text: str, test):
    """A finite int or float, not a bool, that passes ``test``."""
    return text, lambda v: _is_real(v) and test(v)


def one_of(*choices: str):
    return " or ".join(choices), lambda v: v in choices


POSITIVE = real("a finite number > 0", lambda v: v > 0.0)
INTEGER = "an integer", _is_int
FLAG = "true or false", lambda v: isinstance(v, bool)
KERNEL = one_of("linear", "rbf")


def setting(default, rule, message: str | None = None):
    """A dataclass field with its default and its rule; ``message`` replaces the text."""
    return field(default=default, metadata={"rule": rule, "message": message})


def check_settings(config) -> None:
    """Raise ConfigError for the first field whose value breaks its rule."""
    for f in fields(config):
        if "rule" not in f.metadata:
            raise TypeError(f"{type(config).__name__}.{f.name} has no rule; "
                            "declare it with setting()")
        (text, test), value = f.metadata["rule"], getattr(config, f.name)
        if not test(value):
            raise ConfigError(f.metadata["message"]
                              or f"{f.name} must be {text}, got {value!r}")


@dataclass(frozen=True)
class KNNConfig:
    family = "KNN"
    k: int = setting(5, count(1))
    distance: str = setting("euclidean", one_of("euclidean"),
                            "only euclidean distance is supported")
    weighting: str = setting("uniform", one_of("uniform"),
                             "only uniform weighting is supported")
    __post_init__ = check_settings


@dataclass(frozen=True)
class DecisionTreeConfig:
    family = "DecisionTree"
    max_depth: int | None = setting(8, count(0, optional=True))
    min_samples_leaf: int = setting(5, count(1))
    __post_init__ = check_settings


@dataclass(frozen=True)
class RandomForestConfig:
    family = "RandomForest"
    n_trees: int = setting(100, count(1))
    max_depth: int | None = setting(None, count(0, optional=True))
    min_samples_leaf: int = setting(1, count(1))
    bootstrap: bool = setting(True, FLAG)
    max_features: int = setting(math.ceil(N_FEATURES / 3), count(1))
    seed: int = setting(0, INTEGER)
    __post_init__ = check_settings


@dataclass(frozen=True)
class GradientBoostingConfig:
    family = "GradientBoosting"
    n_estimators: int = setting(100, count(0))
    learning_rate: float = setting(0.1, real("a number in (0, 1]", lambda v: 0 < v <= 1))
    max_depth: int | None = setting(3, count(0, optional=True))
    min_samples_leaf: int = setting(5, count(1))
    seed: int = setting(0, INTEGER)
    __post_init__ = check_settings


@dataclass(frozen=True)
class KernelRidgeConfig:
    family = "KernelRidge"
    alpha: float = setting(1.0, POSITIVE)
    kernel: str = setting("rbf", KERNEL)
    gamma: float = setting(1.0 / N_FEATURES, POSITIVE)
    __post_init__ = check_settings


@dataclass(frozen=True)
class SVRConfig:
    family = "SVR"
    C: float = setting(1.0, POSITIVE)
    epsilon: float = setting(0.1, real("a finite number >= 0", lambda v: v >= 0.0))
    kernel: str = setting("rbf", KERNEL)
    gamma: float = setting(1.0 / N_FEATURES, POSITIVE)
    max_iter: int = setting(1000, count(1))
    tol: float = setting(1e-3, POSITIVE)
    __post_init__ = check_settings


@dataclass(frozen=True)
class LogitAdaptedConfig:
    family = "LogitAdapted"
    alpha: float = setting(1.0, POSITIVE)
    clamp: float = setting(0.01, real("a number in (0, 0.5)", lambda v: 0.0 < v < 0.5))
    __post_init__ = check_settings


def config_to_dict(config) -> dict:
    """Echo a config (family tag plus hyperparameters) for report metadata."""
    return {"family": config.family, **asdict(config)}
