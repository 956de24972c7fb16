"""Seven regressor families behind one fit/predict contract.

``FAMILIES`` declares each family once; ``fit_model`` dispatches on the
config type through a registry built from it. Tests can register extra
families (stubs, oracles) with ``register_family``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import DimensionMismatchError, EmptyTrainingSetError
from .boosting import BoostingModel, fit_gradient_boosting
from .config import (
    DecisionTreeConfig,
    GradientBoostingConfig,
    KNNConfig,
    KernelRidgeConfig,
    LogitAdaptedConfig,
    RandomForestConfig,
    SVRConfig,
    config_to_dict,
)
from .forest import ForestModel, fit_random_forest
from .grow import fit_decision_tree, grow_tree
from .kernel import KernelRidgeModel, cholesky_solve, fit_kernel_ridge, kernel_matrix
from .knn import KNNModel, fit_knn
from .logit import LogitModel, fit_logit_adapted
from .serialize import load_model, model_from_dict, model_to_dict, save_model
from .svr import SVRModel, fit_svr
from .tree import TreeModel


@dataclass(frozen=True)
class FamilySpec:
    family: str
    display_name: str  # report and console name
    config_cls: type
    model_cls: type | None
    fit: Callable
    scale_sensitive: bool = False
    aliases: tuple[str, ...] = ()  # CLI names besides the lowercased two above
    # Fit and predict run on one thread (numpy without BLAS calls), so
    # ``evaluation.benchmark`` may run this family's jobs in a forked child
    # beside the calling process. False keeps the jobs in the caller: a BLAS
    # family's threads would share the cores with the other process's, and a
    # registered family's fit may record into the caller's memory.
    single_threaded: bool = False


# the default benchmark roster, in report order
FAMILIES = (
    FamilySpec("SVR", "SVM", SVRConfig, SVRModel, fit_svr, scale_sensitive=True),
    FamilySpec("KNN", "KNeighbors", KNNConfig, KNNModel, fit_knn,
               scale_sensitive=True),
    FamilySpec("KernelRidge", "KernelRidge", KernelRidgeConfig, KernelRidgeModel,
               fit_kernel_ridge, scale_sensitive=True, aliases=("kernel_ridge", "kr")),
    FamilySpec("DecisionTree", "DecisionTree", DecisionTreeConfig, TreeModel,
               fit_decision_tree, aliases=("tree", "dt"), single_threaded=True),
    FamilySpec("RandomForest", "RandomForest", RandomForestConfig, ForestModel,
               fit_random_forest, aliases=("rf", "forest"), single_threaded=True),
    FamilySpec("LogitAdapted", "LogitAdapted", LogitAdaptedConfig, LogitModel,
               fit_logit_adapted, scale_sensitive=True, aliases=("logit", "logistic")),
    FamilySpec("GradientBoosting", "GradientBoosting", GradientBoostingConfig,
               BoostingModel, fit_gradient_boosting, aliases=("gb", "boosting"),
               single_threaded=True),
)

_REGISTRY: dict[type, FamilySpec] = {spec.config_cls: spec for spec in FAMILIES}


def register_family(family: str, config_cls: type, fit: Callable,
                    scale_sensitive: bool = False,
                    display_name: str | None = None) -> None:
    """Make ``fit_model`` accept ``config_cls``; it never joins the roster."""
    _REGISTRY[config_cls] = FamilySpec(
        family, display_name or family, config_cls, None, fit, scale_sensitive,
    )


def unregister_family(config_cls: type) -> None:
    _REGISTRY.pop(config_cls, None)


def family_spec(config) -> FamilySpec:
    try:
        return _REGISTRY[type(config)]
    except KeyError:
        raise TypeError(f"unregistered model config type: {type(config)!r}") from None


def default_roster() -> list:
    """All seven families with default hyperparameters, in report order."""
    return [spec.config_cls() for spec in FAMILIES]


def fit_model(config, X, y):
    """Fit the family selected by the config; returns an immutable model.

    The one check of training data: family fit functions take a 2-D float64
    ``X`` with at least one row and a float64 ``y`` with one entry per row.
    """
    spec = family_spec(config)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatchError(f"training matrix must be 2-D, got ndim={X.ndim}")
    if y.shape != (len(X),):
        raise DimensionMismatchError(
            f"target must be a vector of {len(X)} values, got shape {y.shape}")
    if len(X) == 0:
        raise EmptyTrainingSetError(f"cannot fit {spec.family} on zero rows")
    return spec.fit(config, X, y)


def predict(model, X) -> np.ndarray:
    """Uniform prediction surface: finite vector, one entry per query row.

    The one check of queries: model ``predict`` methods take a 2-D float64
    matrix of the fitted width.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatchError(f"query matrix must be 2-D, got ndim={X.ndim}")
    if X.shape[1] != model.n_features_in:
        raise DimensionMismatchError(
            f"expected {model.n_features_in} columns, got {X.shape[1]}")
    return model.predict(X)


__all__ = [
    "BoostingModel", "ForestModel", "KNNModel", "KernelRidgeModel",
    "LogitModel", "SVRModel", "TreeModel",
    "KNNConfig", "DecisionTreeConfig", "RandomForestConfig",
    "GradientBoostingConfig", "KernelRidgeConfig", "SVRConfig",
    "LogitAdaptedConfig",
    "FAMILIES", "FamilySpec", "default_roster", "config_to_dict",
    "fit_model", "predict", "family_spec", "register_family",
    "unregister_family",
    "fit_knn", "fit_decision_tree", "fit_random_forest",
    "fit_gradient_boosting", "fit_kernel_ridge", "fit_svr",
    "fit_logit_adapted", "grow_tree",
    "cholesky_solve", "kernel_matrix",
    "model_to_dict", "model_from_dict", "save_model", "load_model",
]
