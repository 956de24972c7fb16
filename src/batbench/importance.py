"""Per-feature importance: impurity-based for tree families, permutation for any."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .errors import UnsupportedFamilyError
from .evaluation import r_squared
from .rng import derive_seed


@dataclass(frozen=True)
class ImportanceReport:
    weights: dict[str, float]
    method: str
    ranking: tuple[str, ...]
    uniform_fallback: bool = False


def _make_report(raw: np.ndarray, names, method: str) -> ImportanceReport:
    names = list(names)
    if len(names) != len(raw):
        raise ValueError(f"{len(names)} names for {len(raw)} features")
    total = float(np.sum(raw))
    if total > 0.0:
        weights = raw / total
        fallback = False
    else:
        weights = np.full(len(raw), 1.0 / len(raw))
        fallback = True
    order = np.argsort(-weights, kind="stable")
    return ImportanceReport(
        weights={name: float(w) for name, w in zip(names, weights)},
        method=method,
        ranking=tuple(names[i] for i in order),
        uniform_fallback=fallback,
    )


def impurity_importance(model, feature_names) -> ImportanceReport:
    """Normalized sum of weighted variance reductions across all splits."""
    if not hasattr(model, "impurity_contributions"):
        raise UnsupportedFamilyError(
            f"impurity importance needs a tree family, got {model.family!r}"
        )
    return _make_report(model.impurity_contributions(), feature_names, "impurity")


def permutation_importance(model, X, y, repeats: int, seed: int,
                           feature_names=None) -> ImportanceReport:
    """Mean R2 drop over seeded shuffles of each column, floored at zero."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if feature_names is None:
        feature_names = [f"f{j}" for j in range(X.shape[1])]
    baseline = r_squared(y, models.predict(model, X))
    raw = np.zeros(X.shape[1], dtype=np.float64)
    for j in range(X.shape[1]):
        drops = []
        for r in range(repeats):
            rng = np.random.default_rng(derive_seed(seed, f"permute-{j}", r))
            shuffled = X.copy()
            shuffled[:, j] = X[rng.permutation(len(X)), j]
            drops.append(baseline - r_squared(y, models.predict(model, shuffled)))
        raw[j] = max(0.0, float(np.mean(drops)))
    return _make_report(raw, feature_names, "permutation")
