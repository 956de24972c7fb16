"""Metrics, K-fold plans, holdout evaluation, and the multi-model benchmark."""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import models
from .dataset import Dataset, SplitPlan, apply_scaler, fit_scaler
from .errors import (
    AllModelsFailedError,
    BadKError,
    BatBenchError,
    ConstantTargetError,
    EmptyVectorsError,
    LengthMismatchError,
)

REPORT_FORMAT_VERSION = 1


def _paired(y, pred):
    y = np.asarray(y, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if len(y) != len(pred):
        raise LengthMismatchError(f"lengths differ: {len(y)} vs {len(pred)}")
    return y, pred


def r_squared(y, pred) -> float:
    """Coefficient of determination; unbounded below for bad predictors."""
    y, pred = _paired(y, pred)
    if len(y) < 2:
        raise LengthMismatchError("r_squared needs at least 2 points")
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        raise ConstantTargetError("r_squared is undefined for a constant target")
    ss_res = float(np.sum((y - pred) ** 2))
    return 1.0 - ss_res / ss_tot


def mae(y, pred) -> float:
    y, pred = _paired(y, pred)
    if len(y) == 0:
        raise EmptyVectorsError("mae of empty vectors")
    return float(np.mean(np.abs(y - pred)))


def rmse(y, pred) -> float:
    y, pred = _paired(y, pred)
    if len(y) == 0:
        raise EmptyVectorsError("rmse of empty vectors")
    return float(np.sqrt(np.mean((y - pred) ** 2)))


@dataclass(frozen=True)
class FoldPlan:
    k: int
    folds: tuple[tuple[int, ...], ...]
    seed: int


def kfold_plan(n: int, k: int, seed: int) -> FoldPlan:
    """Seeded shuffle dealt round-robin into k folds (sizes differ by <= 1)."""
    if not 2 <= k <= n:
        raise BadKError(f"need 2 <= k <= n, got k={k}, n={n}")
    perm = np.random.default_rng(seed).permutation(n).tolist()
    folds = tuple(tuple(perm[j::k]) for j in range(k))
    return FoldPlan(k=k, folds=folds, seed=seed)


@dataclass(frozen=True)
class CVResult:
    per_fold_r2: tuple[float, ...]
    mean_r2: float
    std_r2: float
    per_fold_mae: tuple[float, ...]
    per_fold_rmse: tuple[float, ...]
    mean_mae: float
    mean_rmse: float
    fit_time_s: float


@dataclass(frozen=True)
class HoldoutResult:
    val_r2: float
    val_mae: float
    val_rmse: float
    fit_time_s: float


def _fit_and_score(config, dataset: Dataset, train_idx, eval_idx):
    """Train on train_idx, score on eval_idx; scaling stays train-only.

    Returns (r2, mae, rmse, seconds), the field order of HoldoutResult.
    """
    train_idx = np.asarray(train_idx, dtype=np.intp)
    eval_idx = np.asarray(eval_idx, dtype=np.intp)
    assert len(np.intersect1d(train_idx, eval_idx)) == 0, "train/eval overlap"

    spec = models.family_spec(config)
    X_train = dataset.features[train_idx]
    y_train = dataset.target[train_idx]
    X_eval = dataset.features[eval_idx]

    start = time.perf_counter()
    if spec.scale_sensitive:
        scaler = fit_scaler(dataset, train_idx.tolist())
        assert scaler.fitted_on <= set(int(i) for i in train_idx), \
            "scaler leaked non-train rows"
        X_train = apply_scaler(scaler, X_train)
        X_eval = apply_scaler(scaler, X_eval)
    model = models.fit_model(config, X_train, y_train)
    pred = models.predict(model, X_eval)
    elapsed = time.perf_counter() - start

    y_eval = dataset.target[eval_idx]
    return (
        r_squared(y_eval, pred),
        mae(y_eval, pred),
        rmse(y_eval, pred),
        elapsed,
    )


def cross_validate(config, dataset: Dataset, plan: FoldPlan) -> CVResult:
    """K-fold evaluation; each fold's scaler and model never see fold rows."""
    all_rows = np.arange(dataset.n_rows)
    scores = []
    for fold_idx, fold in enumerate(plan.folds):
        fold_arr = np.asarray(fold, dtype=np.intp)
        try:
            scores.append(_fit_and_score(
                config, dataset, np.setdiff1d(all_rows, fold_arr), fold_arr))
        except BatBenchError as exc:
            raise type(exc)(f"fold {fold_idx}: {exc}") from exc
    r2s, maes, rmses, times = zip(*scores)
    return CVResult(
        per_fold_r2=r2s,
        mean_r2=float(np.mean(r2s)),
        std_r2=float(np.std(r2s, ddof=1)) if len(r2s) > 1 else 0.0,
        per_fold_mae=maes,
        per_fold_rmse=rmses,
        mean_mae=float(np.mean(maes)),
        mean_rmse=float(np.mean(rmses)),
        fit_time_s=sum(times),
    )


def holdout_evaluate(config, dataset: Dataset, split: SplitPlan) -> HoldoutResult:
    """Fit on the train side, score on the validation side."""
    return HoldoutResult(*_fit_and_score(
        config, dataset, split.train_indices, split.validation_indices))


@dataclass(frozen=True)
class ModelResult:
    name: str
    family: str
    holdout: HoldoutResult | None
    cv: CVResult | None
    total_time_s: float
    error: str | None = None


@dataclass(frozen=True)
class EvaluationReport:
    results: dict[str, ModelResult]
    metadata: dict = field(default_factory=dict)


def dataset_fingerprint(dataset: Dataset) -> dict:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(dataset.features).tobytes())
    digest.update(np.ascontiguousarray(dataset.target).tobytes())
    return {"n_rows": dataset.n_rows, "checksum": digest.hexdigest()}


def benchmark(configs, dataset: Dataset, split: SplitPlan,
              plan: FoldPlan) -> EvaluationReport:
    """Holdout + K-fold for every config; one failure never aborts the rest."""
    if not configs:
        raise AllModelsFailedError("benchmark called with no model configs")
    results: dict[str, ModelResult] = {}
    for config in configs:
        spec = models.family_spec(config)
        try:
            holdout = holdout_evaluate(config, dataset, split)
            cv = cross_validate(config, dataset, plan)
            error = None
        except BatBenchError as exc:  # report, do not abort the run
            holdout = cv = None
            error = f"{type(exc).__name__}: {exc}"
        results[spec.display_name] = ModelResult(
            spec.display_name, spec.family, holdout, cv,
            0.0 if error else holdout.fit_time_s + cv.fit_time_s, error)
    if all(r.error is not None for r in results.values()):
        raise AllModelsFailedError(
            "every model failed: " +
            "; ".join(f"{name}: {r.error}" for name, r in results.items())
        )
    metadata = {
        "seed": split.seed,
        "split_ratio": split.ratio,
        "k_folds": plan.k,
        "fold_seed": plan.seed,
        "dataset": dataset_fingerprint(dataset),
        "models": [models.config_to_dict(c) for c in configs],
    }
    return EvaluationReport(results=results, metadata=metadata)


def report_to_dict(report: EvaluationReport) -> dict:
    """JSON-ready view of the result records; `_time_s` fields to the ms."""
    out = {
        "format_version": REPORT_FORMAT_VERSION,
        "metadata": report.metadata,
        "results": {},
    }
    for name, res in report.results.items():
        if res.error is not None:
            out["results"][name] = {"family": res.family, "error": res.error}
            continue
        holdout = asdict(res.holdout)
        fit_time_s = holdout.pop("fit_time_s")
        out["results"][name] = {
            "family": res.family, **holdout,
            "cv": {**asdict(res.cv), "fit_time_s": round(res.cv.fit_time_s, 3)},
            "fit_time_s": round(fit_time_s, 3),
            "total_time_s": round(res.total_time_s, 3),
        }
    return out
