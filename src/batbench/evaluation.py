"""Metrics, K-fold plans, holdout evaluation, and the multi-model benchmark."""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import models
from .dataset import Dataset, SplitPlan, apply_scaler, fit_scaler
from .errors import (
    AllModelsFailedError,
    BadKError,
    BatBenchError,
    ConfigError,
    ConstantTargetError,
    EmptyVectorsError,
    EvaluationChildError,
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


class _Job(NamedTuple):
    """One fit: a config trained on train_rows and scored on eval_rows.

    The rows are the split's and the plan's own tuples, not copies; a fold's
    train rows (None here) are built when the job runs, so a job list costs
    no memory per row.
    """

    model: int  # the config's position in the roster
    fold: int | None  # None for the holdout
    config: object
    train_rows: tuple[int, ...] | None  # None: every row outside eval_rows
    eval_rows: tuple[int, ...]


def _holdout_job(model: int, config, split: SplitPlan) -> _Job:
    return _Job(model, None, config, split.train_indices, split.validation_indices)


def _fold_jobs(model: int, config, plan: FoldPlan) -> list[_Job]:
    return [_Job(model, fold_idx, config, None, fold)
            for fold_idx, fold in enumerate(plan.folds)]


def _outcomes(jobs, dataset: Dataset):
    """Each job's score tuple, or the exception its fit raised, in order.

    A job runs only when its outcome is asked for. A fold's ``BatBenchError``
    becomes one of its type whose message starts ``fold i:``. After a model's
    first failure its later jobs in this list are skipped (None): a model's
    result is decided by its first failing job.
    """
    failed = set()
    for job in jobs:
        if job.model in failed:
            yield None
            continue
        eval_rows = np.asarray(job.eval_rows, dtype=np.intp)
        train_rows = job.train_rows
        if train_rows is None:
            train_rows = np.setdiff1d(np.arange(dataset.n_rows), eval_rows)
        try:
            outcome = _fit_and_score(job.config, dataset, train_rows, eval_rows)
        except Exception as exc:  # the caller records a BatBenchError, raises a bug
            if isinstance(exc, BatBenchError) and job.fold is not None:
                tagged = type(exc)(f"fold {job.fold}: {exc}")
                tagged.__cause__ = exc
                exc = tagged
            outcome = exc
            failed.add(job.model)
        yield outcome


def _run_jobs(jobs, dataset: Dataset) -> list:
    """Every job's outcome (see ``_outcomes``), as one list."""
    return list(_outcomes(jobs, dataset))


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _child_main(sender, jobs, dataset: Dataset) -> None:
    sender.send(_run_jobs(jobs, dataset))
    sender.close()


def _shares(jobs: list[_Job]) -> tuple[list[int], list[int]]:
    """The indices of the jobs this process and the child run, in run order.

    The jobs are dealt alternately, so the shares differ by at most one job,
    and each share runs its ``calls_blas`` jobs after all its other jobs.
    """
    blas = [models.family_spec(job.config).calls_blas for job in jobs]
    order = sorted(range(len(jobs)), key=blas.__getitem__)  # stable: job order
    return order[0::2], order[1::2]


def _run_all(jobs: list[_Job], dataset: Dataset) -> list:
    """``_run_jobs`` of every job, in two processes where two CPUs allow.

    With at least two jobs, two usable CPUs and ``os.fork``, one forked child
    runs one of the two ``_shares`` while this process runs the other. The
    child inherits the configs and the dataset; only its outcomes cross the
    pipe. Before each of its own jobs this process looks whether the child
    has exited, so a child that dies without sending its outcomes raises
    ``EvaluationChildError`` before the next job, not after the whole share.
    Without a child this process runs every job in job order.
    """
    if len(jobs) < 2 or _usable_cpus() < 2 or not hasattr(os, "fork"):
        return _run_jobs(jobs, dataset)
    import multiprocessing  # here only: importing it costs about 1.3 MB

    outcomes: list = [None] * len(jobs)
    mine, theirs = _shares(jobs)
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_main,
                        args=(sender, [jobs[i] for i in theirs], dataset))
    child.start()
    sender.close()
    received = None
    try:
        own = _outcomes([jobs[i] for i in mine], dataset)
        for i in mine:
            # a child that has exited sent its results or died: find out now
            if received is None and child.exitcode is not None:
                received = _receive(receiver, child)
            outcomes[i] = next(own)
        if received is None:
            received = _receive(receiver, child)
    finally:
        receiver.close()
        if child.is_alive():  # this process raised: leave no child running
            child.kill()
            child.join()
    for i, outcome in zip(theirs, received):
        outcomes[i] = outcome
    return outcomes


def _receive(receiver, child) -> list:
    """The child's outcomes, once it has sent them and exited."""
    try:
        received = receiver.recv()
    except EOFError:
        child.join()
        raise EvaluationChildError("evaluation child exited with code "
                                   f"{child.exitcode} before sending its results") from None
    child.join()
    return received


def _scores(outcomes) -> list[tuple]:
    """The score tuples of one model's jobs; raises its first failure."""
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    return outcomes


def _cv_result(scores) -> CVResult:
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


def cross_validate(config, dataset: Dataset, plan: FoldPlan) -> CVResult:
    """K-fold evaluation; each fold's scaler and model never see fold rows."""
    return _cv_result(_scores(_run_jobs(_fold_jobs(0, config, plan), dataset)))


def holdout_evaluate(config, dataset: Dataset, split: SplitPlan) -> HoldoutResult:
    """Fit on the train side, score on the validation side."""
    return HoldoutResult(*_scores(_run_jobs([_holdout_job(0, config, split)], dataset))[0])


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
    """Holdout + K-fold for every config; one failure never aborts the rest.

    Every fit is one job in one list: for each config its holdout, then fold
    0..k-1. Fits do not depend on which process runs them, so ``_run_all``
    may share every family's jobs with one forked child. A model's result or
    error comes from its first failing job in job order, as if its jobs had
    run one after another. Two configs of one display name raise ConfigError
    before any fit.

    This leaves the BLAS thread count as the caller's process has it. The
    CLI pins one thread; a caller with more pays for their contention in the
    KernelRidge and LogitAdapted jobs, which then run in both processes.
    """
    if not configs:
        raise AllModelsFailedError("benchmark called with no model configs")
    names = [models.family_spec(config).display_name for config in configs]
    for i, name in enumerate(names):
        if name in names[:i]:  # the report keys its results by this name
            raise ConfigError(f"two models are named {name!r}")
    per_model = [[_holdout_job(m, config, split), *_fold_jobs(m, config, plan)]
                 for m, config in enumerate(configs)]
    outcomes = iter(_run_all([job for jobs in per_model for job in jobs], dataset))
    results: dict[str, ModelResult] = {}
    for config, jobs in zip(configs, per_model):
        spec = models.family_spec(config)
        try:
            holdout_scores, *fold_scores = _scores(
                [next(outcomes) for _ in jobs])
            holdout = HoldoutResult(*holdout_scores)
            cv = _cv_result(fold_scores)
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
