"""Span recorder that wraps batbench's public entry points from outside.

Nothing in ``src/`` is edited: ``install`` replaces module attributes with
timing wrappers, so every call that goes through a module attribute (which is
how the CLI, ``evaluation`` and ``importance`` reach each other) records a
span.  Spans are kept in memory and written once, when the process ends.

Run as a script, it executes one ``batbench`` command under tracing:

    python perfbench/tracing.py SPANS.json -- benchmark --data data/canonical.csv
"""

from __future__ import annotations

import functools
import json
import sys
import time

# model family -> layer (module) name used in span and metric names
FAMILY_LAYER = {
    "DecisionTree": "models.tree",
    "RandomForest": "models.forest",
    "GradientBoosting": "models.boosting",
    "KernelRidge": "models.kernel",
    "SVR": "models.svr",
    "KNN": "models.knn",
    "LogitAdapted": "models.logit",
}


class Recorder:
    """In-memory spans: name, start, end, parent id and a few attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.svr_fits: list[dict] = []

    def open(self, name: str, **attrs) -> int:
        span_id = len(self.spans)
        self.spans.append({
            "id": span_id, "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None, **attrs,
        })
        self._stack.append(span_id)
        return span_id

    def close(self, span_id: int, **attrs) -> None:
        span = self.spans[span_id]
        span["end"] = time.perf_counter()
        span.update(attrs)
        self._stack.pop()

    def wrap(self, fn, name, before=None, after=None):
        """Wrap fn in a span; name may be a callable of the call's arguments."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            span_id = self.open(label, **(before(*args, **kwargs) if before else {}))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span_id, raised=True)
                raise
            self.close(span_id, **(after(result, *args, **kwargs) if after else {}))
            return result
        return traced

    def dump(self, path, **extra) -> None:
        import numpy as np
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **extra}, fh)
        if self.svr_fits:
            np.savez(str(path) + ".svr.npz", **{
                f"{i}_{key}": np.asarray(value)
                for i, fit in enumerate(self.svr_fits) for key, value in fit.items()
            })


def install(rec: Recorder) -> None:
    """Replace batbench's public entry points with span-recording wrappers."""
    import numpy as np

    from batbench import cli, datagen, dataset, evaluation, importance, models

    def patch(module, attr, name, **hooks):
        setattr(module, attr, rec.wrap(getattr(module, attr), name, **hooks))

    patch(dataset, "load_csv", "dataset:load_csv",
          after=lambda d, *a, **k: {"rows": d.n_rows + d.n_dropped})
    patch(dataset, "describe", "dataset:describe")
    # the holdout split is part of the evaluation plan, like the K-fold plan
    patch(dataset, "split", "evaluation:plan")
    patch(evaluation, "kfold_plan", "evaluation:plan")
    for attr in ("fit_scaler", "apply_scaler"):
        patch(evaluation, attr, "evaluation:scale")
    for attr in ("r_squared", "mae", "rmse"):
        patch(evaluation, attr, "evaluation:score")
    for attr in ("benchmark", "holdout_evaluate", "cross_validate"):
        patch(evaluation, attr, f"evaluation:{attr}")

    wrapped_gen = rec.wrap(datagen.generate_csv, "datagen:generate_csv")
    datagen.generate_csv = wrapped_gen
    cli.generate_csv = wrapped_gen  # the CLI binds the name at import

    def after_fit(model, config, X, y):
        if model.family == "SVR":
            rec.svr_fits.append({
                "X": np.asarray(X, dtype=np.float64),
                "y": np.asarray(y, dtype=np.float64),
                "beta": model.dual_coef, "bias": model.bias,
                "C": config.C, "epsilon": config.epsilon, "tol": config.tol,
                "gamma": config.gamma, "kernel": config.kernel,
                "converged": model.converged,
            })
            return {"sweeps": model.n_sweeps}
        return {}

    patch(models, "fit_model",
          lambda config, X, y: f"{FAMILY_LAYER[config.family]}:fit",
          after=after_fit)
    patch(models, "predict",
          lambda model, X: f"{FAMILY_LAYER[model.family]}:predict",
          before=lambda model, X: {"rows": len(X)})
    patch(models, "save_model", "models.serialize:save")
    patch(models, "load_model", "models.serialize:load")
    patch(importance, "permutation_importance", "importance:permutation")
    patch(importance, "impurity_importance", "importance:impurity")


def run_cli(spans_path: str, args: list[str]) -> int:
    # numpy is imported lazily in this file, so import_s is the full cost a
    # user pays for importing the CLI
    start = time.perf_counter()
    from batbench import cli
    import_s = time.perf_counter() - start
    rec = Recorder()
    install(rec)
    code = 0
    span_id = rec.open(f"cli:{args[0]}")
    try:
        cli.main.main(args=args, prog_name="batbench")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        rec.close(span_id)
        rec.dump(spans_path, import_s=import_s)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[2] != "--":
        sys.exit("usage: tracing.py SPANS.json -- <batbench command> [args...]")
    sys.exit(run_cli(sys.argv[1], sys.argv[3:]))
