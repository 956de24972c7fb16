"""Command-line entry point: describe, benchmark, importance, gen-data.

Configuration precedence: command-line flags override config-file values,
which override built-in defaults. The fully resolved configuration is echoed
into every emitted JSON document, so each run is self-describing.

Exit codes: 0 success, 2 input error, 3 execution failure.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

# One OpenBLAS thread per process, set before numpy loads; a caller's own
# setting wins. benchmark shares its fits between this process and one forked
# child, and more BLAS threads in each would only contend for the cores.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click

from . import dataset as ds
from . import evaluation as ev
from . import importance as imp
from . import models
from .datagen import generate_csv
from .errors import BatBenchError, ConfigError, InputError
from .models.config import check_settings, count, real, setting
from .rng import derive_seed

OUTPUT_FORMAT_VERSION = 1

# benchmark's plot tables: the report.json metrics each one lists per model.
# cv_<x> is the cv block's <x>; a failed model's entry holds only its error.
PLOT_TABLES = {
    "r2.csv": ("val_r2", "cv_mean_r2"),
    "errors.csv": ("val_mae", "val_rmse", "cv_mean_mae", "cv_mean_rmse", "error"),
    "stability_time.csv": ("cv_std_r2", "total_time_s"),
}

FAMILY_NAMES = {
    name: spec
    for spec in models.FAMILIES
    for name in (spec.family.lower(), spec.display_name.lower(), *spec.aliases)
}


@dataclass
class RunConfig:
    """One run's settings; a field's name is its config key and its flag's dest."""
    data_path: str | None = setting(
        None, ("a string", lambda v: v is None or isinstance(v, str)))
    seed: int = setting(42, count(0))
    split_ratio: float = setting(0.8, real("a number in (0, 1)", lambda v: 0.0 < v < 1.0))
    k_folds: int = setting(5, count(2))
    # empty means the full default roster
    models: tuple = setting((), ("a list", lambda v: isinstance(v, (list, tuple))))
    output_dir: str = setting("out", ("a string", lambda v: isinstance(v, str)))
    emit: tuple[str, ...] = setting(("json", "csv"), (
        "a subset of json,csv",
        lambda v: isinstance(v, (list, tuple)) and all(e in ("json", "csv") for e in v)))
    method: str | None = setting(None, ("impurity or permutation",
                                        lambda v: v in (None, "impurity", "permutation")))
    repeats: int = setting(10, count(1))

    def __post_init__(self):
        check_settings(self)
        self.models = tuple(self.models)
        self.emit = tuple(self.emit)


def _reject_unknown_keys(keys, cls, what: str) -> None:
    unknown = ", ".join(sorted(keys - {f.name for f in fields(cls)}))
    if unknown:
        raise ConfigError(f"{what}: {unknown}")


def _build_model_config(spec):
    """Model config from a CLI or config-file name or a ``{"family": ...}`` object."""
    if isinstance(spec, str):
        spec = {"family": spec}
    if not isinstance(spec, dict):
        raise ConfigError(f"model spec must be a name or an object, got {spec!r}")
    params = dict(spec)
    name = params.pop("family", None)
    family = FAMILY_NAMES.get(str(name).strip().lower())
    if family is None:
        raise ConfigError(f"unknown model name {name!r}")
    _reject_unknown_keys(params.keys(), family.config_cls,
                         f"unknown parameters for {family.family}")
    return family.config_cls(**params)


def resolve_config(config_path, **flags) -> RunConfig:
    """defaults <- config file <- command-line flags that were given."""
    values = {}
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            try:
                values = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
                raise ConfigError(f"{config_path}: invalid JSON ({exc})") from exc
        if not isinstance(values, dict):
            raise ConfigError(f"{config_path}: a run config must be a JSON object")
        _reject_unknown_keys(values.keys(), RunConfig,
                             f"{config_path}: unknown config keys")
    values.update((key, value) for key, value in flags.items() if value is not None)
    return RunConfig(**values)


def _model_configs(config: RunConfig):
    if not config.models:
        return models.default_roster()
    return [_build_model_config(s) for s in config.models]


def config_echo(config: RunConfig, model_configs) -> dict:
    """Every run setting but importance's own two, in field order."""
    echo = {f.name: getattr(config, f.name) for f in fields(config)
            if f.name not in ("method", "repeats")}
    return {**echo, "models": [models.config_to_dict(c) for c in model_configs],
            "emit": list(config.emit)}


def _load(config: RunConfig) -> ds.Dataset:
    if not config.data_path:
        raise ConfigError("no data file given (use --data or a config file)")
    return ds.load_csv(config.data_path)


def _check_scorable(data: ds.Dataset, rows, where: str) -> None:
    """Reject a validation side or fold that r_squared cannot score."""
    y = data.target[list(rows)]
    try:
        ev.r_squared(y, y)  # raises only on under 2 rows or a constant target
    except BatBenchError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _holdout_split(config: RunConfig, data: ds.Dataset) -> ds.SplitPlan:
    """The holdout split, rejected when its validation side cannot be scored."""
    split = ds.split(data.n_rows, config.split_ratio, config.seed)
    _check_scorable(data, split.validation_indices, f"the validation side of "
                    f"{data.n_rows} rows at ratio {config.split_ratio}")
    return split


def _out_dir(config: RunConfig) -> Path:
    path = Path(config.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _pct(value: float) -> str:
    return f"{value * 100.0:.1f}%"


def cli_errors(fn):
    """Map toolkit errors to the documented exit codes."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (BatBenchError, OSError, MemoryError) as exc:
            # numpy names the size it could not allocate; a bare MemoryError is empty
            click.echo(f"error: {str(exc) or type(exc).__name__}", err=True)
            sys.exit(2 if isinstance(exc, (InputError, OSError)) else 3)
    return wrapper


def _comma_list(ctx, param, value):
    """A comma-separated flag as a tuple of trimmed, lowercased tokens."""
    if value is None:
        return None
    return tuple(token.strip().lower() for token in value.split(",") if token.strip())


split_option = click.option("--split", "split_ratio", type=float, default=None,
                            help="Holdout train ratio in (0,1).")


def common_options(fn):
    fn = click.option("--data", "data_path", type=click.Path(), default=None,
                      help="Input CSV path.")(fn)
    fn = click.option("--config", "config_path", type=click.Path(), default=None,
                      help="JSON run-config file.")(fn)
    fn = click.option("--seed", type=int, default=None, help="Root seed.")(fn)
    fn = click.option("--out", "output_dir", type=click.Path(), default=None,
                      help="Output directory.")(fn)
    fn = click.option("--emit", default=None, callback=_comma_list,
                      help="Comma-separated output kinds: json,csv.")(fn)
    return fn


@click.group()
def main():
    """Regression benchmark toolkit for the baseball training table."""


@main.command()
@common_options
@cli_errors
def describe(config_path, **flags):
    """Summarize every column to describe.csv / describe.json."""
    config = resolve_config(config_path, **flags)
    data = _load(config)
    out = _out_dir(config)

    columns = {}
    for name in ds.ALL_COLUMNS:
        record = asdict(ds.describe(data, name))
        record.update((f"p{p}", v) for p, v in record.pop("percentiles").items())
        columns[name] = record

    if "csv" in config.emit:
        _write_csv(out / "describe.csv", ["column", *record],
                   [[name, *stats.values()] for name, stats in columns.items()])
    if "json" in config.emit:
        _write_json(out / "describe.json", {
            "format_version": OUTPUT_FORMAT_VERSION,
            "config": config_echo(config, []),
            "n_rows": data.n_rows,
            "n_dropped": data.n_dropped,
            "columns": columns,
        })
    click.echo(f"summarized {len(columns)} columns over {data.n_rows} rows "
               f"({data.n_dropped} dropped) -> {out}")


@main.command()
@common_options
@split_option
@click.option("--folds", "k_folds", type=int, default=None,
              help="Cross-validation fold count.")
@click.option("--models", default=None, callback=_comma_list,
              help="Comma-separated model names (default: all seven).")
@cli_errors
def benchmark(config_path, **flags):
    """Run holdout + K-fold for every model; write report and plot tables."""
    config = resolve_config(config_path, **flags)
    data = _load(config)
    model_configs = _model_configs(config)
    out = _out_dir(config)

    split = _holdout_split(config, data)
    plan = ev.kfold_plan(data.n_rows, config.k_folds,
                         derive_seed(config.seed, "kfold"))
    for fold in plan.folds:
        _check_scorable(data, fold, f"a fold of {config.k_folds} folds of "
                        f"{data.n_rows} rows")
    # KNN needs k training rows on the holdout and on every fold
    fewest = min(len(split.train_indices), data.n_rows - max(map(len, plan.folds)))
    for c in model_configs:
        if isinstance(c, models.KNNConfig) and c.k > fewest:
            raise ConfigError(f"k={c.k} exceeds the {fewest} rows of the "
                              "smallest training side")
    report = ev.benchmark(model_configs, data, split, plan)
    doc = ev.report_to_dict(report)
    doc["config"] = config_echo(config, model_configs)

    if "json" in config.emit:
        _write_json(out / "report.json", doc)
    if "csv" in config.emit:
        flat = {name: {**entry, **{f"cv_{k}": v for k, v in entry.get("cv", {}).items()}}
                for name, entry in doc["results"].items()}
        for file_name, metrics in PLOT_TABLES.items():
            _write_csv(out / file_name, ["model", "metric", "value"],
                       [[name, m, values[m]] for name, values in flat.items()
                        for m in metrics if m in values])

    ordered = sorted(
        report.results.values(),
        key=lambda r: (r.error is not None,
                       -(r.holdout.val_r2 if r.holdout else 0.0)),
    )
    width = max(len(r.name) for r in ordered)
    click.echo(f"{'model':<{width}}  {'val R2':>8}  {'cv R2 (mean+/-std)':>20}  "
               f"{'MAE':>9}  {'RMSE':>9}  {'time(s)':>8}")
    for res in ordered:
        if res.error is not None:
            click.echo(f"{res.name:<{width}}  error: {res.error}")
            continue
        cv_text = f"{_pct(res.cv.mean_r2)} +/- {_pct(res.cv.std_r2)}"
        click.echo(
            f"{res.name:<{width}}  {_pct(res.holdout.val_r2):>8}  {cv_text:>20}  "
            f"{res.holdout.val_mae:>9.2f}  {res.holdout.val_rmse:>9.2f}  "
            f"{res.total_time_s:>8.3f}"
        )


@main.command()
@common_options
@split_option
@click.option("--method", type=click.Choice(["impurity", "permutation"]),
              default=None, help="Write only this method (default: both).")
@click.option("--repeats", type=int, default=None,
              help="Shuffles per feature for permutation importance.")
@cli_errors
def importance(config_path, **flags):
    """Feature importance from a default gradient-boosting fit on the train split."""
    config = resolve_config(config_path, **flags)
    data = _load(config)
    out = _out_dir(config)

    split = _holdout_split(config, data)
    train_idx = list(split.train_indices)
    val_idx = list(split.validation_indices)
    gb_config = models.GradientBoostingConfig()
    model = models.fit_model(gb_config, data.features[train_idx],
                             data.target[train_idx])

    reports = {}
    if config.method in (None, "impurity"):
        reports["impurity"] = imp.impurity_importance(model, data.feature_names)
    if config.method in (None, "permutation"):
        reports["permutation"] = imp.permutation_importance(
            model, data.features[val_idx], data.target[val_idx],
            repeats=config.repeats, seed=derive_seed(config.seed, "permutation"),
            feature_names=data.feature_names,
        )
    primary = config.method or "impurity"

    if "csv" in config.emit:
        rows = [[name, reports[primary].weights[name], rank + 1]
                for rank, name in enumerate(reports[primary].ranking)]
        _write_csv(out / "importance.csv", ["feature", "weight", "rank"], rows)
    if "json" in config.emit:
        _write_json(out / "importance.json", {
            "format_version": OUTPUT_FORMAT_VERSION,
            "config": config_echo(config, [gb_config]),
            "method": primary,
            "repeats": config.repeats,
            "reports": {
                method: {k: v for k, v in asdict(rep).items() if k != "method"}
                for method, rep in reports.items()
            },
        })

    click.echo(f"top features ({primary}):")
    for rank, name in enumerate(reports[primary].ranking[:10], start=1):
        click.echo(f"{rank:>2}. {name:<8} {reports[primary].weights[name]:.4f}")


@main.command(name="gen-data")
@click.argument("out_path", type=click.Path())
@click.option("-n", "n_rows", type=int, default=322, help="Row count.")
@click.option("--seed", type=int, default=42, help="Generator seed.")
@cli_errors
def gen_data(out_path, n_rows, seed):
    """Write a synthetic table with a planted CHits/CRuns signal."""
    if n_rows < 1:
        raise ConfigError(f"-n must be >= 1, got {n_rows}")
    generate_csv(n_rows, seed, out_path)
    click.echo(f"wrote {n_rows} rows to {out_path}")


if __name__ == "__main__":
    main()
