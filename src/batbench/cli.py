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
import sys
from dataclasses import dataclass
from pathlib import Path

import click

from . import dataset as ds
from . import evaluation as ev
from . import importance as imp
from . import models
from .datagen import generate_csv
from .errors import (
    BadKError,
    BatBenchError,
    ConfigError,
    DegenerateSplitError,
    EmptyDataError,
    ParseError,
    SchemaError,
)
from .rng import derive_seed

OUTPUT_FORMAT_VERSION = 1

FAMILY_NAMES = {
    name: spec
    for spec in models.FAMILIES
    for name in (spec.family.lower(), spec.display_name.lower(), *spec.aliases)
}


@dataclass
class RunConfig:
    data_path: str | None = None
    seed: int = 42
    split_ratio: float = 0.8
    k_folds: int = 5
    model_specs: tuple = ()  # empty means the full default roster
    output_dir: str = "out"
    emit: tuple[str, ...] = ("json", "csv")
    method: str | None = None
    repeats: int = 10


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
    try:
        return family.config_cls(**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for {family.family}: {exc}") from exc


# config-file key -> RunConfig field
_FILE_KEYS = {
    "data_path": "data_path", "seed": "seed", "split_ratio": "split_ratio",
    "k_folds": "k_folds", "models": "model_specs", "output_dir": "output_dir",
    "emit": "emit", "method": "method", "repeats": "repeats",
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _validate(config: RunConfig) -> None:
    """Type and range of every field, whether it came from a file or a flag."""
    checks = {
        "data_path": (config.data_path is None or isinstance(config.data_path, str),
                      "a string"),
        "seed": (_is_int(config.seed) and config.seed >= 0, "an integer >= 0"),
        "split_ratio": (isinstance(config.split_ratio, float)
                        and 0.0 < config.split_ratio < 1.0, "a number in (0, 1)"),
        "k_folds": (_is_int(config.k_folds) and config.k_folds >= 2,
                    "an integer >= 2"),
        "models": (isinstance(config.model_specs, (list, tuple)), "a list"),
        "output_dir": (isinstance(config.output_dir, str), "a string"),
        "emit": (isinstance(config.emit, (list, tuple))
                 and all(e in ("json", "csv") for e in config.emit),
                 "a subset of json,csv"),
        "method": (config.method in (None, "impurity", "permutation"),
                   "impurity or permutation"),
        "repeats": (_is_int(config.repeats) and config.repeats >= 1,
                    "an integer >= 1"),
    }
    for key, (ok, expected) in checks.items():
        if not ok:
            value = getattr(config, _FILE_KEYS[key])
            raise ConfigError(f"{key} must be {expected}, got {value!r}")


def resolve_config(config_path, **flags) -> RunConfig:
    """defaults <- config file <- command-line flags, then validated."""
    resolved = RunConfig()
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            try:
                file_values = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{config_path}: invalid JSON ({exc})") from exc
        if not isinstance(file_values, dict):
            raise ConfigError(f"{config_path}: a run config must be a JSON object")
        for key, attr in _FILE_KEYS.items():
            if key in file_values:
                setattr(resolved, attr, file_values[key])
    mapping = {
        "data": "data_path", "seed": "seed", "split": "split_ratio",
        "folds": "k_folds", "out": "output_dir", "method": "method",
        "repeats": "repeats",
    }
    for flag, attr in mapping.items():
        if flags.get(flag) is not None:
            setattr(resolved, attr, flags[flag])
    if flags.get("models") is not None:
        resolved.model_specs = tuple(
            token for token in flags["models"].split(",") if token.strip()
        )
    if flags.get("emit") is not None:
        resolved.emit = tuple(
            token.strip().lower() for token in flags["emit"].split(",")
            if token.strip()
        )
    _validate(resolved)
    resolved.model_specs = tuple(resolved.model_specs)
    resolved.emit = tuple(resolved.emit)
    return resolved


def _model_configs(config: RunConfig):
    if not config.model_specs:
        return models.default_roster()
    return [_build_model_config(s) for s in config.model_specs]


def config_echo(config: RunConfig, model_configs) -> dict:
    return {
        "data_path": config.data_path,
        "seed": config.seed,
        "split_ratio": config.split_ratio,
        "k_folds": config.k_folds,
        "models": [models.config_to_dict(c) for c in model_configs],
        "output_dir": config.output_dir,
        "emit": list(config.emit),
    }


def _load(config: RunConfig) -> ds.Dataset:
    if not config.data_path:
        raise ConfigError("no data file given (use --data or a config file)")
    return ds.load_csv(config.data_path)


def _holdout_split(config: RunConfig, data: ds.Dataset) -> ds.SplitPlan:
    """The holdout split, rejected when its validation side is too small to score."""
    split = ds.split(data.n_rows, config.split_ratio, config.seed)
    if len(split.validation_indices) < 2:
        raise ConfigError(
            f"split of {data.n_rows} rows at ratio {config.split_ratio} leaves "
            f"{len(split.validation_indices)} validation row; scoring needs 2"
        )
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
        except (SchemaError, ParseError, EmptyDataError, ConfigError,
                DegenerateSplitError, BadKError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except OSError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except BatBenchError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
    return wrapper


split_option = click.option("--split", type=float, default=None,
                            help="Holdout train ratio in (0,1).")


def common_options(fn):
    fn = click.option("--data", type=click.Path(), default=None,
                      help="Input CSV path.")(fn)
    fn = click.option("--config", "config_path", type=click.Path(), default=None,
                      help="JSON run-config file.")(fn)
    fn = click.option("--seed", type=int, default=None, help="Root seed.")(fn)
    fn = click.option("--out", type=click.Path(), default=None,
                      help="Output directory.")(fn)
    fn = click.option("--emit", default=None,
                      help="Comma-separated output kinds: json,csv.")(fn)
    fn = click.option("--no-color", is_flag=True, default=False,
                      help="Disable colored output (output is already plain).")(fn)
    return fn


@click.group()
def main():
    """Regression benchmark toolkit for the baseball training table."""


@main.command()
@common_options
@cli_errors
def describe(config_path, no_color, **flags):
    """Summarize every column to describe.csv / describe.json."""
    config = resolve_config(config_path, **flags)
    data = _load(config)
    out = _out_dir(config)

    stat_names = ["count", "mean", "std", "min", "max"] + \
        [f"p{p}" for p in ds.PERCENTILE_POINTS]
    columns = {}
    rows = []
    for name in ds.ALL_COLUMNS:
        summary = ds.describe(data, name)
        record = {
            "count": summary.count, "mean": summary.mean, "std": summary.std,
            "min": summary.min, "max": summary.max,
        }
        for p in ds.PERCENTILE_POINTS:
            record[f"p{p}"] = summary.percentiles[p]
        columns[name] = record
        rows.append([name] + [record[s] for s in stat_names])

    if "csv" in config.emit:
        _write_csv(out / "describe.csv", ["column"] + stat_names, rows)
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
@click.option("--folds", type=int, default=None,
              help="Cross-validation fold count.")
@click.option("--models", default=None,
              help="Comma-separated model names (default: all seven).")
@cli_errors
def benchmark(config_path, no_color, **flags):
    """Run holdout + K-fold for every model; write report and plot tables."""
    config = resolve_config(config_path, **flags)
    data = _load(config)
    model_configs = _model_configs(config)
    out = _out_dir(config)

    split = _holdout_split(config, data)
    plan = ev.kfold_plan(data.n_rows, config.k_folds,
                         derive_seed(config.seed, "kfold"))
    smallest = min(len(fold) for fold in plan.folds)
    if smallest < 2:
        raise ConfigError(
            f"{config.k_folds} folds of {data.n_rows} rows leave a fold of "
            f"{smallest} row; scoring needs 2"
        )
    report = ev.benchmark(model_configs, data, split, plan)
    doc = ev.report_to_dict(report)
    doc["config"] = config_echo(config, model_configs)

    if "json" in config.emit:
        _write_json(out / "report.json", doc)
    if "csv" in config.emit:
        r2_rows, err_rows, stab_rows = [], [], []
        for name, res in report.results.items():
            if res.error is not None:
                err_rows.append([name, "error", res.error])
                continue
            r2_rows.append([name, "val_r2", res.holdout.val_r2])
            r2_rows.append([name, "cv_mean_r2", res.cv.mean_r2])
            err_rows.append([name, "val_mae", res.holdout.val_mae])
            err_rows.append([name, "val_rmse", res.holdout.val_rmse])
            err_rows.append([name, "cv_mean_mae", res.cv.mean_mae])
            err_rows.append([name, "cv_mean_rmse", res.cv.mean_rmse])
            stab_rows.append([name, "cv_std_r2", res.cv.std_r2])
            stab_rows.append([name, "total_time_s", round(res.total_time_s, 3)])
        header = ["model", "metric", "value"]
        _write_csv(out / "r2.csv", header, r2_rows)
        _write_csv(out / "errors.csv", header, err_rows)
        _write_csv(out / "stability_time.csv", header, stab_rows)

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
def importance(config_path, no_color, **flags):
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
                method: {
                    "weights": rep.weights,
                    "ranking": list(rep.ranking),
                    "uniform_fallback": rep.uniform_fallback,
                }
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
