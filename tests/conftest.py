import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from batbench.dataset import FEATURE_NAMES, Dataset, load_csv
from batbench.models import TreeModel

CANONICAL_PATH = Path(__file__).resolve().parents[1] / "data" / "canonical.csv"


@pytest.fixture(scope="session")
def canonical_path() -> Path:
    return CANONICAL_PATH


@pytest.fixture(scope="session")
def canonical(canonical_path) -> Dataset:
    return load_csv(canonical_path)


def make_dataset(features, target, n_dropped=0) -> Dataset:
    """Dataset from raw arrays, padding feature count up to the schema's 16."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[1] != len(FEATURE_NAMES):
        pad = np.zeros((features.shape[0], len(FEATURE_NAMES) - features.shape[1]))
        features = np.hstack([features, pad])
    return Dataset(
        feature_names=FEATURE_NAMES,
        features=features,
        target=np.asarray(target, dtype=np.float64),
        n_rows=features.shape[0],
        n_dropped=n_dropped,
    )


def write_table(path, header, rows) -> Path:
    lines = [",".join(header)]
    lines += [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def strip_times(node):
    """A report document without its ``*_time_s`` fields."""
    if isinstance(node, dict):
        return {k: strip_times(v) for k, v in node.items()
                if not k.endswith("_time_s")}
    if isinstance(node, list):
        return [strip_times(v) for v in node]
    return node


def v1_state(model) -> dict:
    """A model's state as a version-1 model file holds it: its constructor's
    parameters in signature order, arrays as nested lists, tree ensembles as
    lists of tree states."""
    def encode(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, tuple):
            return [encode(v) for v in value]
        return v1_state(value) if isinstance(value, TreeModel) else value
    return {name: encode(getattr(model, name))
            for name in inspect.signature(type(model)).parameters}


def v1_document(model) -> str:
    """The text of the model's version-1 file: ``json.dumps`` of its format
    version, family and state."""
    return json.dumps({"format_version": 1, "family": model.family,
                       "state": v1_state(model)})
