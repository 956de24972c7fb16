"""Contracts every family must honor: determinism, predict surface, model files."""

import inspect
import io
import json
import tracemalloc
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest

from batbench import models
from batbench.dataset import apply_scaler, fit_scaler, split
from batbench.errors import (
    DimensionMismatchError,
    EmptyTrainingSetError,
    NotConvergedWarning,
)

from conftest import v1_document

ALL_CONFIGS = [
    models.KNNConfig(k=3),
    models.DecisionTreeConfig(max_depth=5, min_samples_leaf=2),
    models.RandomForestConfig(n_trees=8, seed=3),
    models.GradientBoostingConfig(n_estimators=10),
    models.KernelRidgeConfig(alpha=0.5, gamma=0.2),
    models.SVRConfig(C=2.0, gamma=0.2, max_iter=200),
    models.LogitAdaptedConfig(alpha=0.1),
]

IDS = [c.family for c in ALL_CONFIGS]


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(77)
    X = rng.random((50, 16))
    y = 2.0 + X[:, 1] * 4.0 - X[:, 7] + rng.normal(0, 0.05, 50)
    queries = rng.random((20, 16))
    return X, y, queries


def quiet_fit(config, X, y):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotConvergedWarning)
        return models.fit_model(config, X, y)


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=IDS)
def test_identical_fits_are_bitwise_identical(config, problem):
    X, y, queries = problem
    first = quiet_fit(config, X, y).predict(queries)
    second = quiet_fit(config, X, y).predict(queries)
    assert np.array_equal(first, second)


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=IDS)
def test_predictions_finite_on_training_inputs(config, problem):
    X, y, _ = problem
    model = quiet_fit(config, X, y)
    assert np.all(np.isfinite(model.predict(X)))


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=IDS)
def test_empty_query_gives_empty_vector(config, problem):
    X, y, _ = problem
    model = quiet_fit(config, X, y)
    out = models.predict(model, np.empty((0, 16)))
    assert out.shape == (0,)


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=IDS)
def test_repeated_rows_get_identical_outputs(config, problem):
    X, y, queries = problem
    model = quiet_fit(config, X, y)
    row = queries[:1]
    out = models.predict(model, np.repeat(row, 5, axis=0))
    assert np.all(out == out[0])


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=IDS)
def test_wrong_query_width_raises(config, problem):
    X, y, _ = problem
    model = quiet_fit(config, X, y)
    with pytest.raises(DimensionMismatchError):
        models.predict(model, np.zeros((3, 15)))


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=IDS)
def test_zero_row_training_table_raises(config):
    # KNN must not report k against zero rows: the table, not k, is at fault
    with pytest.raises(EmptyTrainingSetError, match=config.family):
        models.fit_model(config, np.zeros((0, 16)), np.zeros(0))


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=IDS)
def test_one_dimensional_training_matrix_raises(config):
    with pytest.raises(DimensionMismatchError):
        models.fit_model(config, np.zeros(16), np.zeros(16))


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=IDS)
@pytest.mark.parametrize("shape", [(49,), (50, 1)], ids=["short", "column"])
def test_target_that_is_not_one_value_per_row_raises(config, shape, problem):
    X, _, _ = problem
    with pytest.raises(DimensionMismatchError):
        models.fit_model(config, X, np.zeros(shape))


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=IDS)
@pytest.mark.parametrize("shape", [(16,), (2, 3, 16)], ids=["1-D", "3-D"])
def test_query_that_is_not_2d_raises(config, shape, problem):
    X, y, _ = problem
    model = quiet_fit(config, X, y)
    with pytest.raises(DimensionMismatchError):
        models.predict(model, np.zeros(shape))


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=IDS)
def test_predict_does_not_mutate_query(config, problem):
    X, y, queries = problem
    model = quiet_fit(config, X, y)
    frozen = queries.copy()
    models.predict(model, queries)
    assert np.array_equal(queries, frozen)


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=IDS)
def test_training_target_mean_recorded(config, problem):
    X, y, _ = problem
    model = quiet_fit(config, X, y)
    assert model.training_target_mean == pytest.approx(float(np.mean(y)))


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=IDS)
def test_json_round_trip_preserves_predictions(config, problem, tmp_path):
    """The model's version-1 JSON document still loads as the same model,
    and so does the file save_model writes."""
    X, y, queries = problem
    model = quiet_fit(config, X, y)
    v1 = tmp_path / "v1.json"
    v1.write_text(v1_document(model))
    path = tmp_path / "model.json"
    models.save_model(model, path)
    for restored in (models.load_model(v1), models.load_model(path)):
        assert type(restored) is type(model)
        assert np.array_equal(model.predict(queries), restored.predict(queries))
        assert v1_document(restored) == v1.read_text()


def test_unknown_family_round_trip_rejected(tmp_path):
    path = tmp_path / "model.json"
    for doc in ({"format_version": 1, "family": "Mystery", "state": {}},
                {"format_version": 99, "family": "KNN", "state": {}}):
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            models.load_model(path)


def test_unregistered_config_type_rejected():
    class Oddball:
        pass

    with pytest.raises(TypeError):
        models.fit_model(Oddball(), np.zeros((2, 2)), np.zeros(2))


@pytest.mark.parametrize("build", [
    lambda: models.KNNConfig(k=0),
    lambda: models.KNNConfig(distance="manhattan"),
    lambda: models.DecisionTreeConfig(min_samples_leaf=0),
    lambda: models.RandomForestConfig(n_trees=0),
    lambda: models.RandomForestConfig(max_features=0),
    lambda: models.GradientBoostingConfig(n_estimators=-1),
    lambda: models.GradientBoostingConfig(learning_rate=0.0),
    lambda: models.GradientBoostingConfig(learning_rate=1.5),
    lambda: models.KernelRidgeConfig(alpha=0.0),
    lambda: models.KernelRidgeConfig(kernel="poly"),
    lambda: models.KernelRidgeConfig(gamma=-1.0),
    lambda: models.SVRConfig(C=0.0),
    lambda: models.SVRConfig(epsilon=-0.1),
    lambda: models.SVRConfig(max_iter=0),
    lambda: models.LogitAdaptedConfig(alpha=-2.0),
    lambda: models.LogitAdaptedConfig(clamp=0.5),
    lambda: models.LogitAdaptedConfig(clamp=0.0),
    # wrong types: counts must be int (not bool), numbers int or float (not bool)
    lambda: models.KNNConfig(k=2.5),
    lambda: models.KNNConfig(k=True),
    lambda: models.DecisionTreeConfig(max_depth=2.5),
    lambda: models.DecisionTreeConfig(min_samples_leaf="1"),
    lambda: models.RandomForestConfig(n_trees=2.5),
    lambda: models.RandomForestConfig(bootstrap="no"),
    lambda: models.RandomForestConfig(max_features=2.5),
    lambda: models.RandomForestConfig(seed="abc"),
    lambda: models.GradientBoostingConfig(n_estimators=2.5),
    lambda: models.GradientBoostingConfig(learning_rate=True),
    lambda: models.GradientBoostingConfig(seed=1.5),
    lambda: models.KernelRidgeConfig(alpha="1"),
    lambda: models.KernelRidgeConfig(gamma=None),
    lambda: models.SVRConfig(C="1"),
    lambda: models.SVRConfig(epsilon=[0.1]),
    lambda: models.SVRConfig(max_iter=2.5),
    lambda: models.SVRConfig(tol=True),
    lambda: models.LogitAdaptedConfig(alpha=True),
    lambda: models.LogitAdaptedConfig(clamp="0.1"),
    # numbers a float64 cannot hold, or that are not finite
    lambda: models.SVRConfig(C=10**400),
    lambda: models.KernelRidgeConfig(gamma=float("inf")),
])
def test_hyperparameters_outside_legal_ranges_rejected(build):
    from batbench.errors import ConfigError

    with pytest.raises(ConfigError):
        build()


GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "predictions.json").read_text())


@pytest.mark.parametrize("family", sorted(GOLDEN["predictions"]))
def test_golden_file_loads_and_predicts_bit_for_bit(family):
    """Files saved by an earlier release keep loading, predicting and re-saving.

    Each model was fitted on the first 40 canonical rows, z-scored with their
    own mean and std; the stored queries are rows 40-49 in the same space.
    """
    path = GOLDEN_DIR / f"{family}.json"
    model = models.load_model(path)
    pred = models.predict(model, np.array(GOLDEN["queries"]))
    assert np.array_equal(pred, np.array(GOLDEN["predictions"][family]))
    assert v1_document(model) == path.read_text()


@pytest.mark.parametrize("family", sorted(GOLDEN["predictions"]))
def test_golden_file_resaves_byte_for_byte(family, tmp_path):
    """A golden (version 1) file re-saves in the current format, and the
    model read back from that holds the golden document byte for byte."""
    path, resaved = GOLDEN_DIR / f"{family}.json", tmp_path / "model.json"
    models.save_model(models.load_model(path), resaved)
    assert zipfile.is_zipfile(resaved)
    model = models.load_model(resaved)
    assert v1_document(model).encode() == path.read_bytes()
    pred = models.predict(model, np.array(GOLDEN["queries"]))
    assert np.array_equal(pred, np.array(GOLDEN["predictions"][family]))


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=IDS)
def test_single_row_equals_batch_row(config, problem):
    """Each row's answer has the same bits alone as in a batch: trees sum
    tree by tree, kernels and distances are einsum products reduced per row."""
    X, y, queries = problem
    model = quiet_fit(config, X, y)
    batch = models.predict(model, queries)
    single = [models.predict(model, queries[i:i + 1])[0] for i in range(len(queries))]
    assert np.array_equal(single, batch)


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=IDS)
def test_a_nan_cell_answers_nan_except_in_the_tree_families(config, problem):
    """models.predict's contract: NaN in gives NaN out, except in the tree
    families, which route NaN right and so answer as for +inf. KNN and
    LogitAdapted answer NaN for any non-finite cell. Rows without one keep
    their answers."""
    X, y, queries = problem
    model = quiet_fit(config, X, y)
    nan_rows, inf_rows = queries.copy(), queries.copy()
    # column 1 drives the target, so the trees split on it
    nan_rows[::2, 1], inf_rows[::2, 1] = np.nan, np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        plain, nan_out, inf_out = (models.predict(model, q)
                                   for q in (queries, nan_rows, inf_rows))
    assert np.array_equal(nan_out[1::2], plain[1::2])
    if config.family in ("DecisionTree", "RandomForest", "GradientBoosting"):
        assert np.array_equal(nan_out, inf_out)
        assert np.isfinite(nan_out).all()
    else:
        assert np.isnan(nan_out[::2]).all()
    if config.family in ("KNN", "LogitAdapted"):
        assert np.isnan(inf_out[::2]).all()


# -- memory of a batch predict and of a model file ---------------------------

@pytest.fixture(scope="module")
def canonical_fits(canonical):
    """Each family's default fit on the z-scored canonical holdout train split."""
    rows = list(split(canonical.n_rows, 0.8, 42).train_indices)
    X = apply_scaler(fit_scaler(canonical, rows), canonical.features[rows])
    return {config.family: quiet_fit(config, X, canonical.target[rows])
            for config in models.default_roster()}


def traced_peak(call):
    """Peak bytes that numpy and Python allocate during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("family", [c.family for c in models.default_roster()])
def test_a_4000_row_predict_holds_one_row_block(family, canonical_fits):
    """A batch predict holds one block of rows at a time: not a whole
    4,000 x 258 query kernel or distance matrix (8 MiB), nor every tree's
    leaf values for every row (4 MiB for a default forest)."""
    queries = np.random.default_rng(4).normal(size=(4000, 16))
    model = canonical_fits[family]
    assert traced_peak(lambda: models.predict(model, queries)) < 2.5 * (1 << 20)


def test_default_forest_file_is_written_and_read_tree_by_tree(canonical_fits, tmp_path):
    forest, path = canonical_fits["RandomForest"], tmp_path / "forest.json"
    assert traced_peak(lambda: models.save_model(forest, path)) < 1 << 20
    assert traced_peak(lambda: models.load_model(path)) < 4.5 * (1 << 20)


def file_entries(path) -> dict:
    """A model file's entries by name, with its header parsed."""
    with np.load(path, allow_pickle=False) as npz:
        entries = dict(npz)
    entries["header"] = json.loads(entries["header"].tobytes())
    return entries


def expected_entries(model) -> dict:
    """What the current format holds for ``model``: each array parameter
    under its name, a tree ensemble's stacked columns, roots and per-tree
    target means under ``<field>.``, and the other parameters in the header."""
    entries, state = {}, {}
    for name in inspect.signature(type(model)).parameters:
        value = getattr(model, name)
        if name in ("trees", "stages"):
            stack = model._stack
            for column in ("feature", "threshold", "left", "right", "value",
                           "n_samples", "gain", "roots"):
                entries[f"{name}.{column}"] = getattr(stack, column)
            entries[f"{name}.target_means"] = np.array(
                [t.training_target_mean for t in value])
        elif isinstance(value, np.ndarray):
            entries[name] = value
        else:
            state[name] = list(value) if isinstance(value, tuple) else value
    entries["header"] = {"format_version": 2, "family": model.family, "state": state}
    return entries


def assert_same_entries(got: dict, expected: dict):
    assert got.keys() == expected.keys()
    assert got.pop("header") == expected.pop("header")
    for name, array in expected.items():
        assert got[name].dtype == array.dtype, name
        assert got[name].tobytes() == array.tobytes(), name


def assert_reloads_bit_for_bit(model, path, queries):
    """``path`` holds ``model``'s entries; the model read back holds the same
    state and answers the same bits, and saving it again gives the same bytes."""
    assert_same_entries(file_entries(path), expected_entries(model))
    loaded = models.load_model(path)
    assert type(loaded) is type(model)
    assert v1_document(loaded) == v1_document(model)
    assert np.array_equal(models.predict(loaded, queries), models.predict(model, queries))
    again = path.with_name("again.json")
    models.save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=IDS)
def test_saved_file_is_the_document_and_reloads_bit_for_bit(config, problem, tmp_path):
    X, y, queries = problem
    model = quiet_fit(config, X, y)
    models.save_model(model, tmp_path / "model.json")
    assert zipfile.is_zipfile(tmp_path / "model.json")
    assert_reloads_bit_for_bit(model, tmp_path / "model.json", queries)


EDGE_FITS = {
    "boosting-no-stages": (models.GradientBoostingConfig(n_estimators=0), "noisy"),
    "tree-single-leaf": (models.DecisionTreeConfig(), "constant"),
    "logit-constant-target": (models.LogitAdaptedConfig(), "constant"),
    "knn-k-all-rows": (models.KNNConfig(k=40), "noisy"),
    "svr-unconverged": (models.SVRConfig(C=1e6, gamma=0.01, epsilon=0.0, tol=1e-12,
                                         max_iter=200), "noisy"),
}


@pytest.mark.parametrize("case", sorted(EDGE_FITS))
def test_edge_fits_reload_bit_for_bit(case, tmp_path):
    config, target = EDGE_FITS[case]
    rng = np.random.default_rng(5)
    X, queries = rng.normal(size=(40, 3)), rng.normal(size=(15, 3))
    y = np.full(40, 7.25) if target == "constant" else 100.0 * rng.normal(size=40)
    model = quiet_fit(config, X, y)
    if case == "boosting-no-stages":
        assert model.stages == ()
    elif case == "tree-single-leaf":
        assert model.feature.tolist() == [-1]
    elif case == "logit-constant-target":
        assert model.constant_target
    elif case == "svr-unconverged":
        assert not model.converged and len(model.objective_trace) == 201
    path = tmp_path / "model.json"
    models.save_model(model, path)
    assert_reloads_bit_for_bit(model, path, queries)


def test_a_json_file_name_is_kept(problem, tmp_path):
    """save_model writes the path it is given; numpy would add .npz to it."""
    X, y, queries = problem
    model = quiet_fit(models.KNNConfig(), X, y)
    models.save_model(model, tmp_path / "knn.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["knn.json"]
    assert_reloads_bit_for_bit(model, tmp_path / "knn.json", queries)


# -- files that hold no model --------------------------------------------------

def write_entries(path, entries: dict):
    """Write ``entries`` as ``<name>.npy`` members of a zip, as save_model
    lays them out: a dict as its JSON bytes in a uint8 array, an array as an
    .npy (object arrays pickled), and bytes as they are."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, value in entries.items():
            if isinstance(value, dict):
                value = np.frombuffer(json.dumps(value).encode(), np.uint8)
            if isinstance(value, np.ndarray):
                buffer = io.BytesIO()
                np.save(buffer, value, allow_pickle=True)
                value = buffer.getvalue()
            zf.writestr(f"{name}.npy", value)


@pytest.fixture(scope="module")
def saved_forest(problem, tmp_path_factory):
    X, y, _ = problem
    path = tmp_path_factory.mktemp("forest") / "forest.json"
    models.save_model(quiet_fit(models.RandomForestConfig(n_trees=3, seed=1), X, y), path)
    return path


def _broken_header(entries, family=None, format_version=None, drop=None):
    header = json.loads(entries["header"].tobytes())
    if family is not None:
        header["family"] = family
    if format_version is not None:
        header["format_version"] = format_version
    if drop is not None:
        del header["state"][drop]
    return {**entries, "header": header}


MALFORMED = {
    "no-header": lambda e: {k: v for k, v in e.items() if k != "header"},
    "object-array": lambda e: {**e, "trees.value": np.array([1.0, "a"], dtype=object)},
    "object-header": lambda e: {**e, "header": np.array([{"family": "KNN"}], dtype=object)},
    "unknown-family": lambda e: _broken_header(e, family="Mystery"),
    "format-version-99": lambda e: _broken_header(e, format_version=99),
    "format-version-1": lambda e: _broken_header(e, format_version=1),
    "missing-array-field": lambda e: {k: v for k, v in e.items()
                                      if not k.startswith("trees.")},
    "missing-stack-column": lambda e: {k: v for k, v in e.items() if k != "trees.left"},
    "missing-header-field": lambda e: _broken_header(e, drop="n_features_in"),
    "header-not-json": lambda e: {**e, "header": np.frombuffer(b"{no", np.uint8)},
    "header-a-list": lambda e: {**e, "header": np.frombuffer(b"[1]", np.uint8)},
    "header-not-npy": lambda e: {**e, "header": b'{"format_version": 2}'},
    "column-not-npy": lambda e: {**e, "trees.value": b""},
}


def test_rewritten_entries_load_as_saved(saved_forest, problem, tmp_path):
    """The control for the malformed files below: the saved entries,
    rewritten unchanged, load as the saved model."""
    with np.load(saved_forest, allow_pickle=False) as npz:
        entries = dict(npz)
    write_entries(tmp_path / "model.json", entries)
    queries = problem[2]
    assert np.array_equal(models.load_model(tmp_path / "model.json").predict(queries),
                          models.load_model(saved_forest).predict(queries))


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_model_file_raises_value_error(case, saved_forest, tmp_path):
    with np.load(saved_forest, allow_pickle=False) as npz:
        entries = dict(npz)
    path = tmp_path / "model.json"
    write_entries(path, MALFORMED[case](entries))
    with pytest.raises(ValueError):
        models.load_model(path)


@pytest.mark.parametrize("keep", [0, 1, 100, "half", -22, -1])
def test_an_empty_or_truncated_file_raises_value_error(keep, saved_forest, tmp_path):
    data = saved_forest.read_bytes()
    if keep == "half":
        keep = len(data) // 2
    path = tmp_path / "model.json"
    path.write_bytes(data[:keep])
    with pytest.raises(ValueError):
        models.load_model(path)


@pytest.mark.parametrize("text", [
    "", "[]", '{"format_version": 1, "family": "KNN"}',
    '{"format_version": 1, "family": "KNN", "state": {"k": 3}}',
    '{"format_version": 1, "family": "KNN", "state": []}',
], ids=["empty", "list", "no-state", "missing-field", "state-a-list"])
def test_a_malformed_version_1_file_raises_value_error(text, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(ValueError):
        models.load_model(path)
