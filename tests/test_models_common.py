"""Contracts every family must honor: determinism, predict surface, JSON round-trip."""

import json
import tracemalloc
import warnings
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
    X, y, queries = problem
    model = quiet_fit(config, X, y)
    doc = models.model_to_dict(model)
    assert doc["format_version"] == 1
    assert doc["family"] == config.family
    restored = models.model_from_dict(doc)
    assert np.array_equal(model.predict(queries), restored.predict(queries))
    path = tmp_path / "model.json"
    models.save_model(model, path)
    loaded = models.load_model(path)
    assert np.array_equal(model.predict(queries), loaded.predict(queries))


def test_unknown_family_round_trip_rejected():
    with pytest.raises(ValueError):
        models.model_from_dict({"format_version": 1, "family": "Mystery", "state": {}})
    with pytest.raises(ValueError):
        models.model_from_dict({"format_version": 99, "family": "KNN", "state": {}})


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
    assert json.dumps(models.model_to_dict(model)) == path.read_text()


@pytest.mark.parametrize("family", sorted(GOLDEN["predictions"]))
def test_golden_file_resaves_byte_for_byte(family, tmp_path):
    path = GOLDEN_DIR / f"{family}.json"
    models.save_model(models.load_model(path), tmp_path / "model.json")
    assert (tmp_path / "model.json").read_bytes() == path.read_bytes()


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


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=IDS)
def test_saved_file_is_the_document_and_reloads_bit_for_bit(config, problem, tmp_path):
    X, y, queries = problem
    model = quiet_fit(config, X, y)
    models.save_model(model, tmp_path / "model.json")
    text = (tmp_path / "model.json").read_text()
    assert text == json.dumps(models.model_to_dict(model))
    loaded = models.load_model(tmp_path / "model.json")
    assert np.array_equal(models.predict(loaded, queries), models.predict(model, queries))
    assert json.dumps(models.model_to_dict(loaded)) == text
