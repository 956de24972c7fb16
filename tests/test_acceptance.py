"""End-to-end acceptance suite.

One test per shipping criterion; each prints a single PASS line so running
``pytest tests/test_acceptance.py -v -s`` reads as a checklist. Criterion 10
is a directional diagnostic: it prints PASS or FAIL but never fails the build.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from batbench import models
from batbench.cli import main
from batbench.dataset import describe, load_csv, split
from batbench.evaluation import kfold_plan, mae, r_squared, rmse
from batbench.datagen import generate_table
from batbench.importance import impurity_importance, permutation_importance

from conftest import CANONICAL_PATH, make_dataset, strip_times

# frozen reference statistics for the bundled canonical dataset
REFERENCE_DESCRIBE = {
    "AtBat": {"mean": 380.93, "std": 153.41, "min": 16.0, "max": 687.0,
              "p50": 379.50, "p99": 658.59},
    "Hits": {"mean": 101.03, "std": 46.46, "min": 1.0, "max": 238.0,
             "p50": 96.0, "p99": 210.79},
}

ROSTER_NAMES = {"SVM", "KNeighbors", "KernelRidge", "DecisionTree",
                "RandomForest", "LogitAdapted", "GradientBoosting"}


@pytest.fixture(scope="module")
def bench_runs(tmp_path_factory):
    """Two identical full benchmark runs through the CLI; returns
    (first_doc, second_doc, wall_seconds_of_first)."""
    out = tmp_path_factory.mktemp("bench")
    runner = CliRunner()
    args = ["benchmark", "--data", str(CANONICAL_PATH), "--seed", "42",
            "--out", str(out)]
    start = time.perf_counter()
    first = runner.invoke(main, args)
    wall = time.perf_counter() - start
    assert first.exit_code == 0, first.output
    doc_a = json.loads((out / "report.json").read_text())
    second = runner.invoke(main, args)
    assert second.exit_code == 0, second.output
    doc_b = json.loads((out / "report.json").read_text())
    return doc_a, doc_b, wall


def test_01_canonical_descriptive_statistics():
    start = time.perf_counter()
    data = load_csv(CANONICAL_PATH)
    assert data.n_rows == 322
    for column, expected in REFERENCE_DESCRIBE.items():
        summary = describe(data, column)
        got = {"mean": summary.mean, "std": summary.std, "min": summary.min,
               "max": summary.max, "p50": summary.percentiles[50],
               "p99": summary.percentiles[99]}
        for stat, value in expected.items():
            assert abs(got[stat] - value) <= 0.01, (column, stat, got[stat], value)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 (descriptive statistics): PASS in {elapsed:.3f}s")


def test_02_full_roster_reports_both_protocols(bench_runs):
    doc, _, _ = bench_runs
    results = doc["results"]
    assert set(results) == ROSTER_NAMES
    lines = []
    for name, entry in results.items():
        assert "error" not in entry, (name, entry.get("error"))
        values = [entry["val_r2"], entry["val_mae"], entry["val_rmse"],
                  entry["cv"]["mean_r2"], entry["cv"]["std_r2"]]
        assert all(math.isfinite(v) for v in values), name
        lines.append(f"{name}: val_r2={entry['val_r2']:.4f} "
                     f"cv_r2={entry['cv']['mean_r2']:.4f}")
    print("\nACCEPTANCE 2 (exact published metrics are out of reach; both "
          "protocols reported with finite values): PASS")
    for line in lines:
        print("   ", line)


def test_03_knn_brute_force_equivalence():
    # CPU time of this process, so that other jobs on the machine do not count
    start = time.process_time()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        X = rng.random((50, 16))
        y = rng.random(50)
        queries = rng.random((50, 16))
        model = models.fit_knn(models.KNNConfig(k=5), X, y)
        got = model.predict(queries)
        for qi in range(50):
            ranked = sorted(
                range(50),
                key=lambda j: (math.fsum((X[j, c] - queries[qi, c]) ** 2
                                         for c in range(16)), j))
            expected = math.fsum(y[j] for j in ranked[:5]) / 5
            assert got[qi] == expected
    elapsed = time.process_time() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 3 (KNN oracle equivalence, 100 instances): PASS "
          f"in {elapsed:.2f}s")


def gaussian_elimination(A, b):
    A = np.array(A, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    n = len(A)
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(A[col:, col])))
        A[[col, pivot]] = A[[pivot, col]]
        b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = A[row, col] / A[col, col]
            A[row, col:] -= factor * A[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1:] @ x[row + 1:]) / A[row, row]
    return x


def test_04_kernel_ridge_solver_equivalence():
    rng = np.random.default_rng(11)
    worst_residual = 0.0
    worst_pred = 0.0
    for _ in range(100):
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        config = models.KernelRidgeConfig(alpha=1.0, kernel="rbf", gamma=1.0 / 3)
        model = models.fit_kernel_ridge(config, X, y)
        K = models.kernel_matrix("rbf", config.gamma, X, X)
        system = K + config.alpha * np.eye(20)
        worst_residual = max(worst_residual,
                             float(np.max(np.abs(system @ model.dual_coef - y))))
        oracle = gaussian_elimination(system, y)
        queries = rng.normal(size=(10, 3))
        oracle_pred = models.kernel_matrix("rbf", config.gamma, queries, X) @ oracle
        worst_pred = max(worst_pred,
                         float(np.max(np.abs(model.predict(queries) - oracle_pred))))
    assert worst_residual < 1e-8
    assert worst_pred < 1e-8
    print(f"\nACCEPTANCE 4 (kernel ridge oracle equivalence): PASS "
          f"residual={worst_residual:.2e} pred={worst_pred:.2e}")


def test_05_ensemble_identities():
    rng = np.random.default_rng(21)
    X = rng.random((70, 16))
    y = 4.0 * X[:, 2] - X[:, 8] + rng.normal(0, 0.1, 70)
    queries = rng.random((30, 16))

    forest = models.fit_random_forest(
        models.RandomForestConfig(n_trees=1, bootstrap=False, max_features=16,
                                  max_depth=8, min_samples_leaf=5, seed=0), X, y)
    tree = models.fit_decision_tree(
        models.DecisionTreeConfig(max_depth=8, min_samples_leaf=5), X, y)
    assert np.array_equal(forest.predict(queries), tree.predict(queries))

    boosted = models.fit_gradient_boosting(
        models.GradientBoostingConfig(n_estimators=25, learning_rate=0.2), X, y)
    telescoped = np.full(len(queries), boosted.base_prediction)
    for stage in boosted.stages:
        telescoped += boosted.learning_rate * stage.predict(queries)
    assert np.max(np.abs(boosted.predict(queries) - telescoped)) <= 1e-10

    flat = models.fit_gradient_boosting(
        models.GradientBoostingConfig(n_estimators=0), X, y)
    assert np.all(flat.predict(queries) == np.mean(y))
    print("\nACCEPTANCE 5 (ensemble identities): PASS")


def test_06_metric_laws():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        y = rng.normal(size=n) * rng.uniform(0.1, 100)
        pred = rng.normal(size=n) * rng.uniform(0.1, 100)
        assert rmse(y, pred) >= mae(y, pred) - 1e-12
    for _ in range(200):
        y = rng.normal(size=int(rng.integers(2, 50))) * rng.uniform(0.1, 50)
        assert abs(r_squared(y, np.full(len(y), np.mean(y)))) <= 1e-12
    assert r_squared([1.0, 2.0, 3.0, 4.0],
                     [1.5, 2.5, 2.5, 3.5]) == pytest.approx(0.8, abs=1e-12)
    print("\nACCEPTANCE 6 (metric laws): PASS")


def test_07_kfold_laws_exhaustive():
    start = time.perf_counter()
    for n in range(2, 501):
        for k in range(2, n + 1):
            plan = kfold_plan(n, k, seed=13)
            sizes = [len(fold) for fold in plan.folds]
            assert max(sizes) - min(sizes) <= 1
            merged = np.sort(np.fromiter(
                (i for fold in plan.folds for i in fold), dtype=np.intp, count=n))
            assert np.array_equal(merged, np.arange(n))
            assert kfold_plan(n, k, seed=13) == plan

    # no-leakage: a spy family records which rows each fold's fit saw
    rng = np.random.default_rng(5)
    data = make_dataset(rng.random((40, 16)), rng.normal(size=40))
    seen: list[set] = []

    class SpyConfig:
        family = "Spy"

    class SpyModel:
        family = "Spy"
        n_features_in = 16
        training_target_mean = 0.0

        def predict(self, X):
            return np.zeros(len(X))

    def fit(config, X, y):
        seen.append({tuple(row) for row in X})
        return SpyModel()

    models.register_family("Spy", SpyConfig, fit)
    try:
        from batbench.evaluation import cross_validate
        plan = kfold_plan(40, 5, 3)
        cross_validate(SpyConfig(), data, plan)
    finally:
        models.unregister_family(SpyConfig)
    for fold, train_rows in zip(plan.folds, seen):
        fold_rows = {tuple(data.features[i]) for i in fold}
        assert not (fold_rows & train_rows)
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 7 (k-fold partition and leakage laws): PASS "
          f"in {elapsed:.1f}s")


def test_08_benchmark_determinism(bench_runs):
    doc_a, doc_b, _ = bench_runs
    text_a = json.dumps(strip_times(doc_a), sort_keys=False)
    text_b = json.dumps(strip_times(doc_b), sort_keys=False)
    assert text_a.encode() == text_b.encode()
    print("\nACCEPTANCE 8 (benchmark determinism modulo timing): PASS")


def test_09_importance_laws():
    # sum-to-one and nonnegativity on the canonical fit, both methods
    data = load_csv(CANONICAL_PATH)
    plan = split(data.n_rows, 0.8, 42)
    train = list(plan.train_indices)
    val = list(plan.validation_indices)
    model = models.fit_gradient_boosting(models.GradientBoostingConfig(),
                                         data.features[train], data.target[train])
    for report in (
        impurity_importance(model, data.feature_names),
        permutation_importance(model, data.features[val], data.target[val],
                               repeats=3, seed=9,
                               feature_names=data.feature_names),
    ):
        weights = np.array(list(report.weights.values()))
        assert np.all(weights >= 0.0)
        assert np.sum(weights) == pytest.approx(1.0, abs=1e-9)

    # a constant feature is never split on
    rng = np.random.default_rng(17)
    X = rng.random((80, 16))
    X[:, 4] = 1.0
    y = 3.0 * X[:, 0] + rng.normal(0, 0.05, 80)
    constant_report = impurity_importance(
        models.fit_gradient_boosting(models.GradientBoostingConfig(n_estimators=20),
                                     X, y),
        [f"f{i}" for i in range(16)])
    assert constant_report.weights["f4"] == 0.0

    # planted signal in generated data dominates the ranking
    table = generate_table(322, 7)
    names = tuple(n for n in table if n != "score")
    gen = make_dataset(np.column_stack([table[n] for n in names]).astype(float),
                       table["score"].astype(float))
    gen_split = split(322, 0.8, 42)
    gen_model = models.fit_gradient_boosting(
        models.GradientBoostingConfig(),
        gen.features[list(gen_split.train_indices)],
        gen.target[list(gen_split.train_indices)])
    ranking = impurity_importance(gen_model, names).ranking
    assert set(ranking[:2]) == {"CHits", "CRuns"}, ranking[:4]
    print("\nACCEPTANCE 9 (importance laws and planted signal): PASS")


def test_10_directional_diagnostics(bench_runs):
    doc, _, _ = bench_runs
    data = load_csv(CANONICAL_PATH)
    plan = split(data.n_rows, 0.8, 42)
    train = list(plan.train_indices)
    model = models.fit_gradient_boosting(models.GradientBoostingConfig(),
                                         data.features[train], data.target[train])
    ranking = impurity_importance(model, data.feature_names).ranking
    named = {"CHits", "CRuns", "RBI", "CRBI", "CAtBat"}
    top8_ok = named <= set(ranking[:8])

    gb_cv = doc["results"]["GradientBoosting"]["cv"]["mean_r2"]
    dt_cv = doc["results"]["DecisionTree"]["cv"]["mean_r2"]
    order_ok = gb_cv > dt_cv

    verdict = "PASS" if (top8_ok and order_ok) else "FAIL"
    print(f"\nACCEPTANCE 10 (directional diagnostics, non-gating): {verdict}")
    print(f"    named features in impurity top 8: {top8_ok} (top8={ranking[:8]})")
    print(f"    boosting cv_r2 {gb_cv:.4f} > single tree cv_r2 {dt_cv:.4f}: "
          f"{order_ok}")


def test_11_benchmark_performance_envelope(bench_runs):
    _, _, wall = bench_runs
    assert wall < 60.0
    print(f"\nACCEPTANCE 11 (seven-model benchmark under 60s): PASS "
          f"in {wall:.1f}s")


# canonical `benchmark --seed 42` report.json through strip_times, without the
# run's paths (config.data_path, config.output_dir), as json.dumps(indent=2).
# A change that moves a reported number re-pins this file and says why
REPORT_SEED42 = Path(__file__).resolve().parent / "data" / "report_seed42.json"


def test_12_benchmark_numbers_are_pinned(bench_runs):
    doc = strip_times(bench_runs[0])
    del doc["config"]["data_path"], doc["config"]["output_dir"]
    assert json.dumps(doc, indent=2) + "\n" == REPORT_SEED42.read_text()
    print("\nACCEPTANCE 12 (seed-42 report numbers match the pinned file): PASS")
