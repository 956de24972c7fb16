import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
import types
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batbench import evaluation, models
from batbench.datagen import generate_csv
from batbench.dataset import load_csv, split
from batbench.errors import (
    AllModelsFailedError,
    BadKError,
    ConfigError,
    ConstantTargetError,
    EmptyVectorsError,
    EvaluationChildError,
    KTooLargeError,
    LengthMismatchError,
)
from batbench.evaluation import (
    benchmark,
    cross_validate,
    holdout_evaluate,
    kfold_plan,
    mae,
    r_squared,
    report_to_dict,
    rmse,
)

from conftest import CANONICAL_PATH, make_dataset, strip_times
from test_kernel_models import svr_kkt_violations


class TestRSquared:
    def test_perfect_fit(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_mean_predictor_scores_zero(self):
        assert r_squared([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == 0.0

    def test_known_fractional_value(self):
        got = r_squared([1.0, 2.0, 3.0, 4.0], [1.5, 2.5, 2.5, 3.5])
        assert got == pytest.approx(0.8, abs=1e-12)

    def test_can_be_arbitrarily_negative(self):
        assert r_squared([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -3.0

    def test_constant_target_rejected(self):
        with pytest.raises(ConstantTargetError):
            r_squared([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            r_squared([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_needs_two_points(self):
        with pytest.raises(LengthMismatchError):
            r_squared([1.0], [1.0])

    def test_train_mean_predictor_is_exactly_zero_on_training_set(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            y = rng.normal(size=int(rng.integers(2, 40))) * rng.uniform(0.1, 50)
            pred = np.full(len(y), np.mean(y))
            assert abs(r_squared(y, pred)) <= 1e-12

    @settings(max_examples=200, derandomize=True)
    @given(
        data=st.lists(
            st.tuples(
                st.floats(-1e3, 1e3, allow_nan=False),
                st.floats(-1e3, 1e3, allow_nan=False),
            ),
            min_size=3, max_size=30,
        ),
        a=st.floats(0.01, 100.0).flatmap(
            lambda v: st.sampled_from([v, -v])),
        b=st.floats(-1e3, 1e3, allow_nan=False),
    )
    def test_invariant_under_shared_affine_map(self, data, a, b):
        y = np.array([p[0] for p in data])
        pred = np.array([p[1] for p in data])
        if np.ptp(y) < 1e-6:
            return
        base = r_squared(y, pred)
        mapped = r_squared(a * y + b, a * pred + b)
        assert mapped == pytest.approx(base, rel=1e-6, abs=1e-9)


class TestErrorMetrics:
    def test_identical_vectors(self):
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_known_values(self):
        assert mae([0.0, 0.0], [1.0, 3.0]) == 2.0
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5))

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        y, pred = rng.normal(size=20), rng.normal(size=20)
        assert mae(y, pred) == mae(pred, y)
        assert rmse(y, pred) == rmse(pred, y)

    def test_empty_vectors(self):
        with pytest.raises(EmptyVectorsError):
            mae([], [])
        with pytest.raises(EmptyVectorsError):
            rmse([], [])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            mae([1.0], [1.0, 2.0])

    def test_rmse_dominates_mae_on_random_pairs(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            n = int(rng.integers(1, 50))
            y = rng.normal(size=n) * rng.uniform(0.1, 100)
            pred = rng.normal(size=n) * rng.uniform(0.1, 100)
            assert rmse(y, pred) >= mae(y, pred) - 1e-12


class TestKFoldPlan:
    def test_even_split(self):
        plan = kfold_plan(6, 3, 0)
        assert sorted(len(f) for f in plan.folds) == [2, 2, 2]

    def test_remainder_spreads_round_robin(self):
        plan = kfold_plan(7, 3, 0)
        assert sorted(len(f) for f in plan.folds) == [2, 2, 3]

    def test_deterministic(self):
        assert kfold_plan(40, 5, 11) == kfold_plan(40, 5, 11)

    def test_partition_laws_on_a_grid(self):
        for n in (2, 3, 10, 41, 100):
            for k in sorted({2, 3, min(7, n), n}):
                if not 2 <= k <= n:
                    continue
                plan = kfold_plan(n, k, 5)
                merged = sorted(i for fold in plan.folds for i in fold)
                assert merged == list(range(n))
                sizes = [len(f) for f in plan.folds]
                assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("n,k", [(5, 1), (5, 6), (3, 0)])
    def test_bad_k(self, n, k):
        with pytest.raises(BadKError):
            kfold_plan(n, k, 0)


# -- stub families for pipeline oracles --------------------------------------

@dataclass(frozen=True)
class OracleStubConfig:
    family = "OracleStub"


class OracleStubModel:
    family = "OracleStub"

    def __init__(self, lookup, width):
        self.lookup = lookup
        self.n_features_in = width
        self.training_target_mean = 0.0

    def predict(self, X):
        return np.array([self.lookup[tuple(row)] for row in np.asarray(X)])


@dataclass(frozen=True)
class MeanStubConfig:
    family = "MeanStub"


class MeanStubModel:
    family = "MeanStub"

    def __init__(self, mean, width):
        self.mean = mean
        self.n_features_in = width
        self.training_target_mean = mean

    def predict(self, X):
        return np.full(len(X), self.mean)


@pytest.fixture
def random_dataset():
    rng = np.random.default_rng(100)
    features = rng.random((40, 16))
    target = rng.normal(size=40) * 10.0
    return make_dataset(features, target)


@pytest.fixture
def oracle_family(random_dataset):
    lookup = {tuple(row): t
              for row, t in zip(random_dataset.features, random_dataset.target)}
    fit_counter = []

    def fit(config, X, y):
        fit_counter.append(1)
        return OracleStubModel(lookup, X.shape[1])

    models.register_family("OracleStub", OracleStubConfig, fit)
    yield fit_counter
    models.unregister_family(OracleStubConfig)


@pytest.fixture
def mean_family():
    def fit(config, X, y):
        return MeanStubModel(float(np.mean(y)), X.shape[1])

    models.register_family("MeanStub", MeanStubConfig, fit)
    yield
    models.unregister_family(MeanStubConfig)


class TestCrossValidate:
    def test_oracle_stub_scores_one_on_every_fold(self, random_dataset, oracle_family):
        plan = kfold_plan(40, 5, 0)
        result = cross_validate(OracleStubConfig(), random_dataset, plan)
        assert result.per_fold_r2 == (1.0,) * 5
        assert result.mean_r2 == 1.0
        assert result.std_r2 == 0.0
        assert all(v == 0.0 for v in result.per_fold_mae)
        assert all(v == 0.0 for v in result.per_fold_rmse)

    def test_fits_exactly_k_models(self, random_dataset, oracle_family):
        cross_validate(OracleStubConfig(), random_dataset, kfold_plan(40, 4, 1))
        assert len(oracle_family) == 4

    def test_mean_stub_never_beats_zero(self, random_dataset, mean_family):
        result = cross_validate(MeanStubConfig(), random_dataset, kfold_plan(40, 5, 3))
        assert all(r2 <= 0.0 for r2 in result.per_fold_r2)

    def test_mean_matches_per_fold_average(self, random_dataset, mean_family):
        result = cross_validate(MeanStubConfig(), random_dataset, kfold_plan(40, 5, 3))
        assert result.mean_r2 == pytest.approx(np.mean(result.per_fold_r2), abs=1e-12)
        assert result.std_r2 >= 0.0

    def test_reproducible_bit_for_bit(self, random_dataset):
        plan = kfold_plan(40, 5, 42)
        config = models.KNNConfig(k=5)
        first = cross_validate(config, random_dataset, plan)
        second = cross_validate(config, random_dataset, plan)
        assert first.per_fold_r2 == second.per_fold_r2
        assert first.per_fold_mae == second.per_fold_mae
        assert first.per_fold_rmse == second.per_fold_rmse

    def test_model_errors_tagged_with_fold(self, random_dataset):
        config = models.KNNConfig(k=33)  # every fold trains on 32 rows
        with pytest.raises(KTooLargeError, match="fold 0"):
            cross_validate(config, random_dataset, kfold_plan(40, 5, 0))


class TestHoldoutEvaluate:
    def test_oracle_stub(self, random_dataset, oracle_family):
        plan = split(40, 0.8, 0)
        result = holdout_evaluate(OracleStubConfig(), random_dataset, plan)
        assert result.val_r2 == 1.0
        assert result.val_mae == 0.0
        assert result.val_rmse == 0.0

    def test_default_boosting_produces_finite_ordered_metrics(self, random_dataset):
        config = models.GradientBoostingConfig(n_estimators=20)
        result = holdout_evaluate(config, random_dataset, split(40, 0.8, 42))
        assert np.isfinite([result.val_r2, result.val_mae, result.val_rmse]).all()
        assert result.val_rmse >= result.val_mae
        assert result.fit_time_s >= 0.0


SMALL_ROSTER = [
    models.SVRConfig(max_iter=50),
    models.KNNConfig(),
    models.KernelRidgeConfig(),
    models.DecisionTreeConfig(),
    models.RandomForestConfig(n_trees=5),
    models.LogitAdaptedConfig(),
    models.GradientBoostingConfig(n_estimators=10),
]


class TestBenchmark:
    def test_roster_names(self, random_dataset):
        report = benchmark(SMALL_ROSTER, random_dataset,
                           split(40, 0.8, 42), kfold_plan(40, 3, 7))
        assert set(report.results) == {
            "SVM", "KNeighbors", "KernelRidge", "DecisionTree",
            "RandomForest", "LogitAdapted", "GradientBoosting",
        }
        assert all(r.error is None for r in report.results.values())

    def test_metadata_describes_run(self, random_dataset):
        report = benchmark([models.KNNConfig()], random_dataset,
                           split(40, 0.75, 11), kfold_plan(40, 4, 13))
        meta = report.metadata
        assert meta["seed"] == 11
        assert meta["split_ratio"] == 0.75
        assert meta["k_folds"] == 4
        assert meta["dataset"]["n_rows"] == 40
        assert len(meta["dataset"]["checksum"]) == 64
        assert meta["models"][0]["family"] == "KNN"

    def test_single_failure_recorded_not_raised(self, random_dataset):
        configs = [models.KNNConfig(k=500), models.DecisionTreeConfig()]
        report = benchmark(configs, random_dataset,
                           split(40, 0.8, 0), kfold_plan(40, 3, 0))
        assert report.results["KNeighbors"].error is not None
        assert "KTooLarge" in report.results["KNeighbors"].error
        assert report.results["DecisionTree"].error is None

    def test_fold_failure_after_a_fitted_holdout_keeps_only_the_error(
            self, random_dataset):
        # 32 holdout train rows fit k=30; the folds leave 26, 27 and 27
        configs = [models.KNNConfig(k=30), models.DecisionTreeConfig()]
        report = benchmark(configs, random_dataset,
                           split(40, 0.8, 0), kfold_plan(40, 3, 0))
        knn = report.results["KNeighbors"]
        assert knn.error == "KTooLargeError: fold 0: k=30 exceeds 26 training rows"
        assert knn.holdout is None and knn.cv is None
        assert knn.total_time_s == 0.0
        assert report_to_dict(report)["results"]["KNeighbors"] == {
            "family": "KNN", "error": knn.error}
        tree = report.results["DecisionTree"]
        assert tree.error is None
        assert tree.holdout is not None and tree.cv is not None

    def test_bug_in_a_fit_is_raised_not_recorded(self, random_dataset):
        class BrokenConfig:
            family = "Broken"

        def fit(config, X, y):
            raise TypeError("bug in our own code")

        models.register_family("Broken", BrokenConfig, fit)
        try:
            with pytest.raises(TypeError, match="bug in our own code"):
                benchmark([BrokenConfig(), models.DecisionTreeConfig()], random_dataset,
                          split(40, 0.8, 0), kfold_plan(40, 3, 0))
        finally:
            models.unregister_family(BrokenConfig)

    def test_two_configs_of_one_name_raise_before_any_fit(
            self, monkeypatch, random_dataset, child_family):
        fits = []
        child_family(lambda config, X, y: fits.append(config))
        with pytest.raises(ConfigError, match="'ChildStub'"):
            run_with_cpus(monkeypatch, 1, [ChildStubConfig(), ChildStubConfig()],
                          random_dataset, split(40, 0.8, 0), kfold_plan(40, 3, 0))
        assert fits == []
        with pytest.raises(ConfigError, match="'KNeighbors'"):
            benchmark([models.KNNConfig(k=3), models.DecisionTreeConfig(),
                       models.KNNConfig(k=5)], random_dataset,
                      split(40, 0.8, 0), kfold_plan(40, 3, 0))

    def test_all_failures_raise(self, random_dataset):
        with pytest.raises(AllModelsFailedError):
            benchmark([models.KNNConfig(k=500)], random_dataset,
                      split(40, 0.8, 0), kfold_plan(40, 3, 0))

    def test_deterministic_after_stripping_times(self, random_dataset):
        def run():
            report = benchmark(SMALL_ROSTER, random_dataset,
                               split(40, 0.8, 5), kfold_plan(40, 3, 5))
            return strip_times(report_to_dict(report))

        assert json.dumps(run()) == json.dumps(run())


# -- jobs split between this process and one forked child --------------------

@dataclass(frozen=True)
class ChildStubConfig:
    family = "ChildStub"


@pytest.fixture
def child_family():
    """Register a stub family whose fit the test supplies."""
    def register(fit):
        models._REGISTRY[ChildStubConfig] = models.FamilySpec(
            "ChildStub", "ChildStub", ChildStubConfig, None, fit)

    yield register
    models.unregister_family(ChildStubConfig)
    assert multiprocessing.active_children() == []


TEST_PID = os.getpid()


def in_child():
    return os.getpid() != TEST_PID


def run_with_cpus(monkeypatch, cpus, configs, dataset, split_plan, fold_plan):
    monkeypatch.setattr(evaluation, "_usable_cpus", lambda: cpus)
    return benchmark(configs, dataset, split_plan, fold_plan)


def check_svr_fits(monkeypatch):
    """Make every SVR fit, in this process or the child, pass the KKT check
    of test_kernel_models before it returns its model."""
    spec = models.family_spec(models.SVRConfig())

    def fit(config, X, y):
        model = spec.fit(config, X, y)
        box, total, gap = svr_kkt_violations(X, y, model, config)
        assert model.converged and box <= 0.0
        assert total <= config.tol and gap <= config.tol
        return model

    monkeypatch.setitem(models._REGISTRY, models.SVRConfig,
                        dataclasses.replace(spec, fit=fit))


class TestJobsInTwoProcesses:
    @pytest.mark.parametrize("case", ["small_roster", "canonical_trees",
                                      "canonical_roster", "gen_data_svr_c100_knn",
                                      "gen_data_kernel_roster"])
    def test_report_same_with_and_without_the_child(
            self, case, monkeypatch, random_dataset, canonical, tmp_path):
        if case == "small_roster":
            args = (SMALL_ROSTER, random_dataset, split(40, 0.8, 5), kfold_plan(40, 3, 5))
        elif case.startswith("gen_data"):
            generate_csv(400, 3, tmp_path / "table.csv")
            table = load_csv(tmp_path / "table.csv")
            n = table.n_rows
            check_svr_fits(monkeypatch)
            roster = [models.SVRConfig(C=100.0), models.KNNConfig()]
            if case == "gen_data_kernel_roster":  # kernel-2k's roster, in its order
                roster = [models.KNNConfig(), models.KernelRidgeConfig(),
                          models.SVRConfig(C=100.0), models.LogitAdaptedConfig()]
            args = (roster, table, split(n, 0.8, 42), kfold_plan(n, 5, 42))
        else:
            roster = models.default_roster()
            if case == "canonical_trees":
                roster = [models.DecisionTreeConfig(), models.RandomForestConfig(),
                          models.GradientBoostingConfig()]
            n = canonical.n_rows
            args = (roster, canonical, split(n, 0.8, 42), kfold_plan(n, 5, 42))
        # every job times itself as 0 s, so the raw documents can be compared
        monkeypatch.setattr(evaluation, "time",
                            types.SimpleNamespace(perf_counter=lambda: 0.0))
        two = json.dumps(report_to_dict(run_with_cpus(monkeypatch, 2, *args)))
        assert multiprocessing.active_children() == []
        one = json.dumps(report_to_dict(run_with_cpus(monkeypatch, 1, *args)))
        assert two == one

    @pytest.mark.parametrize("folds", [3, 4])
    def test_each_process_runs_every_second_job(
            self, folds, monkeypatch, random_dataset, tmp_path):
        log = tmp_path / "fits.log"
        # feature 0 holds each row's index, so a fit's X names its train rows
        data = make_dataset(np.arange(40.0)[:, None], random_dataset.target)

        def fit(config, X, y):
            with open(log, "a") as fh:  # one short append per fit
                fh.write(f"{os.getpid()} {config.family} "
                         f"{sorted(X[:, 0].astype(int).tolist())}\n")
            return MeanStubModel(float(np.mean(y)), X.shape[1])

        for config_cls in (ChildStubConfig, MeanStubConfig):
            monkeypatch.setitem(models._REGISTRY, config_cls, models.FamilySpec(
                config_cls.family, config_cls.family, config_cls, None, fit))
        split_plan, fold_plan = split(40, 0.8, 0), kfold_plan(40, folds, 0)
        run_with_cpus(monkeypatch, 2, [ChildStubConfig(), MeanStubConfig()],
                      data, split_plan, fold_plan)
        # job order: for each model its holdout, then fold 0..k-1
        trains = [sorted(split_plan.train_indices)]
        trains += [sorted(set(range(40)) - set(fold)) for fold in fold_plan.folds]
        jobs = [f"{family} {rows}" for family in ("ChildStub", "MeanStub")
                for rows in trains]
        assert len(set(jobs)) == len(jobs) == 2 * (folds + 1)
        ran: dict[int, list[int]] = {}
        for line in log.read_text().splitlines():
            pid, job = line.split(" ", 1)
            ran.setdefault(int(pid), []).append(jobs.index(job))
        assert ran.pop(TEST_PID) == list(range(0, len(jobs), 2))
        assert list(ran.values()) == [list(range(1, len(jobs), 2))]  # one child

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_benchmark_agrees_with_holdout_evaluate_and_cross_validate(
            self, cpus, monkeypatch, random_dataset):
        # every job times itself as 0 s, so whole results can be compared
        monkeypatch.setattr(evaluation, "time",
                            types.SimpleNamespace(perf_counter=lambda: 0.0))
        split_plan, fold_plan = split(40, 0.8, 5), kfold_plan(40, 3, 5)
        report = run_with_cpus(monkeypatch, cpus, SMALL_ROSTER, random_dataset,
                               split_plan, fold_plan)
        for config in SMALL_ROSTER:
            result = report.results[models.family_spec(config).display_name]
            assert result.error is None
            assert result.holdout == holdout_evaluate(config, random_dataset, split_plan)
            assert result.cv == cross_validate(config, random_dataset, fold_plan)

    def test_error_in_a_child_fold_keeps_its_tag(
            self, monkeypatch, random_dataset, child_family):
        def fit(config, X, y):
            if in_child():
                raise KTooLargeError("raised in the child")
            return MeanStubModel(float(np.mean(y)), X.shape[1])

        child_family(fit)
        # jobs: holdout, folds 0-2; the child runs the second and fourth
        report = run_with_cpus(monkeypatch, 2, [ChildStubConfig(), models.KNNConfig()],
                               random_dataset, split(40, 0.8, 0), kfold_plan(40, 3, 0))
        assert report.results["ChildStub"].error == \
            "KTooLargeError: fold 0: raised in the child"
        assert report.results["ChildStub"].cv is None
        assert report.results["KNeighbors"].error is None
        report = run_with_cpus(monkeypatch, 1, [ChildStubConfig(), models.KNNConfig()],
                               random_dataset, split(40, 0.8, 0), kfold_plan(40, 3, 0))
        assert report.results["ChildStub"].error is None

    def test_bug_in_a_child_fit_reaches_the_caller(
            self, monkeypatch, random_dataset, child_family):
        def fit(config, X, y):
            if in_child():
                raise TypeError("bug in a child fit")
            return MeanStubModel(float(np.mean(y)), X.shape[1])

        child_family(fit)
        with pytest.raises(TypeError, match="bug in a child fit"):
            run_with_cpus(monkeypatch, 2, [ChildStubConfig()], random_dataset,
                          split(40, 0.8, 0), kfold_plan(40, 3, 0))

    def test_child_that_dies_is_reported(self, monkeypatch, random_dataset, child_family):
        def fit(config, X, y):
            if in_child():
                os._exit(3)
            return MeanStubModel(float(np.mean(y)), X.shape[1])

        child_family(fit)
        with pytest.raises(RuntimeError, match="exited with code 3"):
            run_with_cpus(monkeypatch, 2, [ChildStubConfig()], random_dataset,
                          split(40, 0.8, 0), kfold_plan(40, 3, 0))

    def test_child_that_dies_is_noticed_before_this_process_ends_its_share(
            self, monkeypatch, random_dataset, child_family):
        own_fits = []

        def fit(config, X, y):
            if in_child():
                os._exit(3)
            own_fits.append(len(y))
            time.sleep(0.1)
            return MeanStubModel(float(np.mean(y)), X.shape[1])

        child_family(fit)
        # a holdout and 11 folds: six jobs a process
        with pytest.raises(EvaluationChildError, match="exited with code 3"):
            run_with_cpus(monkeypatch, 2, [ChildStubConfig()], random_dataset,
                          split(40, 0.8, 0), kfold_plan(40, 11, 0))
        assert len(own_fits) <= 3

    def test_child_is_killed_when_this_process_raises(
            self, monkeypatch, random_dataset, child_family):
        class Interrupt(BaseException):
            pass

        def fit(config, X, y):
            if in_child():
                time.sleep(60)
            raise Interrupt

        child_family(fit)
        with pytest.raises(Interrupt):
            run_with_cpus(monkeypatch, 2, [ChildStubConfig()], random_dataset,
                          split(40, 0.8, 0), kfold_plan(40, 3, 0))


def test_canonical_report_same_with_one_and_two_blas_threads():
    """OpenBLAS splits a product differently by thread count. No kernel,
    distance or ensemble sum goes through such a product, and the Cholesky
    solve's blocks give the same bits either way, so the default roster's
    raw report on the canonical table (job times zeroed) does not move."""
    code = (
        "import json, sys, types\n"
        "from batbench import dataset, evaluation, models\n"
        "evaluation.time = types.SimpleNamespace(perf_counter=lambda: 0.0)\n"
        "data = dataset.load_csv(sys.argv[1])\n"
        "n = data.n_rows\n"
        "report = evaluation.benchmark(models.default_roster(), data,\n"
        "                              dataset.split(n, 0.8, 42),\n"
        "                              evaluation.kfold_plan(n, 5, 42))\n"
        "print(json.dumps(evaluation.report_to_dict(report)))\n"
    )
    src = str(CANONICAL_PATH.parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        outputs.append(subprocess.run(
            [sys.executable, "-c", code, str(CANONICAL_PATH)], env=env, check=True,
            capture_output=True, text=True).stdout)
    assert outputs[0] == outputs[1]


def test_dataset_fingerprint_hashes_the_arrays_in_place():
    """The checksum is the sha256 of the features' then the target's bytes,
    as when they were copied out with tobytes()."""
    for data in (load_csv(CANONICAL_PATH), make_dataset(np.arange(64.0).reshape(4, 16),
                                                        [1.0, 2.0, 3.0, 4.0])):
        digest = hashlib.sha256(data.features.tobytes() + data.target.tobytes())
        assert evaluation.dataset_fingerprint(data) == {
            "n_rows": data.n_rows, "checksum": digest.hexdigest()}
