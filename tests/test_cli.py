import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from batbench import datagen, evaluation, models
from batbench.cli import FAMILY_NAMES, main
from batbench.dataset import ALL_COLUMNS, FEATURE_NAMES, load_csv, split
from batbench.datagen import _BLOCK_ROWS, generate_csv, generate_table
from batbench.evaluation import kfold_plan
from batbench.rng import derive_seed

from conftest import CANONICAL_PATH, strip_times, write_table


@pytest.fixture
def runner():
    return CliRunner()


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestDescribeCommand:
    def test_canonical_file(self, runner, tmp_path):
        result = runner.invoke(main, ["describe", "--data", str(CANONICAL_PATH),
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        rows = read_csv_rows(tmp_path / "describe.csv")
        assert len(rows) == 18  # header + 17 columns
        header = rows[0]
        atbat = dict(zip(header, next(r for r in rows if r[0] == "AtBat")))
        assert float(atbat["mean"]) == pytest.approx(380.93, abs=0.01)
        assert float(atbat["std"]) == pytest.approx(153.41, abs=0.01)
        assert float(atbat["p99"]) == pytest.approx(658.59, abs=0.01)

        doc = json.loads((tmp_path / "describe.json").read_text())
        assert doc["format_version"] == 1
        assert doc["config"]["seed"] == 42
        assert doc["columns"]["Hits"]["mean"] == pytest.approx(101.03, abs=0.01)

    def test_header_only_file_exits_2(self, runner, tmp_path):
        path = write_table(tmp_path / "empty.csv", ALL_COLUMNS, [])
        result = runner.invoke(main, ["describe", "--data", str(path),
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "no data rows" in result.output

    def test_missing_column_exits_2_and_names_it(self, runner, tmp_path):
        header = [c if c != "Hits" else "Hitz" for c in ALL_COLUMNS]
        path = write_table(tmp_path / "bad.csv", header, [["1"] * 17])
        result = runner.invoke(main, ["describe", "--data", str(path),
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "Hits" in result.output

    def test_missing_data_flag_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["describe", "--out", str(tmp_path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("cell", [b"1\xff", b"1" * 200_000],
                             ids=["not-utf8", "cell-over-csv-field-limit"])
    def test_unreadable_data_file_exits_2_and_names_it(self, runner, tmp_path, cell):
        # csv refuses a field over 131,072 characters
        path = tmp_path / "bad.csv"
        path.write_bytes(",".join(ALL_COLUMNS).encode() + b"\n"
                         + b",".join([cell] + [b"1"] * 16) + b"\n")
        result = runner.invoke(main, ["describe", "--data", str(path),
                                      "--out", str(tmp_path)])
        _assert_input_error(result)
        assert str(path) in result.output


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    """60-row generated table; big enough for folds, small enough to be fast."""
    path = tmp_path_factory.mktemp("data") / "small.csv"
    runner = CliRunner()
    result = runner.invoke(main, ["gen-data", str(path), "-n", "60", "--seed", "3"])
    assert result.exit_code == 0
    return path


class TestBenchmarkCommand:
    def test_single_model_report(self, runner, small_data, tmp_path):
        result = runner.invoke(main, [
            "benchmark", "--data", str(small_data), "--models", "knn",
            "--folds", "3", "--out", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "report.json").read_text())
        assert list(doc["results"]) == ["KNeighbors"]
        entry = doc["results"]["KNeighbors"]
        assert {"val_r2", "val_mae", "val_rmse", "cv"} <= set(entry)
        assert len(entry["cv"]["per_fold_r2"]) == 3
        assert doc["config"]["k_folds"] == 3
        rows = read_csv_rows(tmp_path / "r2.csv")
        assert rows[0] == ["model", "metric", "value"]
        assert {r[1] for r in rows[1:]} == {"val_r2", "cv_mean_r2"}
        assert (tmp_path / "errors.csv").exists()
        assert (tmp_path / "stability_time.csv").exists()

    def test_console_table_is_ranked(self, runner, small_data, tmp_path):
        result = runner.invoke(main, [
            "benchmark", "--data", str(small_data), "--models", "knn,tree,gb",
            "--folds", "3", "--out", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output
        lines = [l for l in result.output.splitlines() if l.strip()]
        assert lines[0].startswith("model")
        assert "%" in lines[1]

    def test_same_seed_reports_identical_after_time_strip(self, runner, small_data,
                                                          tmp_path):
        def run():
            result = runner.invoke(main, [
                "benchmark", "--data", str(small_data),
                "--models", "knn,tree,logit", "--folds", "3",
                "--seed", "7", "--out", str(tmp_path),
            ])
            assert result.exit_code == 0, result.output
            return strip_times(json.loads((tmp_path / "report.json").read_text()))

        assert json.dumps(run()) == json.dumps(run())

    def test_child_that_dies_exits_3(self, runner, small_data, tmp_path, monkeypatch):
        """An evaluation child that dies before it sends its results (as the
        kernel's OOM killer ends one) is an execution failure: exit 3 and one
        error line naming its exit code, not a traceback."""
        parent, run_jobs = os.getpid(), evaluation._run_jobs

        def run_jobs_or_die(jobs, dataset):
            if os.getpid() != parent:
                os._exit(137)
            return run_jobs(jobs, dataset)

        monkeypatch.setattr(evaluation, "_run_jobs", run_jobs_or_die)
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 2)
        result = runner.invoke(main, [
            "benchmark", "--data", str(small_data), "--models", "knn,tree",
            "--folds", "3", "--out", str(tmp_path),
        ])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == ("error: evaluation child exited with code 137 "
                                 "before sending its results\n")
        assert not (tmp_path / "report.json").exists()

    def test_unknown_model_name_exits_2(self, runner, small_data, tmp_path):
        result = runner.invoke(main, [
            "benchmark", "--data", str(small_data), "--models", "mystery",
            "--out", str(tmp_path),
        ])
        assert result.exit_code == 2
        assert "mystery" in result.output

    @pytest.mark.parametrize("models_flag, config, name", [
        ("knn,kneighbors,gb", None, "KNeighbors"),
        (None, {"models": [{"family": "svm", "C": 1}, {"family": "svm", "C": 100},
                           "knn"]}, "SVM"),
    ], ids=["flag", "config"])
    def test_two_models_of_one_name_exit_2(self, runner, small_data, tmp_path,
                                           models_flag, config, name):
        out = tmp_path / "out"
        args = ["benchmark", "--data", str(small_data), "--folds", "3",
                "--out", str(out)]
        if models_flag:
            args += ["--models", models_flag]
        else:
            (tmp_path / "run.json").write_text(json.dumps(config))
            args += ["--config", str(tmp_path / "run.json")]
        result = runner.invoke(main, args)
        _assert_input_error(result)
        assert repr(name) in result.output
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("args", [
        ["benchmark", "--models", "knn", "--folds", "1"],
        ["benchmark", "--models", "knn", "--split", "1.5"],
        ["importance", "--repeats", "0"],
    ])
    def test_bad_split_folds_or_repeats_exits_2(self, runner, small_data, tmp_path,
                                                args):
        result = runner.invoke(main, args + ["--data", str(small_data),
                                             "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ")

    @pytest.mark.parametrize("args", [
        ["describe", "--models", "bogus"],
        ["describe", "--split", "0.5"],
        ["describe", "--folds", "99"],
        ["importance", "--models", "knn"],
        ["importance", "--folds", "3"],
        ["describe", "--no-color"],
        ["benchmark", "--models", "knn", "--no-color"],
        ["importance", "--no-color"],
    ])
    def test_options_a_command_does_not_use_are_usage_errors(self, runner, small_data,
                                                             tmp_path, args):
        result = runner.invoke(main, args + ["--data", str(small_data),
                                             "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "No such option" in result.output

    def test_model_names_are_the_documented_aliases(self):
        expected = {
            "svm": "SVR", "svr": "SVR",
            "knn": "KNN", "kneighbors": "KNN",
            "kernelridge": "KernelRidge", "kernel_ridge": "KernelRidge",
            "kr": "KernelRidge",
            "decisiontree": "DecisionTree", "tree": "DecisionTree",
            "dt": "DecisionTree",
            "randomforest": "RandomForest", "rf": "RandomForest",
            "forest": "RandomForest",
            "gradientboosting": "GradientBoosting", "gb": "GradientBoosting",
            "boosting": "GradientBoosting",
            "logit": "LogitAdapted", "logitadapted": "LogitAdapted",
            "logistic": "LogitAdapted",
        }
        assert {name: spec.family for name, spec in FAMILY_NAMES.items()} == expected

    def test_config_file_with_flag_override(self, runner, small_data, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "data_path": str(small_data),
            "seed": 11,
            "k_folds": 3,
            "models": ["knn", {"family": "tree", "max_depth": 2}],
        }))
        result = runner.invoke(main, [
            "benchmark", "--config", str(config_path), "--seed", "12",
            "--out", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["config"]["seed"] == 12  # flag wins over file
        assert doc["config"]["k_folds"] == 3  # file wins over default
        families = [m["family"] for m in doc["config"]["models"]]
        assert families == ["KNN", "DecisionTree"]
        assert doc["config"]["models"][1]["max_depth"] == 2

    def test_failed_model_has_only_an_error_row(self, runner, tmp_path):
        # 40 rows written twice make KernelRidge's K singular at alpha 1e-300
        lines = CANONICAL_PATH.read_text().splitlines()
        data = tmp_path / "twice.csv"
        data.write_text("\n".join(lines[:1] + lines[1:41] * 2) + "\n")
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "models": [{"family": "kr", "alpha": 1e-300}, "dt"], "k_folds": 3}))
        result = runner.invoke(main, [
            "benchmark", "--config", str(config_path), "--data", str(data),
            "--out", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output
        tables = {name: read_csv_rows(tmp_path / name)
                  for name in ("r2.csv", "errors.csv", "stability_time.csv")}
        failed = [r for r in tables["errors.csv"] if r[0] == "KernelRidge"]
        assert len(failed) == 1
        assert failed[0][:2] == ["KernelRidge", "error"]
        assert failed[0][2].startswith("SingularSystemError: ")
        for rows in tables.values():
            assert "DecisionTree" in {r[0] for r in rows}
        for name in ("r2.csv", "stability_time.csv"):
            assert "KernelRidge" not in {r[0] for r in tables[name]}
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["results"]["KernelRidge"] == {
            "family": "KernelRidge", "error": failed[0][2]}

    def test_emit_json_only(self, runner, small_data, tmp_path):
        out = tmp_path / "jsononly"
        result = runner.invoke(main, [
            "benchmark", "--data", str(small_data), "--models", "knn",
            "--folds", "3", "--emit", "json", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert (out / "report.json").exists()
        assert not (out / "r2.csv").exists()


class TestImportanceCommand:
    def test_writes_both_reports_by_default(self, runner, small_data, tmp_path):
        result = runner.invoke(main, [
            "importance", "--data", str(small_data), "--repeats", "2",
            "--out", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "importance.json").read_text())
        assert set(doc["reports"]) == {"impurity", "permutation"}
        weights = doc["reports"]["impurity"]["weights"]
        assert len(weights) == 16
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-9)
        rows = read_csv_rows(tmp_path / "importance.csv")
        assert rows[0] == ["feature", "weight", "rank"]
        assert len(rows) == 17

    def test_method_and_repeats_echoed(self, runner, small_data, tmp_path):
        result = runner.invoke(main, [
            "importance", "--data", str(small_data),
            "--method", "permutation", "--repeats", "5", "--out", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "importance.json").read_text())
        assert doc["method"] == "permutation"
        assert doc["repeats"] == 5
        assert list(doc["reports"]) == ["permutation"]

    def test_planted_signal_wins_both_methods(self, runner, tmp_path):
        data_path = tmp_path / "planted.csv"
        gen = runner.invoke(main, ["gen-data", str(data_path), "-n", "200",
                                   "--seed", "5"])
        assert gen.exit_code == 0
        result = runner.invoke(main, [
            "importance", "--data", str(data_path), "--repeats", "3",
            "--out", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "importance.json").read_text())
        assert doc["reports"]["impurity"]["ranking"][0] in ("CHits", "CRuns")
        assert doc["reports"]["permutation"]["ranking"][0] in ("CHits", "CRuns")


class TestGenDataCommand:
    def test_writes_schema_exact_table(self, runner, tmp_path):
        path = tmp_path / "gen.csv"
        result = runner.invoke(main, ["gen-data", str(path), "-n", "322",
                                      "--seed", "7"])
        assert result.exit_code == 0, result.output
        rows = read_csv_rows(path)
        assert rows[0] == list(ALL_COLUMNS)
        assert len(rows) == 323
        data = load_csv(path)
        assert data.n_rows == 322

    def test_cumulative_columns_dominate_current(self, runner, tmp_path):
        path = tmp_path / "gen.csv"
        runner.invoke(main, ["gen-data", str(path), "-n", "150", "--seed", "2"])
        data = load_csv(path)
        for current, career in [("AtBat", "CAtBat"), ("Hits", "CHits"),
                                ("HmRun", "CHmRun"), ("Runs", "CRuns"),
                                ("RBI", "CRBI"), ("Walks", "CWalks")]:
            assert np.all(data.column(career) >= data.column(current))

    def test_deterministic_per_seed(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        runner.invoke(main, ["gen-data", str(a), "-n", "50", "--seed", "9"])
        runner.invoke(main, ["gen-data", str(b), "-n", "50", "--seed", "9"])
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["gen-data",
                                      str(tmp_path / "missing" / "out.csv")])
        assert result.exit_code == 2

    def test_bad_row_count_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["gen-data", str(tmp_path / "x.csv"),
                                      "-n", "0"])
        assert result.exit_code == 2

    def test_generate_table_values_are_counts(self):
        table = generate_table(100, 4)
        for name in ALL_COLUMNS:
            assert np.all(table[name] >= 0)

    def test_generate_table_counts_are_int32(self):
        table = generate_table(100, 4)
        for name in ALL_COLUMNS[:-1]:
            assert table[name].dtype == np.int32, name
        assert table["score"].dtype == np.float64

    def test_generate_csv_peak_is_under_one_float64_table(self, tmp_path):
        n = 50_000
        tracemalloc.start()
        try:
            generate_csv(n, 1, tmp_path / "table.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * len(ALL_COLUMNS) * 8, peak

    def test_unallocatable_row_count_exits_3_without_traceback(self, runner, tmp_path):
        # numpy refuses 10**15 rows before it allocates anything
        path = tmp_path / "huge.csv"
        result = runner.invoke(main, ["gen-data", str(path), "-n", str(10**15)])
        assert result.exit_code == 3, result.output
        assert result.output.startswith("error: "), result.output
        assert result.output.count("\n") == 1, result.output
        assert "Traceback" not in result.output
        assert not path.exists()

    # sha256 of generate_csv output as written by the np.savetxt version:
    # one row, either side of a row block and several blocks, at two seeds
    @pytest.mark.parametrize("n, seed, digest", [
        (1, 3, "4820379ab0dbd79104cba72c07d36cb8233cd1ec076454cae5d4d77e26f0d8e7"),
        (1023, 3, "4821ca4bfd994e278eb2856bdb8959291833947ac9b9cdac05a21170428bcdde"),
        (1024, 3, "2f283c87726fc74589b788287ec68340a4d3d58f9b2ea565840f95aa2bda316b"),
        (1025, 3, "e274e33a88d70ef93a77a304da3bd0692a38bca1cdd11c23a9178727dda2468e"),
        (5000, 3, "4636c12dffdbfd139481c2fef697c0c12dec1d026a3d3ab8cb15d11b9a561a13"),
        (1, 11, "31cddbadbd78512bd711df5692e545c11e063462f8083751ce8b4a062034b46f"),
        (1023, 11, "7527bed9516781679229befa2b626b3e4e8d447d7127780b48afb37d1770b15b"),
        (1024, 11, "0dbdb36973350f47e0af36913355628189b1d02b2cc65a8f3833e7557928ed38"),
        (1025, 11, "0bcf4007d726ca1ec3def52a79f15eddcded58d396209c6bc2ee9a2113134418"),
        (5000, 11, "a431b88f6bfeb33a2eb26b6d1064008a6503a95cc99d8ecf0990c8e9caab1520"),
    ])
    def test_bytes_pinned_and_round_trip(self, tmp_path, n, seed, digest):
        assert _BLOCK_ROWS == 1024, "the pinned sizes straddle a 1,024-row block"
        path = tmp_path / "gen.csv"
        generate_csv(n, seed, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        table = generate_table(n, seed)
        data = load_csv(path)
        assert (data.n_rows, data.n_dropped) == (n, 0)
        for name in ALL_COLUMNS:
            assert np.array_equal(data.column(name), table[name]), name

    @pytest.mark.parametrize("seed", [2, 5])
    @pytest.mark.parametrize("n", [1, 1023, 1025, 3001])
    def test_same_bytes_as_the_formatting_writer(self, tmp_path, n, seed):
        generate_csv(n, seed, tmp_path / "lookup.csv")
        _formatting_writer(n, seed, tmp_path / "formatted.csv")
        assert ((tmp_path / "lookup.csv").read_bytes()
                == (tmp_path / "formatted.csv").read_bytes())

    def test_same_bytes_as_the_formatting_writer_at_the_edges(self, tmp_path, monkeypatch):
        # a row of zeros, a row of each column's largest value in the seed-1
        # 200,000-row table, and the scores at both ends of their range
        largest = [687, 240, 58, 187, 210, 105, 19, 11430, 2222, 351, 1367,
                   1480, 1004, 1378, 492, 32]
        rows = np.array([[0] * 16, largest, [1] * 16, [10] * 16], dtype=np.int32)
        table = {name: rows[:, j].copy() for j, name in enumerate(FEATURE_NAMES)}
        table["score"] = np.array([0.0, 0.1, 999.9, 1208.9])
        monkeypatch.setattr(datagen, "generate_table", lambda n, seed: table)
        generate_csv(4, 1, tmp_path / "lookup.csv")
        _formatting_writer(4, 1, tmp_path / "formatted.csv")
        lookup = (tmp_path / "lookup.csv").read_bytes()
        assert lookup == (tmp_path / "formatted.csv").read_bytes()
        assert lookup.split(b"\r\n")[1:3] == [
            b"0," * 16 + b"0.0", ",".join(map(str, largest)).encode() + b",0.1"]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_score_is_its_tenths_over_ten(self, seed):
        # generate_csv looks up a score's text by rint(10 * score)
        score = generate_table(10_000, seed)["score"]
        assert (np.rint(score * 10) / 10).tobytes() == score.tobytes()
        assert not np.signbit(score).any()


def _formatting_writer(n, seed, out_path):
    """generate_csv as it was before its cells were looked up: one ``%`` of
    the row format repeated over each block."""
    table = datagen.generate_table(n, seed)
    columns = [table[name] for name in ALL_COLUMNS]
    line = ",".join(["%d"] * len(FEATURE_NAMES) + ["%.1f"]) + "\r\n"
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(ALL_COLUMNS) + "\r\n")
        for start in range(0, n, _BLOCK_ROWS):
            # counts come out of tolist() as Python ints, the score as floats
            block = [column[start:start + _BLOCK_ROWS].tolist() for column in columns]
            fh.write((line * len(block[0])) % tuple(chain.from_iterable(zip(*block))))


GOLDEN_DIR = Path(__file__).resolve().parent / "data"


class TestGoldenOutputs:
    def test_gen_data_bytes(self, runner, tmp_path):
        path = tmp_path / "gen.csv"
        result = runner.invoke(main, ["gen-data", str(path), "-n", "20",
                                      "--seed", "7"])
        assert result.exit_code == 0, result.output
        golden = GOLDEN_DIR / "gen_data_n20_seed7.csv"
        assert path.read_bytes() == golden.read_bytes()

    def test_describe_columns_on_canonical(self, runner, tmp_path):
        result = runner.invoke(main, ["describe", "--data", str(CANONICAL_PATH),
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "describe.json").read_text())
        golden = GOLDEN_DIR / "describe_canonical_columns.json"
        assert doc["columns"] == json.loads(golden.read_text())


def _assert_input_error(result):
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: "), result.output
    assert "Traceback" not in result.output


class TestConfigFileValues:
    @pytest.mark.parametrize("values", [
        [{"seed": 1}], "seed", 7, None,
        {"seed": "abc"}, {"seed": True}, {"seed": -1}, {"seed": 1.5},
        {"split_ratio": "0.8"}, {"split_ratio": 1.5}, {"split_ratio": False},
        {"k_folds": 2.5}, {"k_folds": 1}, {"k_folds": "3"},
        {"repeats": "3"}, {"repeats": 0},
        {"models": 5}, {"models": "knn"},
        {"emit": "json"}, {"emit": ["xml"]},
        {"data_path": 3}, {"output_dir": ["a"]}, {"method": "bogus"},
        {"sed": 1},
        {"models": [{"family": "rf", "n_trees": 2.5}]},
        {"models": [{"family": "knn", "k": 2.5}]},
        {"models": [{"family": "gb", "n_estimators": 2.5}]},
        {"models": [{"family": "rf", "max_features": 2.5}]},
        {"models": [{"family": "rf", "bootstrap": "no"}]},
        {"models": [{"family": "tree", "max_depth": 2.5}]},
        {"models": [{"family": "gb", "learning_rate": True}]},
        {"models": [{"family": "svm", "max_iter": 2.5}]},
        {"models": [{"family": "rf", "seed": "abc"}]},
        {"models": [{"family": "svm", "C": 10**400}]},
    ])
    def test_bad_value_exits_2(self, runner, small_data, tmp_path, values):
        # flags would override the file, so a JSON object carries the whole run
        flags = ["--data", str(small_data), "--out", str(tmp_path)]
        if isinstance(values, dict):
            values = {"data_path": str(small_data), "output_dir": str(tmp_path),
                      "models": ["knn"], "k_folds": 3, **values}
            flags = []
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(values))
        result = runner.invoke(main, ["benchmark", "--config", str(config_path),
                                      *flags])
        _assert_input_error(result)

    @pytest.mark.parametrize("content", [b'{"seed": 1\xff}', b"[" * 100_000],
                             ids=["not-utf8", "nested-too-deep"])
    def test_unreadable_config_exits_2_and_names_it(self, runner, small_data,
                                                    tmp_path, content):
        config_path = tmp_path / "run.json"
        config_path.write_bytes(content)
        result = runner.invoke(main, [
            "benchmark", "--config", str(config_path), "--data", str(small_data),
            "--out", str(tmp_path),
        ])
        _assert_input_error(result)
        assert str(config_path) in result.output

    def test_bad_method_exits_2_for_importance(self, runner, small_data, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"method": "bogus"}))
        result = runner.invoke(main, [
            "importance", "--config", str(config_path), "--data", str(small_data),
            "--out", str(tmp_path),
        ])
        _assert_input_error(result)

    def test_unknown_model_parameter_is_named(self, runner, small_data, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"models": [{"family": "knn", "kk": 3}]}))
        result = runner.invoke(main, [
            "benchmark", "--config", str(config_path), "--data", str(small_data),
            "--out", str(tmp_path),
        ])
        _assert_input_error(result)
        assert "unknown parameters for KNN: kk" in result.output
        assert "__init__" not in result.output

    def test_int_for_a_float_hyperparameter_runs(self, runner, small_data,
                                                 tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"models": [{"family": "svm", "C": 100}]}))
        result = runner.invoke(main, [
            "benchmark", "--config", str(config_path), "--data", str(small_data),
            "--folds", "3", "--out", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["config"]["models"][0]["C"] == 100

    def test_every_field_accepted_from_file(self, runner, small_data, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "data_path": str(small_data), "seed": 0, "split_ratio": 0.75,
            "k_folds": 3, "models": ["knn"], "output_dir": str(tmp_path / "o"),
            "emit": ["json"], "method": "permutation", "repeats": 2,
        }))
        result = runner.invoke(main, ["importance", "--config", str(config_path)])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "o" / "importance.json").read_text())
        assert doc["config"]["split_ratio"] == 0.75
        assert list(doc["reports"]) == ["permutation"]


def _first_canonical_rows(tmp_path, n):
    lines = CANONICAL_PATH.read_text().splitlines()[: n + 1]
    path = tmp_path / f"first{n}.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestTablesTooSmall:
    def test_validation_side_under_2_rows_exits_2(self, runner, tmp_path):
        path = _first_canonical_rows(tmp_path, 6)
        result = runner.invoke(main, [
            "benchmark", "--data", str(path), "--models", "knn,tree",
            "--folds", "2", "--out", str(tmp_path),
        ])
        _assert_input_error(result)
        assert "validation" in result.output

    def test_fold_under_2_rows_exits_2(self, runner, tmp_path):
        path = _first_canonical_rows(tmp_path, 10)
        result = runner.invoke(main, [
            "benchmark", "--data", str(path), "--models", "knn,tree",
            "--folds", "6", "--out", str(tmp_path),
        ])
        _assert_input_error(result)
        assert "fold" in result.output

    def test_importance_validation_side_under_2_rows_exits_2(self, runner,
                                                             tmp_path):
        path = _first_canonical_rows(tmp_path, 6)
        result = runner.invoke(main, ["importance", "--data", str(path),
                                      "--out", str(tmp_path)])
        _assert_input_error(result)

    def test_two_row_folds_run(self, runner, small_data, tmp_path):
        result = runner.invoke(main, [
            "benchmark", "--data", str(small_data), "--models", "knn",
            "--folds", "30", "--out", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output


def _first_canonical_rows_with_score(tmp_path, n, score_of_row):
    """The first n canonical rows, the score of row i replaced by score_of_row(i)."""
    header, *rows = CANONICAL_PATH.read_text().splitlines()[: n + 1]
    rows = [row.rsplit(",", 1)[0] + f",{score_of_row(i)}" for i, row in enumerate(rows)]
    path = tmp_path / f"first{n}_rescored.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


class TestUnscorableSides:
    """R^2 is undefined on a constant target: the table is at fault, not a model."""

    def test_constant_target_benchmark_exits_2(self, runner, tmp_path):
        path = _first_canonical_rows_with_score(tmp_path, 20, lambda i: 100.0)
        result = runner.invoke(main, [
            "benchmark", "--data", str(path), "--models", "knn,tree",
            "--folds", "3", "--out", str(tmp_path),
        ])
        _assert_input_error(result)
        assert "validation side" in result.output
        assert "constant target" in result.output

    def test_constant_target_importance_exits_2(self, runner, tmp_path):
        path = _first_canonical_rows_with_score(tmp_path, 20, lambda i: 100.0)
        result = runner.invoke(main, ["importance", "--data", str(path),
                                      "--out", str(tmp_path)])
        _assert_input_error(result)
        assert "constant target" in result.output

    def test_constant_target_in_one_fold_exits_2(self, runner, tmp_path):
        n, k_folds, seed = 20, 3, 42
        validation = set(split(n, 0.8, seed).validation_indices)
        folds = kfold_plan(n, k_folds, derive_seed(seed, "kfold")).folds
        fold = set(next(f for f in folds if not validation <= set(f)))
        path = _first_canonical_rows_with_score(
            tmp_path, n, lambda i: 100.0 if i in fold else 100.0 + i)
        result = runner.invoke(main, [
            "benchmark", "--data", str(path), "--models", "knn,tree",
            "--folds", str(k_folds), "--seed", str(seed), "--out", str(tmp_path),
        ])
        _assert_input_error(result)
        assert "a fold of 3 folds" in result.output
        assert "constant target" in result.output

    @pytest.mark.parametrize("k, exit_code", [(50, 2), (27, 2), (26, 0)])
    def test_knn_k_above_smallest_training_side_exits_2(self, runner, tmp_path,
                                                        k, exit_code):
        # 40 rows: 32 train on the holdout, 26 on the folds of 14, 13 and 13 rows
        data = tmp_path / "gen40.csv"
        assert runner.invoke(main, ["gen-data", str(data), "-n", "40",
                                    "--seed", "1"]).exit_code == 0
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"models": [{"family": "knn", "k": k}],
                                      "k_folds": 3}))
        result = runner.invoke(main, ["benchmark", "--data", str(data), "--config",
                                      str(config), "--out", str(tmp_path)])
        if exit_code == 2:
            _assert_input_error(result)
            assert f"k={k} exceeds the 26 rows" in result.output
        else:
            assert result.exit_code == 0, result.output


# JSON values of every type: near the edges of the legal ranges, not finite,
# or past what a float64 holds
_ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 6),
    st.floats(-1.0, 2.0, allow_nan=False),
    st.sampled_from(["", "abc", "1", "rbf", "linear", "euclidean", "uniform"]),
    st.lists(st.integers(0, 3), max_size=2),
    st.sampled_from([float("inf"), float("nan"), 10**400]),
)


def _mostly(legal):
    """``legal`` nine times in ten, else a JSON value of any type."""
    return st.integers(0, 9).flatmap(lambda roll: _ANY_VALUE if roll == 9 else legal)


# values of the right type for each annotation, in or near the legal range;
# counts stay at 5 or under, as their defaults (100, 100, 1000) would make
# fifty runs take minutes
_TYPED = {
    "int": st.integers(1, 5), "float": st.floats(0.01, 1.0),
    "int | None": st.one_of(st.none(), st.integers(0, 5)), "bool": st.booleans(),
    "str": st.sampled_from(["linear", "rbf"]),
}
_COUNT_KEYS = ("n_trees", "n_estimators", "max_iter")


@st.composite
def _model_spec(draw):
    family = draw(st.sampled_from(models.FAMILIES))
    names = sorted(n for n, spec in FAMILY_NAMES.items() if spec is family)
    types = {f.name: f.type for f in fields(family.config_cls)}
    spec = {"family": draw(st.sampled_from(names))}
    for key in draw(st.lists(st.sampled_from(sorted(types)), max_size=3, unique=True)):
        spec[key] = draw(_mostly(_TYPED[types[key]]))
    for key in _COUNT_KEYS:
        if key in types:
            spec[key] = draw(_mostly(st.integers(1, 5)))
    return spec


# the default split ratio and fold count leave one-row sides and folds on
# most tables under 10 rows
_RUN_VALUES = st.fixed_dictionaries({
    "models": _mostly(st.lists(_model_spec(), min_size=1, max_size=3)),
    "split_ratio": _mostly(st.floats(0.2, 0.6)),
    "k_folds": _mostly(st.integers(2, 3)),
}, optional={
    "seed": _mostly(st.integers(0, 2**40)),
    "emit": _mostly(st.lists(st.sampled_from(["json", "csv"]), max_size=2)),
    "method": _mostly(st.sampled_from(["impurity", "permutation"])),
    "repeats": _mostly(st.integers(1, 3)),
})
# 6-12 rows of small counts: repeated rows, constant columns, now and then a
# missing cell that drops its row
_TINY_TABLE = st.lists(
    st.lists(st.integers(0, 99).map(lambda c: "NA" if c == 99 else c % 4),
             min_size=17, max_size=17),
    min_size=6, max_size=12,
)


# derandomized, so Tier-1 runs the same fifty cases every time
@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["describe", "benchmark", "importance"]),
       values=_RUN_VALUES, rows=_TINY_TABLE)
def test_fuzzed_config_and_tiny_table_exit_0_2_or_3(command, values, rows):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = write_table(tmp / "tiny.csv", ALL_COLUMNS, rows)
        values = {**values, "data_path": str(data), "output_dir": str(tmp / "out")}
        config_path = tmp / "run.json"
        config_path.write_text(json.dumps(values))
        result = CliRunner().invoke(main, [command, "--config", str(config_path)])
    assert result.exit_code in (0, 2, 3), (values, result.output, result.exception)
    assert "Traceback" not in result.output


def test_importing_the_cli_does_not_import_multiprocessing():
    """benchmark imports multiprocessing only when it starts a child: the
    module costs about 1.3 MB of resident memory in every command."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, batbench.cli; print('multiprocessing' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True)
    assert result.stdout.strip() == "False"


def _fresh_interpreter(code, **env_vars):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    env.update(env_vars, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_importing_the_package_does_not_import_numpy():
    """The CLI can set the BLAS thread count only while numpy is unloaded."""
    assert _fresh_interpreter(
        "import sys, batbench; print('numpy' in sys.modules)") == "False"


@pytest.mark.parametrize("given, expected", [(None, "1"), ("2", "2")])
def test_the_cli_pins_one_blas_thread_unless_the_caller_sets_it(given, expected):
    code = "import os, batbench.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    env_vars = {} if given is None else {"OPENBLAS_NUM_THREADS": given}
    assert _fresh_interpreter(code, **env_vars) == expected
