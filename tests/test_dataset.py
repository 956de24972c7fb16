import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batbench.datagen import generate_csv
from batbench.dataset import (
    ALL_COLUMNS,
    FEATURE_NAMES,
    Dataset,
    _parse_cell,
    apply_scaler,
    describe,
    fit_scaler,
    load_csv,
    split,
    summarize_column,
)
from batbench.errors import (
    DegenerateSplitError,
    DimensionMismatchError,
    EmptyDataError,
    EmptyIndexSetError,
    ParseError,
    SchemaError,
    UnknownColumnError,
)

from conftest import make_dataset, write_table


def sample_row(i=0):
    """One valid data row; each cell offset by i keeps rows distinct."""
    return [v + i for v in (100, 30, 5, 20, 25, 10, 3, 300, 90, 15,
                            60, 75, 30, 200, 50, 5, 400.5)]


class TestLoadCsv:
    def test_canonical_file_loads_every_row(self, canonical):
        assert canonical.n_rows == 322
        assert canonical.n_dropped == 0
        assert canonical.feature_names == FEATURE_NAMES
        assert canonical.features.shape == (322, 16)
        assert np.all(np.isfinite(canonical.features))
        assert len(canonical.target) == 322

    def test_header_only_file(self, tmp_path):
        path = write_table(tmp_path / "empty.csv", ALL_COLUMNS, [])
        with pytest.raises(EmptyDataError):
            load_csv(path)

    def test_missing_score_column(self, tmp_path):
        header = list(ALL_COLUMNS[:-1])
        path = write_table(tmp_path / "noscore.csv", header, [sample_row()[:-1]])
        with pytest.raises(SchemaError, match="score"):
            load_csv(path)

    def test_misspelled_column(self, tmp_path):
        header = [c if c != "Hits" else "Hitz" for c in ALL_COLUMNS]
        path = write_table(tmp_path / "typo.csv", header, [sample_row()])
        with pytest.raises(SchemaError, match="Hits"):
            load_csv(path)

    def test_unexpected_extra_column(self, tmp_path):
        header = list(ALL_COLUMNS) + ["League"]
        path = write_table(tmp_path / "extra.csv", header, [sample_row() + [1]])
        with pytest.raises(SchemaError, match="League"):
            load_csv(path)

    def test_columns_bound_by_name_not_position(self, tmp_path):
        reordered = list(ALL_COLUMNS[::-1])
        row = dict(zip(ALL_COLUMNS, sample_row()))
        path = write_table(tmp_path / "shuffled.csv", reordered,
                           [[row[c] for c in reordered]])
        data = load_csv(path)
        assert data.feature_names == FEATURE_NAMES
        assert data.column("AtBat")[0] == 100
        assert data.column("score")[0] == 400.5

    def test_loaded_arrays_are_contiguous_and_read_only(self, tmp_path):
        rows = [sample_row(i) for i in range(5)]
        path = write_table(tmp_path / "five.csv", ALL_COLUMNS, rows)
        data = load_csv(path)
        assert data.features.shape == (5, 16)
        assert data.target.shape == (5,)
        for array in (data.features, data.target):
            assert array.flags.c_contiguous
            assert not array.flags.writeable
        assert data.features.tolist() == [row[:-1] for row in rows]
        assert data.target.tolist() == [row[-1] for row in rows]

    def test_load_holds_the_table_once(self, tmp_path):
        """The Dataset adopts load_csv's parse buffers: the load's peak is
        one n x 17 float64 table plus parsing slack, not two tables."""
        n = 50_000
        path = tmp_path / "table.csv"
        generate_csv(n, 1, path)
        tracemalloc.start()
        try:
            data = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.n_rows == n
        assert peak < 1.5 * n * len(ALL_COLUMNS) * 8, peak

    def test_byte_order_mark_is_skipped(self, tmp_path):
        rows = [sample_row(i) for i in range(4)]
        rows[2][5] = ""
        plain = write_table(tmp_path / "plain.csv", ALL_COLUMNS, rows)
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        want, got = load_csv(plain), load_csv(marked)
        assert (got.n_rows, got.n_dropped) == (want.n_rows, want.n_dropped) == (3, 1)
        assert np.array_equal(got.features, want.features)
        assert np.array_equal(got.target, want.target)

    def test_blank_score_dropped_and_counted(self, tmp_path):
        r1, r2 = sample_row(0), sample_row(1)
        r2[-1] = ""
        path = write_table(tmp_path / "gap.csv", ALL_COLUMNS, [r1, r2])
        data = load_csv(path)
        assert data.n_rows == 1
        assert data.n_dropped == 1

    def test_missing_feature_dropped_and_counted(self, tmp_path):
        r1, r2, r3 = sample_row(0), sample_row(1), sample_row(2)
        r2[3] = ""
        r3[7] = "NA"
        path = write_table(tmp_path / "gaps.csv", ALL_COLUMNS, [r1, r2, r3])
        data = load_csv(path)
        assert data.n_rows == 1
        assert data.n_dropped == 2

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        r1, r2 = sample_row(0), sample_row(1)
        r2[1] = "abc"
        path = write_table(tmp_path / "junk.csv", ALL_COLUMNS, [r1, r2])
        with pytest.raises(ParseError, match=r"row 3.*Hits"):
            load_csv(path)

    def test_all_rows_dropped_is_empty_data(self, tmp_path):
        row = sample_row()
        row[-1] = ""
        path = write_table(tmp_path / "allgone.csv", ALL_COLUMNS, [row])
        with pytest.raises(EmptyDataError):
            load_csv(path)

    def test_finite_values_whose_sum_overflows_are_kept(self, tmp_path):
        row = sample_row()
        row[0] = row[1] = "1e308"
        row[2] = "\x1c5 "
        data = load_csv(write_table(tmp_path / "big.csv", ALL_COLUMNS, [row]))
        assert (data.n_rows, data.n_dropped) == (1, 0)
        assert data.features[0, :3].tolist() == [1e308, 1e308, 5.0]

    def test_wrong_arity_row(self, tmp_path):
        path = write_table(tmp_path / "short.csv", ALL_COLUMNS,
                           [sample_row()[:5]])
        with pytest.raises(ParseError, match="fields"):
            load_csv(path)


def _padded(cells):
    pad = st.sampled_from(["", " ", "\t", "\x1c", " \t", "\x1c "])
    return st.tuples(pad, cells, pad).map("".join)


def _any_case(token):
    return st.tuples(*[st.sampled_from([c.lower(), c.upper()]) for c in token]).map("".join)


# cells float() reads as finite numbers (1e308 twice in a row overflows a sum)
_NUMBERS = _padded(st.one_of(
    st.tuples(st.integers(-10**6, 10**6), st.integers(0, 99)).map("{0[0]}.{0[1]:02d}".format),
    st.sampled_from(["7", "-12", "1_000", "1e3", "-0", "1e308", "-1.5e308"]),
))
# cells that drop their row or make it a ParseError
_ODD = _padded(st.one_of(
    st.sampled_from(["", "na", "nan", "n/a", "null"]).flatmap(_any_case),
    st.sampled_from(["nan", "inf", "-Infinity", "1e400"]),
    st.sampled_from(["abc", "1x", "--1", "1..2", "1 2", "n a"]),
))


@st.composite
def _tables(draw):
    """Integer rows in a shuffled column order, a few cells replaced."""
    header = draw(st.permutations(ALL_COLUMNS))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        row = [str(v) for v in draw(st.lists(st.integers(-10**6, 10**6),
                                             min_size=len(header), max_size=len(header)))]
        for _ in range(draw(st.integers(0, 4))):
            cell = draw(st.one_of(_NUMBERS, _ODD))
            row[draw(st.integers(0, len(header) - 1))] = cell
        rows.append(row)
    return header, rows


def _reference_load(path, header, rows):
    """load_csv's row rule with _parse_cell applied to every cell."""
    kept, n_dropped = [], 0
    for line_no, row in enumerate(rows, start=2):
        values = [_parse_cell(row[header.index(c)], line_no, c) for c in ALL_COLUMNS]
        if None in values:
            n_dropped += 1
        else:
            kept.append(values)
    if not kept:
        raise EmptyDataError(f"{path}: no data rows")
    table = np.array(kept, dtype=np.float64)
    return table[:, :-1], table[:, -1], len(kept), n_dropped


def _outcome(load):
    try:
        features, target, n_rows, n_dropped = load()
    except (ParseError, EmptyDataError) as exc:
        return type(exc), str(exc)
    return features.tobytes(), target.tobytes(), n_rows, n_dropped


class TestRowRuleProperty:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_tables())
    def test_matches_cell_by_cell_reference(self, table):
        header, rows = table
        with tempfile.TemporaryDirectory() as tmp:
            path = write_table(Path(tmp) / "t.csv", header, rows)

            def fast():
                data = load_csv(path)
                return data.features, data.target, data.n_rows, data.n_dropped

            assert _outcome(fast) == _outcome(lambda: _reference_load(path, header, rows))


class TestDescribe:
    def test_constant_column(self):
        summary = summarize_column(np.array([5.0, 5.0, 5.0]))
        assert summary.count == 3
        assert summary.mean == 5.0
        assert summary.std == 0.0
        assert summary.min == 5.0 and summary.max == 5.0
        assert all(v == 5.0 for v in summary.percentiles.values())

    def test_unknown_column(self, canonical):
        with pytest.raises(UnknownColumnError):
            describe(canonical, "Salary")

    def test_count_equals_n_rows_for_every_column(self, canonical):
        for name in ALL_COLUMNS:
            assert describe(canonical, name).count == canonical.n_rows

    def test_percentiles_bracketed_and_nondecreasing(self, canonical):
        for name in ALL_COLUMNS:
            s = describe(canonical, name)
            values = [s.percentiles[p] for p in sorted(s.percentiles)]
            assert s.min <= values[0]
            assert values[-1] <= s.max
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_matches_brute_force_oracle_on_random_columns(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            col = rng.normal(scale=rng.uniform(0.5, 100.0), size=n)
            s = summarize_column(col)
            assert s.mean == pytest.approx(float(np.mean(col)), abs=1e-9)
            expected_std = float(np.std(col, ddof=1)) if n > 1 else 0.0
            assert s.std == pytest.approx(expected_std, abs=1e-9)
            assert s.min == float(np.min(col))
            assert s.max == float(np.max(col))
            for p, got in s.percentiles.items():
                assert got == pytest.approx(
                    float(np.percentile(col, p, method="linear")), abs=1e-9)


class TestScaler:
    def test_two_point_column(self):
        data = make_dataset([[0.0], [2.0]], [1.0, 2.0])
        scaler = fit_scaler(data, [0, 1])
        assert scaler.mean[0] == 1.0
        assert scaler.std[0] == pytest.approx(math.sqrt(2.0))

    def test_constant_column_stores_unit_std(self):
        data = make_dataset([[7.0], [7.0], [7.0]], [1.0, 2.0, 3.0])
        scaler = fit_scaler(data, [0, 1, 2])
        assert scaler.mean[0] == 7.0
        assert scaler.std[0] == 1.0

    def test_empty_index_set(self, canonical):
        with pytest.raises(EmptyIndexSetError):
            fit_scaler(canonical, [])

    def test_out_of_range_index(self, canonical):
        with pytest.raises(IndexError):
            fit_scaler(canonical, [0, 5000])

    def test_train_rows_become_zero_mean_unit_std(self, canonical):
        rows = list(range(0, 200))
        scaler = fit_scaler(canonical, rows)
        scaled = apply_scaler(scaler, canonical.features[rows])
        stds = np.std(canonical.features[rows], axis=0, ddof=1)
        nonconstant = stds > 0
        assert np.all(np.abs(scaled.mean(axis=0))[nonconstant] < 1e-10)
        assert np.all(np.abs(scaled.std(axis=0, ddof=1) - 1.0)[nonconstant] < 1e-10)

    def test_fitted_on_records_rows(self, canonical):
        scaler = fit_scaler(canonical, [3, 1, 4])
        assert scaler.fitted_on == frozenset({1, 3, 4})


class TestApplyScaler:
    def test_identity(self):
        from batbench.dataset import Scaler
        scaler = Scaler(mean=np.zeros(2), std=np.ones(2), fitted_on=frozenset({0}))
        matrix = np.array([[1.5, -2.0], [0.0, 3.0]])
        assert np.array_equal(apply_scaler(scaler, matrix), matrix)

    def test_shift_and_scale(self):
        from batbench.dataset import Scaler
        scaler = Scaler(mean=np.array([1.0]), std=np.array([2.0]),
                        fitted_on=frozenset({0}))
        assert apply_scaler(scaler, [[5.0]])[0, 0] == 2.0

    def test_wrong_width(self, canonical):
        scaler = fit_scaler(canonical, list(range(10)))
        with pytest.raises(DimensionMismatchError):
            apply_scaler(scaler, np.zeros((3, 15)))

    def test_input_untouched(self, canonical):
        scaler = fit_scaler(canonical, list(range(10)))
        matrix = np.array(canonical.features[:5])
        before = matrix.copy()
        apply_scaler(scaler, matrix)
        assert np.array_equal(matrix, before)


class TestSplit:
    def test_eight_two(self):
        plan = split(10, 0.8, 0)
        assert len(plan.train_indices) == 8
        assert len(plan.validation_indices) == 2
        combined = sorted(plan.train_indices + plan.validation_indices)
        assert combined == list(range(10))

    def test_deterministic(self):
        assert split(50, 0.7, 9) == split(50, 0.7, 9)

    def test_canonical_sizes(self):
        plan = split(322, 0.8, 42)
        assert len(plan.train_indices) == 258
        assert len(plan.validation_indices) == 64

    def test_different_seeds_differ(self):
        assert split(50, 0.7, 1) != split(50, 0.7, 2)

    @pytest.mark.parametrize("n,ratio", [(2, 0.9), (1, 0.5), (5, 1.0), (5, 0.0)])
    def test_degenerate(self, n, ratio):
        with pytest.raises(DegenerateSplitError):
            split(n, ratio, 0)


class TestDatasetArrays:
    def test_writable_input_is_copied(self):
        features = np.arange(32, dtype=np.float64).reshape(2, 16)
        target = np.array([1.0, 2.0])
        data = Dataset(FEATURE_NAMES, features, target, n_rows=2, n_dropped=0)
        features[0, 0] = target[0] = -1.0
        assert data.features[0, 0] == 0.0 and data.target[0] == 1.0
        assert not data.features.flags.writeable and not data.target.flags.writeable

    def test_read_only_view_of_a_writable_array_is_copied(self):
        features = np.arange(32, dtype=np.float64).reshape(2, 16)
        view = features.view()
        view.setflags(write=False)
        data = Dataset(FEATURE_NAMES, view, [1.0, 2.0], n_rows=2, n_dropped=0)
        features[0, 0] = -1.0
        assert data.features[0, 0] == 0.0

    def test_read_only_float64_array_is_adopted(self):
        features = np.arange(32, dtype=np.float64).reshape(2, 16).copy()
        target = np.array([1.0, 2.0])
        for array in (features, target):
            array.setflags(write=False)
        data = Dataset(FEATURE_NAMES, features, target, n_rows=2, n_dropped=0)
        assert data.features is features and data.target is target

    @pytest.mark.parametrize("features", [
        np.arange(32, dtype=np.int64).reshape(2, 16),  # another dtype
        np.asfortranarray(np.arange(32, dtype=np.float64).reshape(2, 16)),
        np.arange(32, dtype=np.float64).reshape(2, 16).tolist(),
    ], ids=["int64", "fortran", "list"])
    def test_other_inputs_become_read_only_contiguous_float64(self, features):
        if isinstance(features, np.ndarray):
            features.setflags(write=False)
        data = Dataset(FEATURE_NAMES, features, (1, 2), n_rows=2, n_dropped=0)
        for array in (data.features, data.target):
            assert array.dtype == np.float64 and array.flags.c_contiguous
            assert not array.flags.writeable
        assert data.features.tolist() == np.asarray(features, dtype=float).tolist()
