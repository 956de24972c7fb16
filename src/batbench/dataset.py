"""Loading, summarizing, scaling, and splitting the baseball training table.

The expected CSV schema is sixteen per-semester / career counting features
plus the ``score`` target. Column order in the file is free; in memory the
features always sit in canonical order.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .errors import (
    DegenerateSplitError,
    DimensionMismatchError,
    EmptyDataError,
    EmptyIndexSetError,
    ParseError,
    SchemaError,
    UnknownColumnError,
)

FEATURE_NAMES: tuple[str, ...] = (
    "AtBat", "Hits", "HmRun", "Runs", "RBI", "Walks", "years",
    "CAtBat", "CHits", "CHmRun", "CRuns", "CRBI", "CWalks",
    "PutOuts", "Assists", "Errors",
)
TARGET_NAME = "score"
ALL_COLUMNS: tuple[str, ...] = FEATURE_NAMES + (TARGET_NAME,)

PERCENTILE_POINTS: tuple[int, ...] = (1, 5, 10, 25, 50, 75, 90, 95, 99)

# cell tokens treated as a missing value rather than a parse failure
_MISSING_TOKENS = {"", "na", "nan", "n/a", "null"}

# load_csv reads the body in chunks of about this many characters, and hands
# np.loadtxt the lines made of these bytes alone
_CHUNK_CHARS = 1 << 15
_PLAIN = b"0123456789.eE+-,\r\n"


def _read_only(values) -> np.ndarray:
    """values as a read-only float64 C-contiguous array. One that already is
    such, and is no view of a writable numpy array, is returned as it is;
    anything else (a writable array or a view of one, a list, another dtype
    or layout) is copied."""
    keep = (isinstance(values, np.ndarray) and values.dtype == np.float64
            and values.flags.c_contiguous)
    owner = values
    while keep and isinstance(owner, np.ndarray):
        keep = not owner.flags.writeable
        owner = owner.base
    if not keep:
        values = np.array(values, dtype=np.float64, order="C")
        values.setflags(write=False)
    return values


@dataclass(frozen=True)
class Dataset:
    """Immutable cleaned table: n x 16 features plus the score target.

    ``features`` and ``target`` are read-only float64 C-contiguous arrays.
    An input that already is one, and is no view of a writable numpy array,
    is adopted without a copy; so ``load_csv`` hands over its parse buffers
    and the table is held once. Every other input is copied, so changing it
    afterwards leaves the Dataset unchanged.
    """

    feature_names: tuple[str, ...]
    features: np.ndarray
    target: np.ndarray
    n_rows: int
    n_dropped: int

    def __post_init__(self):
        feats = _read_only(self.features)
        targ = _read_only(self.target)
        if len(targ) != feats.shape[0] or feats.shape[0] != self.n_rows:
            raise ValueError("feature/target row counts disagree with n_rows")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "target", targ)

    def column(self, name: str) -> np.ndarray:
        """Return one column (feature or target) as a 1-D view."""
        if name == TARGET_NAME:
            return self.target
        if name in self.feature_names:
            return self.features[:, self.feature_names.index(name)]
        raise UnknownColumnError(f"unknown column {name!r}")


@dataclass(frozen=True)
class ColumnSummary:
    count: int
    mean: float
    std: float
    min: float
    max: float
    percentiles: dict[int, float]


@dataclass(frozen=True)
class Scaler:
    """Per-column z-score parameters; zero-variance columns store std 1.0."""

    mean: np.ndarray
    std: np.ndarray
    fitted_on: frozenset[int]

    def __post_init__(self):
        mean = np.array(self.mean, dtype=np.float64)
        std = np.array(self.std, dtype=np.float64)
        mean.setflags(write=False)
        std.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


@dataclass(frozen=True)
class SplitPlan:
    train_indices: tuple[int, ...]
    validation_indices: tuple[int, ...]
    seed: int
    ratio: float


def _parse_cell(raw: str, line_no: int, column: str) -> float | None:
    """Parse one cell; None means missing. Non-numeric junk is a ParseError."""
    text = raw.strip()
    if text.lower() in _MISSING_TOKENS:
        return None
    try:
        value = float(text)
    except ValueError:
        raise ParseError(
            f"non-numeric cell at row {line_no}, column {column!r}: {raw!r}"
        ) from None
    if not math.isfinite(value):
        return None
    return value


def _empty_field_lines(lines: list[str], raw: bytes) -> list[int]:
    """Indices of the blank lines and the lines with an empty field in a plain
    chunk (bytes ``raw``): two of comma, CR and LF meet there, but not as CRLF.
    An unended last line that ends in a comma is missed; np.loadtxt refuses it."""
    marks = np.frombuffer(b"\n" + raw, dtype=np.uint8)
    separator = (marks == ord(",")) | (marks <= ord("\r"))
    meets = np.flatnonzero(separator[:-1] & separator[1:])
    gaps = meets[(marks[meets] != ord("\r")) | (marks[meets + 1] != ord("\n"))]
    # raw[gap] lies past that many line ends; gaps are sorted (np.unique imports numpy.ma)
    ends = np.cumsum([len(line) for line in lines[:-1]]) if len(gaps) else []
    return list(dict.fromkeys(np.searchsorted(ends, gaps, side="right").tolist()))


def load_csv(path) -> Dataset:
    """Load a Table-schema CSV into a Dataset.

    Rows missing the score or any feature value are dropped and counted in
    ``n_dropped``. Header names are matched exactly (case-sensitive) but may
    appear in any order in the file. A leading UTF-8 byte-order mark is
    skipped.

    Each data row goes through these rules in order:

    1. A blank line is skipped and not counted.
    2. A row with the wrong number of fields is a ``ParseError``.
    3. ``float()`` parses every cell in canonical column order. If one cell
       raises, ``_parse_cell`` parses the whole row cell by cell instead and
       alone decides: the first cell that is neither a number nor a missing
       token (``""``, ``na``, ``nan``, ``n/a``, ``null`` in any case, padding
       stripped) is a ``ParseError`` naming it; otherwise a row with a
       missing token is dropped.
    4. A row with a value that is not finite (NaN, infinity, or a number
       too large for a float) is dropped.
    5. Every other row is kept.

    numpy's C reader (``np.loadtxt``), which reads the same numbers as
    ``float()``, parses the plain lines (digits, ``. e E + -`` and commas,
    with no empty field) a chunk at a time. The rules above decide the other
    lines, a chunk the C reader refuses, and the rest of the file from the
    first chunk with any other character. Either way the result is the same.

    Kept rows go straight into two ``array("d")`` buffers, the features in
    canonical order and the target. The Dataset adopts read-only views of
    them, so the parsed table is held once, at 8 bytes a value.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise EmptyDataError(f"{path}: file is empty") from None
            header = [h.strip() for h in header]

            missing = [c for c in ALL_COLUMNS if c not in header]
            if missing:
                raise SchemaError(f"missing required column(s): {', '.join(missing)}")
            unknown = [c for c in header if c not in ALL_COLUMNS]
            if unknown:
                raise SchemaError(f"unexpected column(s): {', '.join(unknown)}")
            if len(header) != len(set(header)):
                dupes = sorted({c for c in header if header.count(c) > 1})
                raise SchemaError(f"duplicate column(s): {', '.join(dupes)}")

            positions = [header.index(c) for c in ALL_COLUMNS]

            # kept rows' features end to end, and their targets
            kept = array("d")
            target = array("d")
            n_dropped = 0
            n_raw = 0

            def take(rows):
                """The rules above over (line_no, row) pairs, in file order."""
                nonlocal n_dropped, n_raw
                for line_no, row in rows:
                    if not row:
                        continue
                    n_raw += 1
                    if len(row) != len(header):
                        raise ParseError(
                            f"row {line_no}: expected {len(header)} fields, got {len(row)}"
                        )
                    try:
                        values = [float(row[pos]) for pos in positions]
                    except ValueError:
                        # blanks, missing tokens, junk, and padding float() refuses
                        values = [_parse_cell(row[pos], line_no, ALL_COLUMNS[i])
                                  for i, pos in enumerate(positions)]
                        if None in values:
                            n_dropped += 1
                            continue
                    # a sum of finite values can still overflow to infinity
                    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
                        n_dropped += 1
                        continue
                    target.append(values.pop())
                    kept.extend(values)

            line_no = 2
            while True:
                try:
                    lines = fh.readlines(_CHUNK_CHARS)
                except UnicodeDecodeError:
                    # raised ahead of the rows: read again row by row, so that
                    # a bad row before the bad byte still comes first
                    with open(path, newline="", encoding="utf-8-sig") as again:
                        take(islice(enumerate(csv.reader(again), start=1), line_no - 1, None))
                    raise
                raw = "".join(lines).encode()
                # end of file, another character, or room for a field over csv's limit
                if not lines or raw.translate(None, _PLAIN) or len(raw) > csv.field_size_limit():
                    take(enumerate(csv.reader(chain(lines, fh)), start=line_no))
                    break
                aside = _empty_field_lines(lines, raw)
                plain = lines if not aside else [
                    line for i, line in enumerate(lines) if i not in aside]
                try:
                    block = np.loadtxt(plain, delimiter=",", comments=None, dtype=np.float64,
                                       ndmin=2) if plain else None
                except ValueError:  # junk such as 1e or --1, or a field count that changes
                    block = None
                if block is None or block.shape[1] != len(header):
                    take(enumerate(csv.reader(lines), start=line_no))
                else:
                    rows = block[np.isfinite(block).all(axis=1)]
                    n_raw, n_dropped = n_raw + len(block), n_dropped + len(block) - len(rows)
                    kept.frombytes(rows.take(positions[:-1], axis=1).view(np.uint8))
                    target.frombytes(rows.take(positions[-1], axis=1).view(np.uint8))
                    take(zip([line_no + i for i in aside], csv.reader([lines[i] for i in aside])))
                line_no += len(lines)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: {exc}") from exc

    n_kept = len(target)
    if not n_kept:
        raise EmptyDataError(f"{path}: no data rows")

    features = np.frombuffer(kept, dtype=np.float64)
    targets = np.frombuffer(target, dtype=np.float64)
    features.setflags(write=False)
    targets.setflags(write=False)
    dataset = Dataset(
        feature_names=FEATURE_NAMES,
        features=features.reshape(n_kept, len(FEATURE_NAMES)),
        target=targets,
        n_rows=n_kept,
        n_dropped=n_dropped,
    )
    assert dataset.n_rows + dataset.n_dropped == n_raw
    return dataset


def summarize_column(values: np.ndarray) -> ColumnSummary:
    """ColumnSummary of a 1-D vector (sample std, linearly interpolated percentiles)."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n == 0:
        raise EmptyDataError("cannot summarize an empty column")
    std = float(np.std(values, ddof=1)) if n > 1 else 0.0
    # a contiguous copy (ten times faster than a strided column) made after
    # np.std has freed its temporary; np.percentile sorts it in place
    values = np.array(values)
    return ColumnSummary(
        count=n,
        mean=float(np.mean(values)),
        std=std,
        min=float(np.min(values)),
        max=float(np.max(values)),
        percentiles=dict(zip(PERCENTILE_POINTS,
                             np.percentile(values, PERCENTILE_POINTS,
                                           overwrite_input=True).tolist())),
    )


def describe(dataset: Dataset, column: str) -> ColumnSummary:
    """Descriptive statistics for one column (feature or target)."""
    return summarize_column(dataset.column(column))


def fit_scaler(dataset: Dataset, rows) -> Scaler:
    """Fit per-feature mean/std over exactly the given dataset rows."""
    rows = list(rows)
    if not rows:
        raise EmptyIndexSetError("scaler needs at least one row")
    n = dataset.n_rows
    bad = [r for r in rows if not 0 <= r < n]
    if bad:
        raise IndexError(f"row indices out of range: {bad[:5]}")
    sub = dataset.features[rows]
    mean = sub.mean(axis=0)
    if len(rows) > 1:
        std = sub.std(axis=0, ddof=1)
    else:
        std = np.zeros(sub.shape[1])
    std = np.where(std > 0.0, std, 1.0)
    return Scaler(mean=mean, std=std, fitted_on=frozenset(rows))


def apply_scaler(scaler: Scaler, matrix) -> np.ndarray:
    """Z-score a matrix with stored statistics; the input is left untouched."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != len(scaler.mean):
        got = matrix.shape[1] if matrix.ndim == 2 else matrix.ndim
        raise DimensionMismatchError(
            f"expected {len(scaler.mean)} columns, got {got}"
        )
    return (matrix - scaler.mean) / scaler.std


def split(n: int, ratio: float, seed: int) -> SplitPlan:
    """Seeded shuffle of 0..n-1; the first ceil(ratio*n) rows become train."""
    if not 0.0 < ratio < 1.0:
        raise DegenerateSplitError(f"ratio must be in (0, 1), got {ratio}")
    target = ratio * n
    nearest = round(target)
    # snap away float noise so real-number semantics hold (0.8 * 10 -> 8)
    n_train = int(nearest) if abs(target - nearest) < 1e-9 else math.ceil(target)
    if n_train < 1 or n_train >= n:
        raise DegenerateSplitError(
            f"split of {n} rows at ratio {ratio} leaves an empty side"
        )
    perm = np.random.default_rng(seed).permutation(n)
    return SplitPlan(
        train_indices=tuple(perm[:n_train].tolist()),
        validation_indices=tuple(perm[n_train:].tolist()),
        seed=seed,
        ratio=ratio,
    )
