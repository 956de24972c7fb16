"""Synthetic table generator for self-contained testing.

Counts are nonnegative, every cumulative column is at least its per-semester
counterpart, and the score is a noisy monotone function of CHits and CRuns so
importance diagnostics have a known ground truth.
"""

from __future__ import annotations

import numpy as np

from .dataset import ALL_COLUMNS, FEATURE_NAMES
from .rng import derive_seed

# rows joined into one string by each write in generate_csv
_BLOCK_ROWS = 1024


def generate_table(n: int, seed: int) -> dict[str, np.ndarray]:
    """Columns of an n-row table keyed by canonical column name.

    The sixteen counts are int32 (none exceeds about 11,500), each cast as
    soon as it is drawn or computed; the draws are the int64 and float64
    ones of numpy's defaults, so the values do not depend on the cast. The
    score is float64.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(derive_seed(seed, "gen-data"))

    def counts(low, high):
        return rng.integers(low, high, size=n).astype(np.int32)

    def share(of, low, high):  # floor(of * U(low, high)) as a count
        return np.floor(of * rng.uniform(low, high, size=n)).astype(np.int32)

    years = counts(1, 20)
    at_bat = counts(16, 688)
    hits = share(at_bat, 0.15, 0.35)
    hm_run = share(hits, 0.0, 0.25)
    runs = share(hits, 0.3, 0.8)
    rbi = share(hits, 0.3, 0.9)
    walks = counts(0, 106)

    c_hits = hits + counts(0, 2000)
    c_runs = runs + counts(0, 1200)
    # career at-bats stay above career hits at a noisy, realistic ratio
    c_at_bat = np.maximum(
        at_bat + counts(0, 600) * (years - 1),
        np.ceil(c_hits * rng.uniform(2.8, 5.0, size=n)).astype(np.int32),
    )
    c_hm_run = hm_run + counts(0, 300)
    c_rbi = rbi + counts(0, 1300)
    c_walks = walks + counts(0, 900)

    put_outs = counts(0, 1379)
    assists = counts(0, 493)
    errors = counts(0, 33)

    score = 0.35 * c_hits + 0.25 * c_runs + rng.normal(0.0, 40.0, size=n)
    score = np.round(np.maximum(score, 0.0), 1)

    return {
        "AtBat": at_bat, "Hits": hits, "HmRun": hm_run, "Runs": runs,
        "RBI": rbi, "Walks": walks, "years": years,
        "CAtBat": c_at_bat, "CHits": c_hits, "CHmRun": c_hm_run,
        "CRuns": c_runs, "CRBI": c_rbi, "CWalks": c_walks,
        "PutOuts": put_outs, "Assists": assists, "Errors": errors,
        "score": score,
    }


def generate_csv(n: int, seed: int, out_path) -> None:
    """Write an n-row table in canonical column order.

    The header line comes first, then one line per row: the sixteen counts
    as integers ("%d") and the score with one decimal ("%.1f"), comma
    separated, every line ending in CRLF. No cell is formatted one by one:
    every count and score is nonnegative, so a count v's text is
    ``count_text[v]``, v and its comma, and a score's is ``score_text[k]``,
    ``k / 10`` with one decimal and the line end, for
    ``k = rint(10 * score)``. ``k / 10`` is the score bit for bit, because
    numpy rounds to one decimal as ``rint(10 * x) / 10``. Each block of
    ``_BLOCK_ROWS`` rows is gathered into an object array of those strings
    and written with one join.
    """
    table = generate_table(n, seed)
    counts = [table[name] for name in FEATURE_NAMES]
    tenths = np.rint(table["score"] * 10).astype(np.intp)
    count_text = np.array(
        [f"{v}," for v in range(max(int(c.max()) for c in counts) + 1)], dtype=object)
    score_text = np.array(
        ["%.1f\r\n" % (k / 10.0) for k in range(int(tenths.max()) + 1)], dtype=object)
    cells = np.empty((_BLOCK_ROWS, len(ALL_COLUMNS)), dtype=object)
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(ALL_COLUMNS) + "\r\n")
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(n, start + _BLOCK_ROWS)
            rows = cells[:stop - start]
            for j, column in enumerate(counts):
                rows[:, j] = count_text[column[start:stop]]
            rows[:, -1] = score_text[tenths[start:stop]]
            fh.write("".join(rows.ravel().tolist()))
