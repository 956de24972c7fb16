"""Synthetic table generator for self-contained testing.

Counts are nonnegative, every cumulative column is at least its per-semester
counterpart, and the score is a noisy monotone function of CHits and CRuns so
importance diagnostics have a known ground truth.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .dataset import ALL_COLUMNS, FEATURE_NAMES
from .rng import derive_seed

# rows formatted by one string operation in generate_csv
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
    separated, every line ending in CRLF. Rows are formatted
    ``_BLOCK_ROWS`` at a time by one ``%`` of the row format repeated over
    the block, so no Python call is made per row or per cell.
    """
    table = generate_table(n, seed)
    columns = [table[name] for name in ALL_COLUMNS]
    line = ",".join(["%d"] * len(FEATURE_NAMES) + ["%.1f"]) + "\r\n"
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(ALL_COLUMNS) + "\r\n")
        for start in range(0, n, _BLOCK_ROWS):
            # counts come out of tolist() as Python ints, the score as floats
            block = [column[start:start + _BLOCK_ROWS].tolist() for column in columns]
            fh.write((line * len(block[0])) % tuple(chain.from_iterable(zip(*block))))
