"""Seeded input builder: every generated input of every workload is made here.

``build(workload, seed, work, batbench)`` writes the workload's inputs under
``work`` and returns their paths.  The same seed gives byte-identical inputs.
``batbench`` runs one CLI command (the generated tables are ``gen-data``
tables, as the workloads specify); everything else is drawn here with numpy.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checks

KERNEL_ROWS = 2000
KERNEL_MODELS = ["knn", "kernelridge", {"family": "svm", "C": 100}, "logit"]
IMPORTANCE_ROWS = 322
# 1000 single-row queries leave ten samples beyond p99
SERVE_QUERY_ROWS = 1000
SERVE_BATCH_ROWS = 4000
TABLE_IO_ROWS = 200_000
TABLE_IO_BLANKED_ROWS = 2000


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def build(workload: str, seed: int, work: Path, batbench, canonical: Path) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    if workload == "canonical-benchmark":
        return {}
    if workload == "kernel-2k":
        table = work / "kernel2k.csv"
        batbench(["gen-data", str(table), "-n", str(KERNEL_ROWS), "--seed", str(seed)])
        config = work / "kernel2k.json"
        config.write_text(json.dumps({"models": KERNEL_MODELS}))
        return {"table": table, "config": config}
    if workload == "canonical-serve":
        table = work / "importance.csv"
        batbench(["gen-data", str(table), "-n", str(IMPORTANCE_ROWS),
                  "--seed", str(seed)])
        # query rows: canonical rows, resampled and jittered by up to 10%
        rows = checks.read_table(canonical)[:, :-1]
        rng = _rng(seed, 1)
        n = SERVE_BATCH_ROWS
        picked = rows[rng.integers(0, len(rows), size=n)]
        batch = np.round(picked * rng.uniform(0.9, 1.1, size=picked.shape))
        inputs = work / "serve_inputs.npz"
        # the single-row queries are the batch's first rows, so each single
        # answer has a matching batch row to agree with
        np.savez(inputs, queries=batch[:SERVE_QUERY_ROWS], batch=batch,
                 perm=rng.permutation(n))
        return {"importance": table, "inputs": inputs}
    if workload == "table-io":
        rng = _rng(seed, 2)
        rows = np.sort(rng.choice(TABLE_IO_ROWS, size=TABLE_IO_BLANKED_ROWS,
                                  replace=False))
        cols = rng.integers(0, len(checks.COLUMNS), size=len(rows))
        blanks = work / "blanks.npz"
        np.savez(blanks, rows=rows, cols=cols)
        return {"table": work / "table.csv", "blanked": work / "blanked.csv",
                "blanks": blanks, "rows": TABLE_IO_ROWS, "gen_seed": seed}
    raise ValueError(f"unknown workload {workload!r}")


def blank_cells(src: Path, dst: Path, blanks: Path) -> None:
    """Copy a CSV, emptying one cell in each listed data row."""
    spec = np.load(blanks)
    with open(src, encoding="utf-8", newline="") as fin, \
            open(dst, "w", encoding="utf-8", newline="") as fout:
        header = fin.readline()
        fout.write(header)
        position = header.rstrip("\r\n").split(",").index
        targets = {row: position(checks.COLUMNS[col])
                   for row, col in zip(spec["rows"].tolist(), spec["cols"].tolist())}
        for i, line in enumerate(fin):
            col = targets.get(i)
            if col is not None:
                body = line.rstrip("\r\n")
                cells = body.split(",")
                cells[col] = ""
                line = ",".join(cells) + line[len(body):]
            fout.write(line)
