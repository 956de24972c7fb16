"""Output checks computed apart from batbench.

Each check compares the program's output with a computation made here from
the documented rules (own CSV reader, own split rule, brute-force KNN,
``np.linalg.solve`` kernel ridge, KKT conditions of the SVR dual) or with a
property the method must have.  None compares with a stored copy of earlier
output.  Nothing here imports batbench.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

import numpy as np

COLUMNS = (
    "AtBat", "Hits", "HmRun", "Runs", "RBI", "Walks", "years",
    "CAtBat", "CHits", "CHmRun", "CRuns", "CRBI", "CWalks",
    "PutOuts", "Assists", "Errors", "score",
)
CAREER_PAIRS = (("CAtBat", "AtBat"), ("CHits", "Hits"), ("CHmRun", "HmRun"),
                ("CRuns", "Runs"), ("CRBI", "RBI"), ("CWalks", "Walks"))
PERCENTILES = (1, 5, 10, 25, 50, 75, 90, 95, 99)
MISSING = {"", "na", "nan", "n/a", "null"}

# documented defaults of the families that have an oracle
KNN_K = 5
KR_ALPHA = 1.0
RBF_GAMMA = 1.0 / 16


class Checker:
    """Collects failed checks; a run is correct when none failed."""

    def __init__(self):
        self.failures: list[str] = []
        self.count = 0

    def expect(self, ok, message: str) -> None:
        self.count += 1
        if not ok:
            self.failures.append(message)

    def close(self, got, want, message: str, rel=1e-9, atol=1e-12) -> None:
        got = np.asarray(got, dtype=np.float64)
        want = np.asarray(want, dtype=np.float64)
        ok = got.shape == want.shape and bool(np.all(np.isfinite(got))) and \
            bool(np.all(np.abs(got - want) <= atol + rel * np.abs(want)))
        self.expect(ok, message)


def read_table(path):
    """Own CSV reader: columns bound by name, rows with a missing cell dropped.

    Returns the kept rows as an n x 17 matrix in COLUMNS order.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        positions = [header.index(c) for c in COLUMNS]
        kept = []
        for row in reader:
            cells = [row[p].strip() for p in positions] if row else []
            if cells and not any(c.lower() in MISSING for c in cells):
                kept.append([float(c) for c in cells])
    return np.array(kept, dtype=np.float64)


def read_numeric_table(path):
    """Fast reader for a table without missing cells, in COLUMNS order."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.float64)
    return table[:, [header.index(c) for c in COLUMNS]]


def checksum(table) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(table[:, :-1]).tobytes())
    digest.update(np.ascontiguousarray(table[:, -1]).tobytes())
    return digest.hexdigest()


def derive_seed(root: int, label: str, index: int = 0) -> int:
    """The documented seed rule: sha256 of 'root:label:index', top 63 bits."""
    digest = hashlib.sha256(f"{root}:{label}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def holdout_split(n: int, ratio: float, seed: int):
    """Seeded shuffle; the first ceil(ratio*n) rows (float noise snapped) train."""
    target = ratio * n
    n_train = round(target) if abs(target - round(target)) < 1e-9 else math.ceil(target)
    perm = np.random.default_rng(seed).permutation(n)
    return perm[:n_train], perm[n_train:]


def kfold_folds(n: int, k: int, seed: int):
    perm = np.random.default_rng(seed).permutation(n)
    return [perm[j::k] for j in range(k)]


def zscore(train, *others):
    mean = train.mean(axis=0)
    std = train.std(axis=0, ddof=1)
    std = np.where(std > 0.0, std, 1.0)
    return [(m - mean) / std for m in (train,) + others]


def sq_distances(A, B, chunk=256):
    """Pairwise squared euclidean distances by direct differences."""
    out = np.empty((len(A), len(B)))
    for i in range(0, len(A), chunk):
        diff = A[i:i + chunk, None, :] - B[None, :, :]
        out[i:i + chunk] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def knn_oracle(X_train, y_train, X_query, k=KNN_K):
    d2 = sq_distances(X_query, X_train)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return np.array([math.fsum(y_train[row]) / k for row in nearest])


def kernel_ridge_oracle(X_train, y_train, X_query, alpha=KR_ALPHA, gamma=RBF_GAMMA):
    K = np.exp(-gamma * sq_distances(X_train, X_train))
    dual = np.linalg.solve(K + alpha * np.eye(len(K)), y_train)
    return np.exp(-gamma * sq_distances(X_query, X_train)) @ dual


def r2(y, pred) -> float:
    return 1.0 - float(np.sum((y - pred) ** 2)) / float(np.sum((y - y.mean()) ** 2))


def strip_times(node):
    if isinstance(node, dict):
        return {k: strip_times(v) for k, v in node.items() if not k.endswith("_time_s")}
    if isinstance(node, list):
        return [strip_times(v) for v in node]
    return node


def check_report(c: Checker, doc: dict, table, seed: int, ratio: float, k: int) -> None:
    """Laws every benchmark report must satisfy, from the harness's own parse."""
    n = len(table)
    meta = doc["metadata"]
    c.expect(meta["dataset"]["n_rows"] == n, f"report n_rows {meta['dataset']['n_rows']} != {n}")
    c.expect(meta["dataset"]["checksum"] == checksum(table), "report dataset checksum differs")
    fold_seed = derive_seed(seed, "kfold")
    c.expect(meta["fold_seed"] == fold_seed, "report fold_seed breaks the seed rule")
    y = table[:, -1]
    _, val = holdout_split(n, ratio, seed)
    folds = kfold_folds(n, k, fold_seed)

    def ss_tot(rows):
        return float(np.sum((y[rows] - y[rows].mean()) ** 2))

    for name, res in doc["results"].items():
        if "error" in res:
            continue
        c.close(res["val_r2"], 1.0 - len(val) * res["val_rmse"] ** 2 / ss_tot(val),
                f"{name}: val_r2 != 1 - n_val*val_rmse^2/SS_tot")
        c.expect(res["val_rmse"] >= res["val_mae"] * (1 - 1e-12), f"{name}: val_rmse < val_mae")
        cv = res["cv"]
        c.expect(len(cv["per_fold_r2"]) == k, f"{name}: {len(cv['per_fold_r2'])} folds, want {k}")
        c.close(cv["mean_r2"], np.mean(cv["per_fold_r2"]), f"{name}: cv mean_r2")
        c.close(cv["std_r2"], np.std(cv["per_fold_r2"], ddof=1), f"{name}: cv std_r2")
        c.close(cv["mean_mae"], np.mean(cv["per_fold_mae"]), f"{name}: cv mean_mae")
        c.close(cv["mean_rmse"], np.mean(cv["per_fold_rmse"]), f"{name}: cv mean_rmse")
        for fold, fr2, fmae, frmse in zip(folds, cv["per_fold_r2"], cv["per_fold_mae"],
                                          cv["per_fold_rmse"]):
            c.close(fr2, 1.0 - len(fold) * frmse ** 2 / ss_tot(fold),
                    f"{name}: fold r2 != 1 - n*rmse^2/SS_tot")
            c.expect(frmse >= fmae * (1 - 1e-12), f"{name}: fold rmse < mae")


def check_report_oracles(c: Checker, doc: dict, table, seed: int, ratio: float) -> None:
    """Brute-force KNN and np.linalg.solve kernel ridge against the holdout R2."""
    train, val = holdout_split(len(table), ratio, seed)
    X, y = table[:, :-1], table[:, -1]
    X_train, X_val = zscore(X[train], X[val])
    results = doc["results"]
    if "KNeighbors" in results and "error" not in results["KNeighbors"]:
        pred = knn_oracle(X_train, y[train], X_val)
        c.close(results["KNeighbors"]["val_r2"], r2(y[val], pred),
                "KNeighbors val_r2 differs from brute-force KNN", rel=0, atol=1e-9)
    if "KernelRidge" in results and "error" not in results["KernelRidge"]:
        pred = kernel_ridge_oracle(X_train, y[train], X_val)
        c.close(results["KernelRidge"]["val_r2"], r2(y[val], pred),
                "KernelRidge val_r2 differs from np.linalg.solve", rel=0, atol=1e-9)


def svr_kkt_violation(fit) -> float:
    """Worst KKT violation of an SVR dual (box, sum(beta)=0, epsilon tube)."""
    beta, C, eps = fit["beta"], float(fit["C"]), float(fit["epsilon"])
    X, y = fit["X"], fit["y"]
    if str(fit["kernel"]) == "rbf":
        K = np.exp(-float(fit["gamma"]) * sq_distances(X, X))
    else:
        K = X @ X.T
    r = y - (K @ beta + float(fit["bias"]))
    upper, lower = beta >= C, beta <= -C
    free_pos = (beta > 0) & ~upper
    free_neg = (beta < 0) & ~lower
    zero = beta == 0
    worst = [
        float(np.max(np.abs(beta)) - C),
        abs(float(np.sum(beta))),
        float(np.max(np.abs(r[zero]) - eps, initial=0.0)),
        float(np.max(np.abs(r[free_pos] - eps), initial=0.0)),
        float(np.max(np.abs(r[free_neg] + eps), initial=0.0)),
        float(np.max(eps - r[upper], initial=0.0)),
        float(np.max(r[lower] + eps, initial=0.0)),
    ]
    return max(worst)


def load_svr_fits(path):
    data = np.load(path)
    fits = {}
    for key in data.files:
        index, name = key.split("_", 1)
        fits.setdefault(int(index), {})[name] = data[key]
    return [fits[i] for i in sorted(fits)]


def check_svr_kkt(c: Checker, path) -> float:
    worst = 0.0
    for fit in load_svr_fits(path):
        violation = svr_kkt_violation(fit)
        worst = max(worst, violation)
        c.expect(violation <= float(fit["tol"]),
                 f"SVR dual violates KKT by {violation:.3g} > tol {float(fit['tol'])}")
    return worst


def check_serving(c: Checker, preds, families, inputs, canonical, seed: int,
                  ratio: float) -> dict:
    """Serving laws plus the KNN and kernel-ridge oracles on the query batch.

    Returns, per family, how many single-row answers differ from their batch
    row in any bit (agreement is checked to rounding, not bit for bit).
    """
    batch, perm, queries = inputs["batch"], inputs["perm"], inputs["queries"]
    single, batched = preds["single"], preds["batch"]
    c.expect(bool(np.all(np.isfinite(batched))), "non-finite batch prediction")
    c.close(single, batched[:len(queries)],
            "single-row predictions differ from their batch rows", rel=1e-9, atol=1e-9)
    c.close(preds["permuted"], batched[perm],
            "permuting query rows does not permute predictions", rel=1e-9, atol=1e-9)
    c.expect(np.array_equal(preds["reloaded"], batched),
             "load_model(save_model(m)) does not predict bit-identically")

    train, _ = holdout_split(len(canonical), ratio, seed)
    X, y = canonical[train, :-1], canonical[train, -1]
    tree_pred = preds["tree_train"]
    values = np.unique(tree_pred)
    means = np.array([y[tree_pred == v].mean() for v in values])
    c.close(values, means, "DecisionTree leaf value != mean of its training targets",
            rel=1e-12, atol=1e-9)

    X_scaled, batch_scaled = zscore(X, batch)
    column = {f: j for j, f in enumerate(families)}
    c.close(batched[:, column["KNN"]], knn_oracle(X_scaled, y, batch_scaled),
            "KNN predictions differ from brute-force KNN", rel=0, atol=1e-9)
    c.close(batched[:, column["KernelRidge"]], kernel_ridge_oracle(X_scaled, y, batch_scaled),
            "KernelRidge predictions differ from np.linalg.solve", rel=1e-9, atol=1e-9)
    return {f: int(np.sum(single[:, j] != batched[:len(queries), j])) for f, j in column.items()}


def check_importance(c: Checker, doc: dict) -> None:
    report = doc["reports"]["permutation"]
    weights, ranking = report["weights"], report["ranking"]
    c.expect(all(w >= 0.0 for w in weights.values()), "negative importance weight")
    c.close(math.fsum(weights.values()), 1.0, "importance weights do not sum to 1")
    ordered = [weights[name] for name in ranking]
    c.expect(sorted(ranking) == sorted(COLUMNS[:-1]),
             "ranking is not a permutation of the features")
    c.expect(all(a >= b for a, b in zip(ordered, ordered[1:])), "ranking not sorted by weight")
    c.expect(set(ranking[:2]) == {"CHits", "CRuns"},
             f"planted signal not ranked first: top two {ranking[:2]}")


def check_generated_table(c: Checker, table) -> None:
    col = {name: table[:, j] for j, name in enumerate(COLUMNS)}
    c.expect(bool(np.all(table[:, :-1] >= 0)), "generated table has a negative count")
    for career, season in CAREER_PAIRS:
        c.expect(bool(np.all(col[career] >= col[season])),
                 f"{career} < {season} in generated table")
    c.expect(bool(np.all(col["score"] >= 0)), "generated table has a negative score")


def check_describe(c: Checker, doc: dict, table, blank_rows) -> None:
    """describe.json against numpy on the harness's parse, blanked rows removed."""
    keep = np.ones(len(table), dtype=bool)
    keep[blank_rows] = False
    kept = table[keep]
    c.expect(doc["n_rows"] == len(kept), f"describe n_rows {doc['n_rows']} != {len(kept)}")
    c.expect(doc["n_dropped"] == len(np.unique(blank_rows)),
             f"describe n_dropped {doc['n_dropped']} != {len(np.unique(blank_rows))}")
    for j, name in enumerate(COLUMNS):
        values = kept[:, j]
        got = doc["columns"][name]
        c.expect(got["count"] == len(values), f"{name}: count")
        want = [values.mean(), values.std(ddof=1), values.min(), values.max()]
        want += list(np.percentile(values, PERCENTILES))
        keys = ["mean", "std", "min", "max"] + [f"p{p}" for p in PERCENTILES]
        c.close([got[k] for k in keys], want, f"{name}: describe statistics differ from numpy")


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
