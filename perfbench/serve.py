"""canonical-serve worker: fit the default roster, then answer queries.

Run in a fresh interpreter so that its set-up time is what a user pays:

    python perfbench/serve.py --data data/canonical.csv --inputs serve_inputs.npz \
        --out DIR [--seconds S] [--setup-only] [--trace SPANS.json]

It prints one JSON line.  ``ready`` is the ``time.perf_counter()`` reading
(the system-wide monotonic clock on Linux) at the moment the fitted roster is
ready, so the parent can time set-up from before it started the process.
Predictions go to ``DIR/predictions.npz`` for the parent's checks.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

SPLIT_RATIO = 0.8
SPLIT_SEED = 42
# every round answers 250 single-row queries, one batch, and a save/load of
# the roster; four rounds leave ten of the 1000 latency samples beyond p99
ROUND_QUERIES = 250
MIN_ROUNDS = 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--data", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep adding rounds until this much time has passed")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace")
    opts = parser.parse_args(argv)

    from batbench import dataset, evaluation, models
    rec = None
    if opts.trace:
        import tracing
        rec = tracing.Recorder()
        tracing.install(rec)

    data = dataset.load_csv(opts.data)
    split = dataset.split(data.n_rows, SPLIT_RATIO, SPLIT_SEED)
    train = list(split.train_indices)
    scaler = evaluation.fit_scaler(data, train)
    X_train = data.features[train]
    X_train_scaled = evaluation.apply_scaler(scaler, X_train)
    y_train = data.target[train]
    roster = []
    for config in models.default_roster():
        scaled = models.family_spec(config).scale_sensitive
        model = models.fit_model(config, X_train_scaled if scaled else X_train, y_train)
        roster.append((config.family, scaled, model))
    ready = time.perf_counter()
    result = {"ready": ready, "families": [f for f, _, _ in roster]}
    if opts.setup_only:
        print(json.dumps(result))
        return 0

    inputs = np.load(opts.inputs)
    queries, batch, perm = inputs["queries"], inputs["batch"], inputs["perm"]
    out = Path(opts.out)
    attempted = failed = 0

    def predict_one(model, X):
        """One counted predict call; a call that raises yields NaNs."""
        nonlocal attempted, failed
        attempted += 1
        try:
            return models.predict(model, X)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            failed += 1
            print(f"predict failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return np.nan

    def predict_all(X):
        """One prediction column per family."""
        X_scaled = evaluation.apply_scaler(scaler, X)
        preds = np.empty((len(X), len(roster)))
        for j, (_, scaled, model) in enumerate(roster):
            preds[:, j] = predict_one(model, X_scaled if scaled else X)
        return preds

    single = np.full((len(queries), len(roster)), np.nan)
    latency, round_s, batch_s = [], [], []
    reloaded = np.empty((len(batch), len(roster)))
    started = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - started < opts.seconds:
        round_start = time.perf_counter()
        first = rounds * ROUND_QUERIES % len(queries)
        for i in range(first, first + ROUND_QUERIES):
            start = time.perf_counter()
            single[i] = predict_all(queries[i:i + 1])[0]
            latency.append(time.perf_counter() - start)

        start = time.perf_counter()
        batched = predict_all(batch)
        batch_s.append(time.perf_counter() - start)

        roster_bytes = 0
        for j, (family, scaled, model) in enumerate(roster):
            path = out / f"{family}.json"
            models.save_model(model, path)
            roster_bytes += path.stat().st_size
            restored = models.load_model(path)
            reloaded[:, j] = predict_one(
                restored, evaluation.apply_scaler(scaler, batch) if scaled else batch)
        round_s.append(time.perf_counter() - round_start)
        rounds += 1

    # inputs of the parent's checks, outside the timed rounds
    permuted = predict_all(batch[perm])
    tree = next(m for f, _, m in roster if f == "DecisionTree")
    tree_train = models.predict(tree, X_train)

    np.savez(out / "predictions.npz", single=single, batch=batched,
             permuted=permuted, reloaded=reloaded, tree_train=tree_train)
    result.update(
        round_s=round_s, latency_s=latency, batch_s=batch_s,
        batch_rows=len(batch), roster_bytes=roster_bytes,
        attempted=attempted, failed=failed,
    )
    if rec is not None:
        rec.dump(opts.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
