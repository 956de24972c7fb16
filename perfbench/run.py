"""batbench benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/`` and ``data/`` beside this
directory).  With ``--trace 0`` every batbench command runs untraced in a
fresh interpreter and the end-to-end metrics are reported; with
``--trace 1`` each round runs once untraced and once under the span
recorder of ``tracing.py``, and the per-layer metrics are reported.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CANONICAL = ROOT / "data" / "canonical.csv"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("canonical-benchmark", "kernel-2k", "canonical-serve", "table-io")
CLI_SEED = 42
SPLIT_RATIO = 0.8
K_FOLDS = 5
SETUP_SAMPLES = 7        # fresh-interpreter imports per run
SERVE_SETUP_ONLY = 2     # extra roster fits per canonical-serve run
CHILD_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SERVE_METRICS = {
    "predict_1row_p50_us": "us", "predict_1row_p99_us": "us",
    "predict_rows_per_s": "rows/s", "importance_s": "s",
}
LAYERS = ("cli", "dataset", "datagen", "evaluation", "models.tree", "models.forest",
          "models.boosting", "models.kernel", "models.svr", "models.knn",
          "models.logit", "models.serialize", "importance")
PER_LAYER = {
    "dataset.load_csv_s": "s", "dataset.rows_per_s": "rows/s", "dataset.describe_s": "s",
    "datagen.generate_csv_s": "s",
    "evaluation.plan_s": "s", "evaluation.scale_s": "s", "evaluation.score_s": "s",
    "evaluation.fits": "count",
    **{f"{layer}.{kind}": unit
       for layer in ("models.tree", "models.forest", "models.boosting", "models.kernel",
                     "models.svr", "models.logit")
       for kind, unit in (("fit_s", "s"), ("predict_s", "s"), ("predict_1row_us", "us"))},
    "models.svr.sweeps": "count",
    "models.knn.predict_s": "s", "models.knn.predict_1row_us": "us",
    "models.serialize.save_s": "s", "models.serialize.load_s": "s",
    "models.serialize.roster_bytes": "bytes",
    "importance.permutation_s": "s", "importance.impurity_s": "s",
    "importance.predict_calls": "count",
    "cli.import_s": "s", "cli.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS if layer != "cli"},
    **SERVE_METRICS,
    "trace.overhead_s": "s", "trace.overhead_pct": "%",
}


@dataclass
class Pass:
    """One execution of a workload's timed phase."""

    traced: bool
    wall_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    span_files: list = field(default_factory=list)
    outputs: list = field(default_factory=list)  # deterministic content
    result: dict = field(default_factory=dict)   # what the checks read
    serve: dict = field(default_factory=dict)


@dataclass
class Proc:
    code: int
    start: float
    wall_s: float
    rss_mb: float
    stdout: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_process(cmd: list, log: Path) -> Proc:
    """Run to completion; wall time and the child's own peak RSS (wait4)."""
    with open(log.with_suffix(".out"), "wb") as out, \
            open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(c) for c in cmd], cwd=ROOT, env=child_env(),
                                stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, start, wall, usage.ru_maxrss / 1024.0,
                log.with_suffix(".out").read_text(encoding="utf-8"))


class Workload:
    def __init__(self, name: str, seed: int, seconds: float, work: Path,
                 checker: checks.Checker):
        self.name, self.seconds = name, seconds
        self.work, self.c = work, checker
        self.setup_samples: list[float] = []
        self.single_row_mismatch: dict = {}
        self._n_proc = 0
        self.inputs = inputs.build(name, seed, work, self._build_cli, CANONICAL)

    def _log(self, tag: str) -> Path:
        self._n_proc += 1
        return self.work / f"{self._n_proc:03d}-{tag}"

    def _build_cli(self, args):
        proc = run_process([sys.executable, "-m", "batbench.cli", *args], self._log("build"))
        if proc.code != 0:
            raise RuntimeError(f"input builder: batbench {args[0]} exited {proc.code}")

    def cli(self, args: list, p: Pass) -> Proc | None:
        """One batbench command in a fresh interpreter; None if it failed."""
        log = self._log(args[0])
        if p.traced:
            spans = log.with_suffix(".spans.json")
            cmd = [sys.executable, HERE / "tracing.py", spans, "--", *args]
            p.span_files.append(spans)
        else:
            cmd = [sys.executable, "-m", "batbench.cli", *args]
        proc = run_process(cmd, log)
        p.rss_mb = max(p.rss_mb, proc.rss_mb)
        p.attempted += 1
        if proc.code != 0:
            p.failed += 1
            print(f"batbench {args[0]} exited {proc.code}", file=sys.stderr)
            return None
        return proc

    def measure_setup(self) -> None:
        if self.name == "canonical-serve":
            for _ in range(SERVE_SETUP_ONLY):
                self.serve_worker(setup_only=True)
        else:
            for _ in range(SETUP_SAMPLES):
                proc = run_process([sys.executable, "-c", "import batbench.cli"],
                                   self._log("setup"))
                if proc.code != 0:
                    raise RuntimeError(f"importing batbench.cli exited {proc.code}")
                self.setup_samples.append(proc.wall_s)

    def serve_worker(self, setup_only=False, traced=False) -> dict:
        out = self.work / "out"
        log = self._log("serve")
        trace = log.with_suffix(".spans.json") if traced else None
        out.mkdir(exist_ok=True)
        cmd = [sys.executable, HERE / "serve.py", "--data", CANONICAL,
               "--inputs", self.inputs["inputs"], "--out", out,
               "--seconds", self.seconds]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--trace", trace]
        proc = run_process(cmd, log)
        if proc.code != 0:
            raise RuntimeError(f"serve worker exited {proc.code}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not trace:
            self.setup_samples.append(result["ready"] - proc.start)
        result["rss_mb"] = proc.rss_mb
        result["spans"] = trace
        return result

    def run_pass(self, traced: bool) -> Pass:
        p = Pass(traced)
        getattr(self, "_pass_" + self.name.replace("-", "_"))(p)
        return p

    def check(self, p: Pass) -> None:
        """Output checks on one untraced pass.

        They run after the timed loop: a child started by vfork inherits the
        parent's memory high-water mark in its ru_maxrss, so the parent must
        stay smaller than any child while passes are measured.
        """
        r = p.result
        if "report" in r:
            table = checks.read_table(r["data"])
            checks.check_report(self.c, r["report"], table, CLI_SEED, SPLIT_RATIO, K_FOLDS)
            checks.check_report_oracles(self.c, r["report"], table, CLI_SEED, SPLIT_RATIO)
        if "preds" in r:
            self.single_row_mismatch = checks.check_serving(
                self.c, r["preds"], r["families"], np.load(self.inputs["inputs"]),
                checks.read_table(CANONICAL), CLI_SEED, SPLIT_RATIO)
        if "importance" in r:
            checks.check_importance(self.c, r["importance"])
        if "describe" in r:
            parsed = checks.read_numeric_table(self.inputs["table"])
            checks.check_generated_table(self.c, parsed)
            checks.check_describe(self.c, r["describe"], parsed,
                                  np.load(self.inputs["blanks"])["rows"])

    def _benchmark(self, p: Pass, data, *args) -> None:
        out = self.work / "out"
        proc = self.cli(["benchmark", "--data", data, *args, "--seed", CLI_SEED,
                         "--out", out], p)
        if proc is None:
            return
        p.wall_s += proc.wall_s
        doc = checks.load_json(out / "report.json")
        p.attempted += len(doc["results"])
        p.failed += sum("error" in r for r in doc["results"].values())
        p.outputs.append(checks.strip_times(doc))
        p.result = {"report": doc, "data": data}

    def _pass_canonical_benchmark(self, p: Pass) -> None:
        self._benchmark(p, CANONICAL)

    def _pass_kernel_2k(self, p: Pass) -> None:
        self._benchmark(p, self.inputs["table"], "--config", self.inputs["config"])

    def _pass_canonical_serve(self, p: Pass) -> None:
        out = self.work / "out"
        result = self.serve_worker(traced=p.traced)
        if p.traced:
            p.span_files.append(result["spans"])
        p.wall_s = statistics.median(result["round_s"])
        p.rss_mb = max(p.rss_mb, result["rss_mb"])
        p.attempted += result["attempted"]
        p.failed += result["failed"]
        preds = dict(np.load(out / "predictions.npz"))
        p.outputs.append({k: v.tobytes() for k, v in preds.items()})
        p.result = {"preds": preds, "families": result["families"]}
        latency_us = np.array(result["latency_s"]) * 1e6
        p.serve = {
            "predict_1row_p50_us": float(np.percentile(latency_us, 50)),
            "predict_1row_p99_us": float(np.percentile(latency_us, 99)),
            "predict_rows_per_s": result["batch_rows"] / statistics.median(result["batch_s"]),
            "roster_bytes": result["roster_bytes"],
        }
        proc = self.cli(["importance", "--data", self.inputs["importance"], "--method",
                         "permutation", "--seed", CLI_SEED, "--out", out], p)
        if proc is not None:
            p.serve["importance_s"] = proc.wall_s
            doc = checks.load_json(out / "importance.json")
            p.outputs.append(doc["reports"])
            p.result["importance"] = doc

    def _pass_table_io(self, p: Pass) -> None:
        spec = self.inputs
        table, blanked = spec["table"], spec["blanked"]
        gen = self.cli(["gen-data", table, "-n", spec["rows"], "--seed", spec["gen_seed"]], p)
        if gen is None:
            return
        p.outputs.append(hashlib.sha256(table.read_bytes()).hexdigest())
        if not blanked.exists():
            inputs.blank_cells(table, blanked, spec["blanks"])
        out = self.work / "out"
        desc = self.cli(["describe", "--data", blanked, "--out", out], p)
        if desc is None:
            return
        p.wall_s += gen.wall_s + desc.wall_s
        doc = checks.load_json(out / "describe.json")
        p.outputs.append(doc)
        p.result = {"describe": doc}


def layer_metrics(span_files: list, p: Pass) -> dict:
    """Per-layer metrics of one traced pass, from its span files."""
    m = {name: 0.0 for name in PER_LAYER}
    one_row = defaultdict(list)
    rows_loaded = 0
    imports = []
    for path in span_files:
        doc = checks.load_json(path)
        if "import_s" in doc:
            imports.append(doc["import_s"])
        spans = doc["spans"]
        children = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                children[s["parent"]] += s["end"] - s["start"]

        def ancestors(s):
            while s["parent"] is not None:
                s = spans[s["parent"]]
                yield s

        for s in spans:
            layer, op = s["name"].split(":")
            dur = s["end"] - s["start"]
            m[f"{layer}.self_s"] += dur - children[s["id"]]
            key = {"load_csv": "load_csv_s", "describe": "describe_s",
                   "generate_csv": "generate_csv_s", "plan": "plan_s",
                   "scale": "scale_s", "score": "score_s", "fit": "fit_s",
                   "predict": "predict_s", "save": "save_s", "load": "load_s",
                   "permutation": "permutation_s", "impurity": "impurity_s"}.get(op)
            if f"{layer}.{key}" in m:
                m[f"{layer}.{key}"] += dur
            if op == "load_csv":
                rows_loaded += s["rows"]
            elif op == "fit":
                if any(a["name"].startswith("evaluation:") for a in ancestors(s)):
                    m["evaluation.fits"] += 1
                m["models.svr.sweeps"] += s.get("sweeps", 0)
            elif op == "predict":
                if s["rows"] == 1:
                    one_row[layer].append(dur)
                if s["parent"] is not None and \
                        spans[s["parent"]]["name"] == "importance:permutation":
                    m["importance.predict_calls"] += 1
    for layer, durations in one_row.items():
        m[f"{layer}.predict_1row_us"] = statistics.median(durations) * 1e6
    if m["dataset.load_csv_s"] > 0:
        m["dataset.rows_per_s"] = rows_loaded / m["dataset.load_csv_s"]
    if imports:
        m["cli.import_s"] = statistics.median(imports)
    m["models.serialize.roster_bytes"] = p.serve.get("roster_bytes", 0)
    return m


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                threads = fn()
                break
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas.get('name')}-{blas.get('version')} "
            f"blas_threads={threads}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "batbench" / "cli.py").is_file() or not CANONICAL.is_file():
        print(f"error: no batbench source tree under {ROOT} "
              "(run from the root of a checkout)", file=sys.stderr)
        return 2

    work = WORK / opts.workload
    shutil.rmtree(work, ignore_errors=True)
    c = checks.Checker()
    w = Workload(opts.workload, opts.seed, opts.seconds, work, c)
    traced = bool(opts.trace)
    if not traced:
        w.measure_setup()

    plain, spanned = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < opts.seconds:
        plain.append(w.run_pass(False))
        if traced:
            spanned.append(w.run_pass(True))
    passes = plain + spanned
    # children inherit this high-water mark in ru_maxrss; it must stay below
    # their own peaks for peak_rss_mb to be theirs
    harness_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    w.check(plain[0])
    for p in passes[1:]:
        c.expect(p.outputs == passes[0].outputs,
                 "two passes with the same inputs and seed gave different outputs")
    if traced:
        # the KKT check needs the duals that only the traced run captures
        for p in spanned:
            for path in p.span_files:
                svr = Path(str(path) + ".svr.npz")
                if svr.exists():
                    print(f"svr_kkt_worst={checks.check_svr_kkt(c, svr):.3g}")

    wall = statistics.median(p.wall_s for p in plain)
    if traced:
        per_pass = [layer_metrics(p.span_files, p) for p in spanned]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in PER_LAYER}
        for k in SERVE_METRICS:
            metrics[k] = statistics.median(p.serve.get(k, 0.0) for p in plain)
        traced_wall = statistics.median(p.wall_s for p in spanned)
        metrics["trace.overhead_s"] = traced_wall - wall
        metrics["trace.overhead_pct"] = 100.0 * (traced_wall - wall) / wall
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(w.setup_samples),
            "wall_s": wall,
            "peak_rss_mb": statistics.median(p.rss_mb for p in plain),
        }
        units = END_TO_END
        for k in SERVE_METRICS:
            if any(k in p.serve for p in plain):
                print(f"{k} = {statistics.median(p.serve[k] for p in plain):.6g} "
                      f"{SERVE_METRICS[k]}")

    print(f"env: {environment()}")
    print(f"workload={opts.workload} seed={opts.seed} trace={opts.trace} "
          f"passes={len(passes)} setup_samples={len(w.setup_samples)} "
          f"harness_peak_rss_mb={harness_rss_mb:.1f} "
          f"checks={c.count} failed_checks={len(c.failures)}")
    if w.single_row_mismatch:
        print("single-row answers not bit-identical to their batch row: "
              + json.dumps(w.single_row_mismatch))
    for failure in c.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not c.failures,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
