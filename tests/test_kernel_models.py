import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from batbench import models
from batbench.models import kernel as kernel_module
from batbench.models.svr import _best_step
from batbench.dataset import apply_scaler, fit_scaler, split
from batbench.errors import NotConvergedWarning, SingularSystemError
from batbench.models import (
    KernelRidgeConfig,
    LogitAdaptedConfig,
    SVRConfig,
    cholesky_solve,
    fit_kernel_ridge,
    fit_logit_adapted,
    fit_svr,
    kernel_matrix,
)

from conftest import v1_document


def gaussian_elimination(A, b):
    """Independent dense solver: partial-pivot elimination, no factorization."""
    A = np.array(A, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    n = len(A)
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(A[col:, col])))
        A[[col, pivot]] = A[[pivot, col]]
        b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = A[row, col] / A[col, col]
            A[row, col:] -= factor * A[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1:] @ x[row + 1:]) / A[row, row]
    return x


def svr_kkt_violations(X, y, model, config):
    """KKT residuals of a returned SVR dual, from the dual alone.

    The kernel is computed here from pairwise differences, not by the
    library. Returns (box excess, |sum(beta)|, worst complementarity gap):
    a zero coefficient needs |r| <= eps, a free positive one r = eps, a free
    negative one r = -eps, one at +C needs r >= eps and one at -C r <= -eps,
    where r = y - (K beta + bias).
    """
    beta = np.asarray(model.dual_coef)
    C, eps = config.C, config.epsilon
    if config.kernel == "rbf":
        K = np.exp(-config.gamma * np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=2))
    else:
        K = np.einsum("ik,jk->ij", X, X)
    r = y - (K @ beta + model.bias)
    upper, lower = beta >= C, beta <= -C
    gaps = np.concatenate([
        np.abs(r[beta == 0.0]) - eps,
        np.abs(r[(beta > 0.0) & ~upper] - eps),
        np.abs(r[(beta < 0.0) & ~lower] + eps),
        eps - r[upper],
        r[lower] + eps,
    ])
    box = float(np.max(np.abs(beta)) - C)
    return box, abs(float(np.sum(beta))), float(np.max(gaps))


@pytest.fixture(scope="module")
def canonical_train(canonical):
    """The canonical holdout train split, z-scored as the benchmark does."""
    rows = list(split(canonical.n_rows, 0.8, 42).train_indices)
    scaler = fit_scaler(canonical, rows)
    return apply_scaler(scaler, canonical.features[rows]), canonical.target[rows]


def best_pair_step(beta_i, beta_j, g_i, g_j, eta, eps, C):
    """Exact maximum of the SVR pair objective ``t (g_i - g_j) - eta t^2 / 2
    - eps (|beta_i + t| - |beta_i|) - eps (|beta_j - t| - |beta_j|)`` over
    the box ``|beta_i + t| <= C, |beta_j - t| <= C``, in Fractions: the
    objective is quadratic between its breakpoints -beta_i and beta_j, so
    the maximum lies at a segment end or at a segment's clipped stationary
    point. Returns (maximum, (box low, box high), the objective)."""
    beta_i, beta_j, eta, eps, C = map(Fraction, (beta_i, beta_j, eta, eps, C))
    d_g = Fraction(g_i) - Fraction(g_j)

    def gain(t):
        return (t * d_g - eta * t * t / 2 - eps * (abs(beta_i + t) - abs(beta_i))
                - eps * (abs(beta_j - t) - abs(beta_j)))

    lo, hi = max(-C - beta_i, beta_j - C), min(C - beta_i, beta_j + C)
    edges = sorted({lo, hi} | {b for b in (-beta_i, beta_j) if lo < b < hi})
    steps = list(edges)
    for a, b in zip(edges, edges[1:]):
        mid = (a + b) / 2
        s_i = 1 if beta_i + mid > 0 else -1
        s_j = 1 if beta_j - mid > 0 else -1
        if eta > 0:
            steps.append(min(max((d_g - eps * s_i + eps * s_j) / eta, a), b))
    return max(gain(t) for t in steps), (lo, hi), gain


class TestCholeskySolve:
    def test_matches_elimination_on_random_spd_systems(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 25))
            M = rng.normal(size=(n, n))
            A = M @ M.T + np.eye(n)
            b = rng.normal(size=n)
            assert np.max(np.abs(cholesky_solve(A, b) - gaussian_elimination(A, b))) < 1e-8

    def test_leaves_its_arguments_unchanged(self):
        rng = np.random.default_rng(12)
        M = rng.normal(size=(30, 30))
        A = M @ M.T + np.eye(30)
        b = rng.normal(size=30)
        A_before, b_before = A.copy(), b.copy()
        cholesky_solve(A, b)
        assert A.tobytes() == A_before.tobytes()
        assert b.tobytes() == b_before.tobytes()

    def test_rejects_indefinite_matrix(self):
        with pytest.raises(SingularSystemError):
            cholesky_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))

    # the factorization works in 128-column blocks: sizes around one and
    # two blocks, and one past them
    @pytest.mark.parametrize("n", [127, 128, 129, 256, 257, 300])
    def test_blocked_factor_matches_elimination(self, n):
        rng = np.random.default_rng(n)
        M = rng.normal(size=(n, n))
        A = M @ M.T / n + np.eye(n)
        b = rng.normal(size=n)
        assert np.max(np.abs(cholesky_solve(A, b) - gaussian_elimination(A, b))) < 1e-8

    def test_names_the_first_bad_pivot_past_the_first_block(self):
        # A = G G' has G's diagonal as its pivots; lowering A[200, 200] by
        # twice its pivot's square leaves the leading 200 x 200 block SPD
        rng = np.random.default_rng(20)
        G = np.tril(rng.normal(size=(300, 300)), -1) / 300 + np.eye(300)
        A = G @ G.T
        A[200, 200] -= 2.0
        with pytest.raises(SingularSystemError, match=r"at column 200;"):
            cholesky_solve(A, np.ones(300))

    def test_a_nan_cell_in_a_later_block_raises(self):
        rng = np.random.default_rng(21)
        M = rng.normal(size=(300, 300))
        A = M @ M.T / 300 + np.eye(300)
        A[260, 10] = A[10, 260] = np.nan
        with pytest.raises(SingularSystemError, match=r"at column 260;"):
            cholesky_solve(A, np.ones(300))

    def test_block_updates_work_one_row_block_at_a_time(self):
        # an update of every row below a block at once would hold a
        # 1,472 x 128 product (1.4 MiB) beside the n x n copy
        rng = np.random.default_rng(22)
        X = rng.normal(size=(1600, 16))
        A = kernel_matrix("rbf", 1.0 / 16, X, X) + np.eye(1600)
        b = rng.normal(size=1600)
        tracemalloc.start()
        try:
            cholesky_solve(A, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - A.nbytes < 1 << 20

    def test_same_bytes_with_one_and_two_blas_threads(self):
        """OpenBLAS splits a matrix-vector product differently by thread
        count; the block products and the short in-block products give the
        same bits either way. K is built with einsum, which calls no BLAS."""
        code = (
            "import hashlib, numpy as np\n"
            "from batbench.models import cholesky_solve\n"
            "for n in (300, 1600):\n"
            "    X = np.random.default_rng(n).normal(size=(n, 16))\n"
            "    sq = np.einsum('ij,ij->i', X, X)\n"
            "    d2 = sq[:, None] + sq - 2.0 * np.einsum('ik,jk->ij', X, X)\n"
            "    K = np.exp(-np.clip(d2, 0.0, None) / 16) + np.eye(n)\n"
            "    x = cholesky_solve(K, np.linspace(-1.0, 1.0, n))\n"
            "    print(n, hashlib.sha256(x.tobytes()).hexdigest())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            outputs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                          capture_output=True, text=True).stdout)
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("n", [1, 2, 258, 1600])
@pytest.mark.parametrize("kind", ["rbf", "linear"])
def test_self_kernel_matrix_is_exactly_symmetric(kind, n):
    X = np.random.default_rng(n).normal(size=(n, 16))
    K = kernel_matrix(kind, 1.0 / 16, X, X)
    assert K.tobytes() == np.ascontiguousarray(K.T).tobytes()


@pytest.mark.parametrize("block_rows", [1, 7, None])
@pytest.mark.parametrize("kind", ["rbf", "linear"])
def test_self_kernel_is_symmetric_and_each_row_is_made_alone(
        canonical_train, kind, block_rows, monkeypatch):
    """SVR reads the contiguous row K[i] for the column K[:, i]: the kernel
    of the training rows with themselves is exactly symmetric in any row
    blocks, and each row has the bits of that row's kernel made alone."""
    X, _ = canonical_train
    if block_rows is not None:
        monkeypatch.setattr(kernel_module, "_BLOCK_CELLS", block_rows * len(X))
    K = kernel_matrix(kind, 1.0 / 16, X, X)
    assert K.tobytes() == np.ascontiguousarray(K.T).tobytes()
    rows = np.vstack([kernel_matrix(kind, 1.0 / 16, X[i:i + 1], X) for i in range(len(X))])
    assert rows.tobytes() == K.tobytes()


class TestKernelRidge:
    def test_single_point_closed_form(self):
        model = fit_kernel_ridge(KernelRidgeConfig(alpha=1.0, kernel="rbf", gamma=1.0),
                                 np.array([[0.0]]), np.array([1.0]))
        assert model.dual_coef[0] == pytest.approx(0.5, abs=1e-12)
        assert model.predict(np.array([[0.0]]))[0] == pytest.approx(0.5, abs=1e-12)

    def test_huge_penalty_shrinks_predictions_to_zero(self):
        rng = np.random.default_rng(1)
        X = rng.random((15, 3))
        y = rng.random(15)
        model = fit_kernel_ridge(KernelRidgeConfig(alpha=1e9, kernel="rbf", gamma=1.0), X, y)
        assert np.all(np.abs(model.predict(X)) < 1e-6)

    def test_matches_elimination_oracle_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            X = rng.normal(size=(20, 3))
            y = rng.normal(size=20)
            config = KernelRidgeConfig(alpha=0.7, kernel="rbf", gamma=1.0 / 3)
            model = fit_kernel_ridge(config, X, y)
            K = kernel_matrix("rbf", config.gamma, X, X)
            system = K + config.alpha * np.eye(20)
            assert np.max(np.abs(system @ model.dual_coef - y)) < 1e-8
            oracle = gaussian_elimination(system, y)
            queries = rng.normal(size=(8, 3))
            oracle_pred = kernel_matrix("rbf", config.gamma, queries, X) @ oracle
            assert np.max(np.abs(model.predict(queries) - oracle_pred)) < 1e-8

    @pytest.mark.parametrize("kind", ["rbf", "linear"])
    def test_fit_solves_its_own_kernel_matrix_as_cholesky_solve_does(self, kind):
        # the fit factors K in place; cholesky_solve factors a copy of it;
        # 300 rows take the blocked path
        for n in (40, 300):
            rng = np.random.default_rng(6)
            X = rng.normal(size=(n, 3))
            y = rng.normal(size=n)
            config = KernelRidgeConfig(alpha=0.3, kernel=kind, gamma=0.5)
            K = kernel_matrix(kind, config.gamma, X, X) + config.alpha * np.eye(n)
            K_before = K.copy()
            dual = cholesky_solve(K, y)
            assert K.tobytes() == K_before.tobytes()
            assert fit_kernel_ridge(config, X, y).dual_coef.tobytes() == dual.tobytes()

    def test_linear_kernel_learns_a_line(self):
        X = np.linspace(-1, 1, 30).reshape(-1, 1)
        y = 2.0 * X.ravel()
        model = fit_kernel_ridge(KernelRidgeConfig(alpha=1e-6, kernel="linear"), X, y)
        assert np.max(np.abs(model.predict(X) - y)) < 1e-3


class TestSVR:
    def test_exact_line_residuals_inside_tube(self):
        X = np.linspace(0, 1, 20).reshape(-1, 1)
        y = 2.0 * X.ravel()
        config = SVRConfig(kernel="linear", C=100.0, epsilon=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", NotConvergedWarning)
            model = fit_svr(config, X, y)
        assert model.converged
        assert np.max(np.abs(y - model.predict(X))) <= config.epsilon + 1e-6

    def test_constant_target_prediction_stays_in_tube(self):
        rng = np.random.default_rng(3)
        X = rng.random((12, 4))
        y = np.full(12, 4.2)
        for kernel in ("linear", "rbf"):
            model = fit_svr(SVRConfig(kernel=kernel, gamma=0.25), X, y)
            assert np.max(np.abs(model.predict(X) - 4.2)) <= 0.1 + 1e-6

    def test_objective_trace_is_nondecreasing(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40) * 2.0
        model = fit_svr(SVRConfig(kernel="rbf", gamma=1 / 3), X, y)
        trace = model.objective_trace
        assert len(trace) >= 2
        assert all(later >= earlier for earlier, later in zip(trace, trace[1:]))

    def test_dual_coefficients_respect_box(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30) * 5.0
        config = SVRConfig(kernel="rbf", gamma=0.5, C=0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotConvergedWarning)
            model = fit_svr(config, X, y)
        assert np.all(model.dual_coef <= config.C)
        assert np.all(model.dual_coef >= -config.C)

    def test_iteration_cap_flags_not_converged(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50) * 100.0
        # a huge box keeps the optimum interior, so one sweep cannot finish
        config = SVRConfig(kernel="rbf", gamma=1 / 3, C=1e4, max_iter=1, tol=1e-6)
        with pytest.warns(NotConvergedWarning):
            model = fit_svr(config, X, y)
        assert not model.converged
        assert np.all(np.isfinite(model.predict(X)))


    def test_warning_names_the_sweep_cap(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50) * 100.0
        config = SVRConfig(kernel="rbf", gamma=1 / 3, C=1e4, max_iter=1, tol=1e-6)
        with pytest.warns(NotConvergedWarning, match="after 1 sweeps") as record:
            fit_svr(config, X, y)
        assert "stuck" not in str(record[0].message)

    def test_warning_names_a_stuck_update(self, monkeypatch):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50) * 100.0
        monkeypatch.setattr("batbench.models.svr._best_step", lambda *args: (0.0, 0.0))
        with pytest.warns(NotConvergedWarning, match="stuck at update 0") as record:
            model = fit_svr(SVRConfig(kernel="rbf", gamma=1 / 3), X, y)
        assert "sweeps" not in str(record[0].message)
        assert not model.converged
        assert model.n_sweeps == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_best_step_maximizes_the_pair_objective(self, seed):
        """On small random pairs, ``_best_step``'s step lies in the box and
        its exact gain is the box's exact maximum, to rounding."""
        rng = np.random.default_rng(300 + seed)
        for _ in range(250):
            C = float(rng.choice([0.5, 1.0, 3.0, 100.0]))
            # some coefficients sit on a box side or at zero, as fitted ones do
            beta_i, beta_j = (float(rng.choice([-C, 0.0, C])) if rng.random() < 0.25
                              else float(rng.uniform(-C, C)) for _ in range(2))
            g_i, g_j = rng.normal(scale=float(rng.choice([0.1, 1.0, 10.0])), size=2)
            eta = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.01, 4.0))
            eps = float(rng.choice([0.0, 0.1, 0.5]))
            t, gain = _best_step(beta_i, beta_j, float(g_i), float(g_j), eta, eps, C)
            best, (lo, hi), exact = best_pair_step(beta_i, beta_j, g_i, g_j, eta, eps, C)
            scale = 1 + abs(g_i - g_j) * C + eta * C * C + eps * C
            tol = Fraction(1e-12) * Fraction(scale)
            assert lo - tol <= Fraction(t) <= hi + tol
            assert exact(Fraction(t)) >= best - tol
            assert abs(Fraction(gain) - exact(Fraction(t))) <= tol
            assert (gain > 0.0) == (t != 0.0)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    def test_random_duals_satisfy_kkt(self, kernel, seed):
        rng = np.random.default_rng(100 + seed)
        n, d = int(rng.integers(10, 60)), int(rng.integers(1, 5))
        X = rng.normal(size=(n, d))
        y = X @ rng.normal(size=d) + rng.normal(size=n) * rng.uniform(0.1, 5.0)
        config = SVRConfig(kernel=kernel, gamma=1.0 / d, C=(1.0, 100.0)[seed % 2],
                           epsilon=float(rng.uniform(0.0, 0.5)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", NotConvergedWarning)
            model = fit_svr(config, X, y)
        box, total, gap = svr_kkt_violations(X, y, model, config)
        assert box <= 0.0
        assert total <= config.tol
        if not model.converged:
            # first-order pair selection can need more than max_iter sweeps
            # on a low-rank linear kernel; such a fit must say so
            assert [w.category for w in caught] == [NotConvergedWarning]
            return
        assert gap <= config.tol

    @pytest.mark.parametrize("C", [1.0, 100.0])
    def test_canonical_duals_satisfy_kkt(self, canonical_train, C):
        X, y = canonical_train
        config = SVRConfig(C=C)
        model = fit_svr(config, X, y)
        assert model.converged
        box, total, gap = svr_kkt_violations(X, y, model, config)
        assert box <= 0.0
        assert total <= config.tol
        assert gap <= config.tol


# sha256 of v1_document (conftest), computed by the code before the kernel layer
# stopped copying (SVR-C100's, SVR-linear's and KernelRidge's: by the first
# einsum kernel products); fits on the z-scored canonical holdout train split.
# No kernel product calls BLAS, so the pins hold at any OpenBLAS thread count
KERNEL_FIT_SHA256 = {
    "SVR": "1bdfd6d0aa6269a48821d40510d60970ed3e9b124d17beab26515489d4aec1fc",
    "SVR-C100": "650b07e7ec79aaae71988486e015b833c2e57a72a93da925bbe11e9b3ed18f92",
    "SVR-linear": "cd7852a1e228871338db3861f2f38f7fcb55b00b065401d6916d8b8c1ed8d41c",
    "KernelRidge": "1059c3ccc1954bc8131824248f2e9088140240513e8d3cdbbd42fe49f75fddfa",
    "KernelRidge-linear":
        "4c6be445da32116998e84fb13f53e0005d429146018fe4c3042a50d7b50874b1",
    "LogitAdapted": "b6460628b4201793f031a7d554dad5818b95f5798eebef99652da5e571a8f22a",
}


@pytest.mark.parametrize("name, config", [
    ("SVR", SVRConfig()),
    ("SVR-C100", SVRConfig(C=100.0)),
    ("SVR-linear", SVRConfig(kernel="linear")),
    ("KernelRidge", KernelRidgeConfig()),
    ("KernelRidge-linear", KernelRidgeConfig(kernel="linear")),
    ("LogitAdapted", LogitAdaptedConfig()),
], ids=lambda v: v if isinstance(v, str) else "")
def test_canonical_kernel_fits_are_pinned(canonical_train, name, config):
    X, y = canonical_train
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotConvergedWarning)
        model = models.fit_model(config, X, y)
    document = v1_document(model)
    assert hashlib.sha256(document.encode()).hexdigest() == KERNEL_FIT_SHA256[name]


@pytest.mark.parametrize("family, config", [
    ("KernelRidge", KernelRidgeConfig()), ("SVR", SVRConfig(max_iter=5)),
])
@pytest.mark.parametrize("kernel", ["poly", "distances", None])
def test_a_saved_kernel_other_than_linear_or_rbf_is_refused(
        tmp_path, family, config, kernel):
    """In a version-1 file and in the current format's header."""
    X = np.random.default_rng(13).normal(size=(12, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotConvergedWarning)
        model = models.fit_model(config, X, X[:, 0])
    doc = json.loads(v1_document(model))
    doc["state"]["kernel"] = kernel
    v1 = tmp_path / "v1.json"
    v1.write_text(json.dumps(doc))
    path = tmp_path / "model.json"
    models.save_model(model, path)
    with np.load(path, allow_pickle=False) as npz:
        entries = dict(npz)
    header = json.loads(entries["header"].tobytes())
    header["state"]["kernel"] = kernel
    entries["header"] = np.frombuffer(json.dumps(header).encode(), np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **entries)
    # "distances" names a block kind of the kernel layer, but no kernel
    for saved in (v1, path):
        with pytest.raises(ValueError, match="kernel"):
            models.load_model(saved).predict(X)


class TestLogitAdapted:
    def test_constant_target_predicts_constant_and_flags(self):
        X = np.random.default_rng(8).random((10, 3))
        model = fit_logit_adapted(LogitAdaptedConfig(), X, np.full(10, 7.0))
        assert model.constant_target
        assert np.all(model.predict(X) == 7.0)

    def test_constant_target_answers_nan_for_a_nan_row(self):
        X = np.random.default_rng(8).random((10, 3))
        model = fit_logit_adapted(LogitAdaptedConfig(), X, np.full(10, 7.0))
        X[4, 1] = np.nan
        out = model.predict(X)
        assert np.isnan(out[4]) and np.all(np.delete(out, 4) == 7.0)

    def test_monotone_feature_gives_monotone_predictions(self):
        X = np.linspace(0, 1, 25).reshape(-1, 1)
        y = np.linspace(10, 20, 25) + np.random.default_rng(9).normal(0, 0.2, 25)
        model = fit_logit_adapted(LogitAdaptedConfig(), X, y)
        preds = model.predict(X)
        assert np.all(np.diff(preds) >= 0.0)

    def test_predictions_stay_inside_training_range(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            X = rng.normal(size=(30, 5))
            y = rng.normal(size=30) * rng.uniform(1, 50)
            model = fit_logit_adapted(LogitAdaptedConfig(), X, y)
            queries = rng.normal(size=(50, 5)) * 3.0
            preds = model.predict(queries)
            assert np.all(preds >= np.min(y))
            assert np.all(preds <= np.max(y))

    def test_matches_elimination_oracle_on_random_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n, d = 25, 4
            X = rng.normal(size=(n, d))
            y = rng.normal(size=n) * rng.uniform(1, 50)
            config = LogitAdaptedConfig(alpha=rng.uniform(0.01, 2.0),
                                        clamp=rng.uniform(0.01, 0.2))
            model = fit_logit_adapted(config, X, y)
            y_min, y_max = y.min(), y.max()
            scaled = config.clamp + (1 - 2 * config.clamp) * (y - y_min) / (y_max - y_min)
            z = np.log(scaled) - np.log1p(-scaled)
            # ridge on the weights, none on the bias: [w; b] solves
            # [[X'X + alpha I, X'1], [1'X, n]] [w; b] = [X'z; sum z]
            ones = np.ones((n, 1))
            system = np.block([[X.T @ X + config.alpha * np.eye(d), X.T @ ones],
                               [ones.T @ X, np.full((1, 1), float(n))]])
            oracle = gaussian_elimination(system, np.append(X.T @ z, z.sum()))
            assert np.max(np.abs(model.weights - oracle[:d])) < 1e-8
            assert abs(model.bias - oracle[d]) < 1e-8
            # far queries reach the clip at both ends
            queries = rng.normal(size=(40, d)) * 3.0
            p = 1.0 / (1.0 + np.exp(-(queries @ oracle[:d] + oracle[d])))
            inverse = y_min + (p - config.clamp) / (1 - 2 * config.clamp) * (y_max - y_min)
            expected = np.clip(inverse, y_min, y_max)
            assert np.max(np.abs(model.predict(queries) - expected)) < 1e-8 * (y_max - y_min)

    def test_recovers_a_clean_logistic_relationship(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(200, 2))
        z = 1.5 * X[:, 0] - 0.8 * X[:, 1]
        y = 100.0 / (1.0 + np.exp(-z))
        model = fit_logit_adapted(LogitAdaptedConfig(alpha=1e-6), X, y)
        preds = model.predict(X)
        assert np.corrcoef(preds, y)[0, 1] > 0.99
