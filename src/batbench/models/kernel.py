"""Kernels, an SPD Cholesky solver, and kernel ridge regression."""

from __future__ import annotations

import numpy as np

from ..errors import SingularSystemError
from .config import KernelRidgeConfig


# cells of one row block: bounds the working arrays that batch kernels make
# beside their full-size result
_BLOCK_CELLS = 1 << 16
_FACTOR_BLOCK = 128  # columns (and update rows) per block of the Cholesky factor


def squared_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(|a_i|^2 + |b_j|^2) - 2 a_i.b_j for rows of A and B, in the A B' buffer.

    The norms go into the buffer one row block at a time, so the sums of
    norms never take a full-size array.
    """
    sq_a = np.einsum("ij,ij->i", A, A)
    sq_b = np.einsum("ij,ij->i", B, B)
    D = A @ B.T
    step = max(1, _BLOCK_CELLS // max(len(B), 1))
    for start in range(0, len(D), step):
        rows = D[start:start + step]
        rows *= 2.0
        np.subtract(sq_a[start:start + step, None] + sq_b, rows, out=rows)
    return D


def kernel_matrix(kind: str, gamma: float, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise kernel values k(a_i, b_j) for rows of A and B."""
    if kind == "linear":
        return A @ B.T
    if kind == "rbf":
        # exp(-gamma d2), in the d2 buffer
        K = squared_distances(A, B)
        np.clip(K, 0.0, None, out=K)
        K *= -gamma
        return np.exp(K, out=K)
    raise ValueError(f"unknown kernel {kind!r}")


def cholesky_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A via L L^T factorization."""
    # a private copy; C order fixes the BLAS strides
    return _factor_and_solve(np.array(A, dtype=np.float64, order="C"), b)


def _factor_and_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """cholesky_solve on a C-contiguous float64 A. L overwrites its lower
    triangle. Columns go in _FACTOR_BLOCK blocks: on reaching one, a matrix
    product per row block subtracts the earlier columns' share from it (and
    overwrites the upper triangle of each later diagonal block), then a
    column loop runs within the block."""
    b = np.asarray(b, dtype=np.float64)
    n = len(L)
    B = _FACTOR_BLOCK
    for j in range(n):
        k = j - j % B  # the first column of j's block
        if j and j == k:
            for r in range(k, n, B):
                L[r:r + B, k:k + B] -= L[r:r + B, :k] @ L[k:k + B, :k].T
        diag = L[j, j] - L[j, k:j] @ L[j, k:j]
        if not diag > 0.0 or not np.isfinite(diag):
            raise SingularSystemError(
                f"non-positive pivot at column {j}; matrix is not positive definite"
            )
        L[j, j] = np.sqrt(diag)
        if j + 1 < n:
            L[j + 1:, j] = (L[j + 1:, j] - L[j + 1:, k:j] @ L[j, k:j]) / L[j, j]
    # forward substitution L z = b, then back substitution L^T x = z
    z = np.zeros(n, dtype=np.float64)
    for i in range(n):
        z[i] = (b[i] - L[i, :i] @ z[:i]) / L[i, i]
    x = np.zeros(n, dtype=np.float64)
    for i in range(n - 1, -1, -1):
        x[i] = (z[i] - L[i + 1:, i] @ x[i + 1:]) / L[i, i]
    return x


class KernelRidgeModel:
    family = "KernelRidge"

    def __init__(self, kernel: str, gamma: float, train_X: np.ndarray,
                 dual_coef: np.ndarray, training_target_mean: float):
        self.kernel = kernel
        self.gamma = gamma
        self.train_X = np.array(train_X, dtype=np.float64)
        self.dual_coef = np.array(dual_coef, dtype=np.float64)
        self.train_X.setflags(write=False)
        self.dual_coef.setflags(write=False)
        self.n_features_in = self.train_X.shape[1]
        self.training_target_mean = training_target_mean

    def predict(self, X) -> np.ndarray:
        """sum_j dual_coef_j k(x, train_X_j) for each query row x.

        The per-row reduction keeps identical query rows bitwise identical
        (BLAS matvec blocking does not).
        """
        K = kernel_matrix(self.kernel, self.gamma, X, self.train_X)
        K *= self.dual_coef
        return np.sum(K, axis=1)


def fit_kernel_ridge(config: KernelRidgeConfig, X, y) -> KernelRidgeModel:
    """Solve (K + alpha I) a = y; predictions are K(q, X) a."""
    K = kernel_matrix(config.kernel, config.gamma, X, X)
    K.flat[::len(K) + 1] += config.alpha
    K += 0.0  # as K + alpha * I did off the diagonal: -0.0 becomes +0.0
    dual = _factor_and_solve(K, y)  # K is C-contiguous and not needed after
    return KernelRidgeModel(config.kernel, config.gamma, X, dual, float(np.mean(y)))
