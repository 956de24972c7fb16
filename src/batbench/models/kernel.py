"""Kernels, an SPD Cholesky solver, and kernel ridge regression."""

from __future__ import annotations

import numpy as np

from ..errors import SingularSystemError
from .config import KERNEL, KernelRidgeConfig


# cells of one row block: bounds the working arrays of a kernel or distance
# product, and all that a batch predict holds of one
_BLOCK_CELLS = 1 << 16
_FACTOR_BLOCK = 128  # columns (and update rows) per block of the Cholesky factor


def _prepared(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What _row_blocks reads of B, read-only: B' made contiguous, and B's
    squared row norms. A model makes both once from its training rows."""
    prepared = np.ascontiguousarray(B.T), np.einsum("ij,ij->i", B, B)
    for array in prepared:
        array.setflags(write=False)
    return prepared


def _row_blocks(kind: str, A: np.ndarray, prepared, gamma: float = 0.0, out=None):
    """(start, block) for row blocks of A of at most _BLOCK_CELLS cells, where
    ``prepared`` is _prepared(B) and ``a`` is A[start:start + rows]: by
    ``kind``, the block is a B' ("linear"), the squared distances
    (|a_i|^2 + |b_j|^2) - 2 a_i.b_j ("distances"), or exp(-gamma d2) made in
    the distances' buffer ("rbf"). Given ``out``, each block is made in its
    own rows of ``out``.

    The product is an einsum, not a BLAS call: each cell sums its terms in
    column order, so a row's bits depend neither on its block nor on the
    thread count, and A B' with A = B is exactly symmetric.
    """
    if kind not in ("linear", "distances", "rbf"):
        raise ValueError(f"unknown kernel {kind!r}")
    B_t, sq_b = prepared
    step = max(1, _BLOCK_CELLS // max(len(sq_b), 1))
    for start in range(0, len(A), step):
        a = A[start:start + step]
        block = np.einsum("ik,kj->ij", a, B_t,
                          out=None if out is None else out[start:start + step])
        if kind != "linear":
            block *= 2.0
            np.subtract(np.einsum("ij,ij->i", a, a)[:, None] + sq_b, block, out=block)
        if kind == "rbf":
            np.clip(block, 0.0, None, out=block)
            block *= -gamma
            np.exp(block, out=block)
        yield start, block


def kernel_matrix(kind: str, gamma: float, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The _row_blocks of ``kind`` for rows of A and B, as one matrix: the
    pairwise kernel values k(a_i, b_j), or with "distances" squared distances."""
    K = np.empty((len(A), len(B)))
    for _ in _row_blocks(kind, A, _prepared(B), gamma, K):
        pass  # each block is made in its own rows of K
    return K


def squared_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(|a_i|^2 + |b_j|^2) - 2 a_i.b_j for rows of A and B."""
    return kernel_matrix("distances", 0.0, A, B)


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
        if not KERNEL[1](kernel):  # a saved file may name any kernel
            raise ValueError(f"unknown kernel {kernel!r}; expected {KERNEL[0]}")
        self.kernel = kernel
        self.gamma = gamma
        self.train_X = np.array(train_X, dtype=np.float64)
        self.dual_coef = np.array(dual_coef, dtype=np.float64)
        self.train_X.setflags(write=False)
        self.dual_coef.setflags(write=False)
        self._prepared = _prepared(self.train_X)
        self.n_features_in = self.train_X.shape[1]
        self.training_target_mean = training_target_mean

    def predict(self, X) -> np.ndarray:
        """sum_j dual_coef_j k(x, train_X_j) for each query row x.

        The query kernel is made and reduced one row block at a time, with
        einsum products and a per-row sum (no BLAS call), so a row's answer
        has the same bits alone as in any batch and on any thread count.
        """
        out = np.empty(len(X))
        for start, K in _row_blocks(self.kernel, X, self._prepared, self.gamma):
            K *= self.dual_coef
            np.sum(K, axis=1, out=out[start:start + len(K)])
        return out


def fit_kernel_ridge(config: KernelRidgeConfig, X, y) -> KernelRidgeModel:
    """Solve (K + alpha I) a = y; predictions are K(q, X) a."""
    K = kernel_matrix(config.kernel, config.gamma, X, X)
    K.flat[::len(K) + 1] += config.alpha
    K += 0.0  # as K + alpha * I did off the diagonal: -0.0 becomes +0.0
    dual = _factor_and_solve(K, y)  # K is C-contiguous and not needed after
    return KernelRidgeModel(config.kernel, config.gamma, X, dual, float(np.mean(y)))
