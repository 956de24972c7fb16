"""Epsilon-insensitive support vector regression.

Trains the standard dual in the signed-coefficient form: maximize
``-0.5 b'Kb + y'b - eps * ||b||_1`` over ``b in [-C, C]^n`` with
``sum(b) = 0``, by repeatedly picking the maximal-violating coordinate pair
and solving the one-dimensional subproblem exactly (piecewise quadratic in
the step, so candidate steps are breakpoints, per-regime stationary points,
and the box ends). Every accepted step has a nonnegative exactly-evaluated
objective gain, which is what makes the objective trace monotone.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..errors import NotConvergedWarning
from .config import SVRConfig
from .kernel import KernelRidgeModel, kernel_matrix


class SVRModel(KernelRidgeModel):
    family = "SVR"

    def __init__(self, kernel: str, gamma: float, train_X: np.ndarray,
                 dual_coef: np.ndarray, bias: float, converged: bool,
                 n_sweeps: int, objective_trace: tuple[float, ...],
                 training_target_mean: float):
        super().__init__(kernel, gamma, train_X, dual_coef, training_target_mean)
        self.bias = bias
        self.converged = converged
        self.n_sweeps = n_sweeps
        self.objective_trace = tuple(objective_trace)

    def predict(self, X) -> np.ndarray:
        return super().predict(X) + self.bias


def _step_gain(t, d_g, eta, eps, beta_i, beta_j):
    return (t * d_g - 0.5 * eta * t * t
            - eps * (abs(beta_i + t) - abs(beta_i))
            - eps * (abs(beta_j - t) - abs(beta_j)))


def _best_step(beta_i, beta_j, g_i, g_j, eta, eps, C):
    """Exact maximizer of the pair subproblem over the feasible step range."""
    t_min = max(-C - beta_i, beta_j - C)
    t_max = min(C - beta_i, beta_j + C)
    if t_max <= t_min:
        return 0.0, 0.0
    d_g = g_i - g_j
    candidates = {t_min, t_max}
    for b in (-beta_i, beta_j):
        if t_min < b < t_max:
            candidates.add(b)
    if eta > 0.0:
        edges = sorted(candidates)
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid = 0.5 * (lo + hi)
            s_i = 1.0 if beta_i + mid >= 0.0 else -1.0
            s_j = 1.0 if beta_j - mid > 0.0 else -1.0
            t_star = (d_g - eps * s_i + eps * s_j) / eta
            if lo <= t_star <= hi:
                candidates.add(t_star)
    best_t, best_gain = 0.0, 0.0
    for t in candidates:
        gain = _step_gain(t, d_g, eta, eps, beta_i, beta_j)
        if gain > best_gain:
            best_t, best_gain = t, gain
    return best_t, best_gain


def fit_svr(config: SVRConfig, X, y) -> SVRModel:
    n = len(X)
    # as floats, -eps is -0.0 when eps is 0, so g + (-eps) keeps g - eps's zero sign
    C, eps, tol = float(config.C), float(config.epsilon), config.tol

    # exactly symmetric (each cell of the einsum product sums its terms in
    # one order), so the contiguous row K[i] holds the bits of the column K[:, i]
    K = kernel_matrix(config.kernel, config.gamma, X, X)
    beta = np.zeros(n, dtype=np.float64)
    g = y.copy()  # gradient of the smooth part: y - K beta
    # g + off is g - eps or g + eps bit for bit, since g - eps == g + (-eps)
    off_up = np.full(n, -eps)
    off_lo = np.full(n, eps)
    up, lo, step = np.empty((3, n))
    objective = 0.0
    trace = [0.0]

    converged = False
    max_updates = config.max_iter * n
    updates = 0
    sweeps_done = 0
    while updates < max_updates:
        np.add(g, off_up, out=up)
        np.add(g, off_lo, out=lo)
        i = int(up.argmax())
        j = int(lo.argmin())
        if up.item(i) - lo.item(j) < tol:
            converged = True
            break
        K_i, K_j = K[i], K[j]
        eta = K_i.item(i) + K_j.item(j) - 2.0 * K_i.item(j)
        beta_i, beta_j = beta.item(i), beta.item(j)
        t, gain = _best_step(beta_i, beta_j, g.item(i), g.item(j), eta, eps, C)
        if gain <= 0.0:
            break  # numerically stuck; treat current iterate as final
        beta_i = min(max(beta_i + t, -C), C)
        beta_j = min(max(beta_j - t, -C), C)
        for k, b in ((i, beta_i), (j, beta_j)):  # an infinite offset marks the box
            beta[k] = b
            off_up[k] = -np.inf if b >= C else (-eps if b >= 0.0 else eps)
            off_lo[k] = np.inf if b <= -C else (-eps if b > 0.0 else eps)
        np.subtract(K_i, K_j, out=step)
        step *= t
        g -= step
        objective += gain
        updates += 1
        if updates % n == 0:
            sweeps_done += 1
            g = y - np.einsum("ij,j->i", K, beta)  # flush drift once per sweep
            trace.append(objective)
    if trace[-1] != objective:
        trace.append(objective)

    hi = float(np.add(g, off_up, out=up).max())
    lo_min = float(np.add(g, off_lo, out=lo).min())
    if np.isfinite(hi) and np.isfinite(lo_min):
        bias = 0.5 * (hi + lo_min)
    elif np.isfinite(hi):
        bias = hi
    elif np.isfinite(lo_min):
        bias = lo_min
    else:
        bias = 0.0

    if not converged:
        stop = (f"stuck at update {updates} (no step gains)" if updates < max_updates
                else f"stopped after {config.max_iter} sweeps")
        warnings.warn(
            f"SVR {stop} with KKT violation above tol={tol}; "
            "returning the best iterate",
            NotConvergedWarning,
            stacklevel=2,
        )
    return SVRModel(config.kernel, config.gamma, X, beta, bias, converged,
                    sweeps_done, tuple(trace), float(np.mean(y)))
