"""Least-squares CART regression tree.

Splits minimize the weighted sum of child target variances (equivalently the
total child squared error). Thresholds are midpoints between consecutive
distinct sorted feature values; ties on gain resolve to the lowest feature
index, then the lowest threshold, so a fitted tree is fully deterministic.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionMismatchError, EmptyTrainingSetError
from .config import DecisionTreeConfig

_LEAF = -1


class TreeModel:
    """Fitted CART tree stored as parallel node arrays."""

    family = "DecisionTree"

    def __init__(self, feature, threshold, left, right, value, n_samples, gain,
                 n_features_in, training_target_mean):
        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.value = np.asarray(value, dtype=np.float64)
        self.n_samples = np.asarray(n_samples, dtype=np.intp)
        self.gain = np.asarray(gain, dtype=np.float64)
        self.n_features_in = n_features_in
        self.training_target_mean = training_target_mean
        for arr in (self.feature, self.threshold, self.left, self.right,
                    self.value, self.n_samples, self.gain):
            arr.setflags(write=False)

    def apply(self, X) -> np.ndarray:
        """Leaf node id each query row is routed to."""
        X = _validate_query(X, self.n_features_in)
        node = np.zeros(len(X), dtype=np.intp)
        while True:
            feat = self.feature[node]
            active = np.nonzero(feat != _LEAF)[0]
            if len(active) == 0:
                return node
            cur = node[active]
            go_left = X[active, feat[active]] <= self.threshold[cur]
            node[active] = np.where(go_left, self.left[cur], self.right[cur])

    def predict(self, X) -> np.ndarray:
        X = _validate_query(X, self.n_features_in)
        return self.value[self.apply(X)]

    def impurity_contributions(self) -> np.ndarray:
        """Per-feature sum of (n_node / n_root) * variance reduction."""
        split = self.feature != _LEAF
        weights = (self.n_samples[split] / self.n_samples[0]) * self.gain[split]
        # bincount returns integer zeros for a tree with no split
        return np.bincount(self.feature[split], weights=weights,
                           minlength=self.n_features_in).astype(np.float64)


def _validate_query(X, n_features_in: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features_in:
        got = X.shape[1] if X.ndim == 2 else f"ndim={X.ndim}"
        raise DimensionMismatchError(f"expected {n_features_in} columns, got {got}")
    return X


def _best_split(X, y, idx, features, min_samples_leaf):
    """Best (feature, threshold, sse_gain, left_mask) for one node, or None.

    sse_gain is the drop in total squared error; dividing by the node size
    gives the variance reduction recorded on the node.
    """
    n = len(idx)
    if n < 2 * min_samples_leaf:
        return None
    y_node = y[idx]
    total_sum = float(np.sum(y_node))
    total_sq = float(np.sum(y_node * y_node))
    sse_parent = total_sq - total_sum * total_sum / n
    # candidates whose SSE agrees to within float noise are true ties; the
    # earlier (lower-index) feature must win them deterministically
    tie_eps = 1e-12 * total_sq

    best = None  # (sse_children, feature, threshold, order, pos)
    for f in features:
        col = X[idx, f]
        order = np.argsort(col, kind="stable")
        vs = col[order]
        if vs[0] == vs[-1]:
            continue
        ys = y_node[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        pos = np.arange(min_samples_leaf, n - min_samples_leaf + 1)
        pos = pos[vs[pos] > vs[pos - 1]]
        if len(pos) == 0:
            continue
        left_sum = csum[pos - 1]
        left_sq = csq[pos - 1]
        n_left = pos.astype(np.float64)
        n_right = n - n_left
        sse = (left_sq - left_sum * left_sum / n_left) \
            + (total_sq - left_sq) - (total_sum - left_sum) ** 2 / n_right
        k = int(np.argmin(sse))
        if best is None or sse[k] < best[0] - tie_eps:
            split_at = int(pos[k])
            thr = 0.5 * (vs[split_at - 1] + vs[split_at])
            # midpoint of adjacent doubles can round onto the right value;
            # pin it back so "x <= thr" routes exactly the build-time left set
            if thr >= vs[split_at]:
                thr = float(vs[split_at - 1])
            best = (float(sse[k]), f, thr, order, split_at)

    if best is None:
        return None
    sse_children, f, thr, order, split_at = best
    gain_sse = sse_parent - sse_children
    if gain_sse <= 0.0:
        return None
    mask = np.zeros(n, dtype=bool)
    mask[order[:split_at]] = True
    return f, thr, gain_sse, mask


def grow_tree(X, y, max_depth, min_samples_leaf, rng=None, max_features=None):
    """Grow a CART tree; rng/max_features enable per-split feature subsets."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatchError("training matrix must be 2-D")
    n, d = X.shape
    if n == 0:
        raise EmptyTrainingSetError("cannot fit a tree on zero rows")

    feature, threshold = [], []
    left, right = [], []
    value, n_samples, gain = [], [], []

    def new_node(idx):
        i = len(feature)
        feature.append(_LEAF)
        threshold.append(0.0)
        left.append(_LEAF)
        right.append(_LEAF)
        value.append(float(np.mean(y[idx])))
        n_samples.append(len(idx))
        gain.append(0.0)
        return i

    root_idx = np.arange(n)
    root = new_node(root_idx)
    stack = [(root, root_idx, 0)]
    while stack:
        node, idx, depth = stack.pop()
        y_node = y[idx]
        if np.all(y_node == y_node[0]):
            value[node] = float(y_node[0])
            continue
        if max_depth is not None and depth >= max_depth:
            continue
        if rng is not None and max_features is not None and max_features < d:
            cand = np.sort(rng.choice(d, size=max_features, replace=False))
        else:
            cand = np.arange(d)
        found = _best_split(X, y, idx, cand, min_samples_leaf)
        if found is None:
            continue
        f, thr, gain_sse, left_mask = found
        feature[node] = f
        threshold[node] = thr
        gain[node] = gain_sse / len(idx)  # variance reduction
        left_id = new_node(idx[left_mask])
        right_id = new_node(idx[~left_mask])
        left[node] = left_id
        right[node] = right_id
        stack.append((right_id, idx[~left_mask], depth + 1))
        stack.append((left_id, idx[left_mask], depth + 1))

    return TreeModel(
        feature, threshold, left, right, value, n_samples, gain,
        n_features_in=d, training_target_mean=float(np.mean(y)),
    )


def fit_decision_tree(config: DecisionTreeConfig, X, y) -> TreeModel:
    """Fit a deterministic CART tree on all features."""
    return grow_tree(X, y, config.max_depth, config.min_samples_leaf)
