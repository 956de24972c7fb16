"""Least-squares CART regression tree.

Splits minimize the weighted sum of child target variances (equivalently the
total child squared error). The search is exact: each node sorts all its
candidate columns in one 2-D stable argsort and scores every threshold of
every column from prefix sums along axis 0. Thresholds are midpoints between
consecutive distinct sorted feature values; ties on gain resolve to the lowest
feature index, then the lowest threshold, so a fitted tree is fully
deterministic.
"""

from __future__ import annotations

import numpy as np

from ..errors import EmptyTrainingSetError
from .config import DecisionTreeConfig

_LEAF = -1
_NODE_FIELDS = {"feature": np.intp, "threshold": np.float64, "left": np.intp,
                "right": np.intp, "value": np.float64, "n_samples": np.intp,
                "gain": np.float64}
# (tree, row) pairs walked at once; bounds the walk's working arrays, so a
# large batch through a large ensemble does not grow the process
_PAIR_BLOCK = 1 << 14


def walk(nodes, roots, X, out=None) -> np.ndarray:
    """Leaf of every (tree, row) pair, as an (n_trees, n) array.

    ``nodes`` holds the trees' node arrays laid end to end and ``roots[t]`` is
    tree t's first node. Child ids are local to their tree, so a pair at node
    i of the tree rooted at r moves to r + left[i] (x <= threshold) or
    r + right[i] (otherwise, NaN included). A pair drops out of the walk at
    its leaf, and rows go through in blocks of at most _PAIR_BLOCK pairs.
    The result holds leaf node ids or, written into ``out`` (a C-contiguous
    float array), leaf values.
    """
    feature, threshold = nodes.feature, nodes.threshold
    left, right = nodes.left, nodes.right
    value = None if out is None else nodes.value
    n_trees, (n, d) = len(roots), X.shape
    if out is None:
        out = np.empty((n_trees, n), dtype=np.intp)
    flat, cells = out.reshape(-1), X.reshape(-1)
    step = max(1, _PAIR_BLOCK // max(n_trees, 1))
    firsts = np.arange(n_trees)[:, None] * n  # flat index of (tree t, row 0)
    for start in range(0, n, step):
        rows = np.arange(start, min(start + step, n))
        pair = (firsts + rows).reshape(-1)
        row_cell = pair % n * d  # index of the pair's row in cells
        root = roots.repeat(len(rows))
        node = root
        while len(node):
            feat = feature[node]
            inner = (feat != _LEAF).nonzero()[0]
            if len(inner) < len(node):
                done = (feat == _LEAF).nonzero()[0]
                leaf = node[done]
                flat[pair[done]] = leaf if value is None else value[leaf]
                pair, row_cell, root, node, feat = (
                    pair[inner], row_cell[inner], root[inner], node[inner], feat[inner])
            go_left = cells[row_cell + feat] <= threshold[node]
            node = root + np.where(go_left, left[node], right[node])
    return out


class TreeModel:
    """Fitted CART tree stored as parallel node arrays."""

    family = "DecisionTree"

    def __init__(self, feature, threshold, left, right, value, n_samples, gain,
                 n_features_in, training_target_mean):
        columns = (feature, threshold, left, right, value, n_samples, gain)
        for (name, dtype), column in zip(_NODE_FIELDS.items(), columns):
            column = np.asarray(column, dtype=dtype)
            column.setflags(write=False)
            setattr(self, name, column)
        self.n_features_in = n_features_in
        self.training_target_mean = training_target_mean

    def apply(self, X) -> np.ndarray:
        """Leaf node id each query row is routed to."""
        return walk(self, np.zeros(1, dtype=np.intp), X)[0]

    def predict(self, X) -> np.ndarray:
        return self.value[self.apply(X)]

    def impurity_contributions(self) -> np.ndarray:
        """Per-feature sum of (n_node / n_root) * variance reduction."""
        split = self.feature != _LEAF
        weights = (self.n_samples[split] / self.n_samples[0]) * self.gain[split]
        # bincount returns integer zeros for a tree with no split
        return np.bincount(self.feature[split], weights=weights,
                           minlength=self.n_features_in).astype(np.float64)


class TreeStack:
    """Node arrays of an ensemble's trees, laid end to end once.

    ``trees`` are the members rebuilt as read-only views into the stacked
    arrays, so no node array is stored twice.
    """

    def __init__(self, trees):
        bounds = np.cumsum([0] + [len(t.feature) for t in trees])
        self.roots = bounds[:-1]
        for name, dtype in _NODE_FIELDS.items():
            stacked = np.concatenate(
                [getattr(t, name) for t in trees] or [np.empty(0, dtype)])
            stacked.setflags(write=False)
            setattr(self, name, stacked)
        self.trees = tuple(
            TreeModel(**{name: getattr(self, name)[lo:hi] for name in _NODE_FIELDS},
                      n_features_in=t.n_features_in,
                      training_target_mean=t.training_target_mean)
            for t, lo, hi in zip(trees, bounds, bounds[1:]))

    def running_sums(self, X, start: float, rate: float = 1.0) -> np.ndarray:
        """(n_trees + 1, n): row k is start plus rate times each of the first
        k trees' leaf values.

        The sum runs tree by tree in tree order (a sequential accumulate,
        never a pairwise reduce), so each row's rounding does not depend on
        the batch and a single-row query equals its row in a batch.
        """
        sums = np.empty((len(self.roots) + 1, len(X)), dtype=np.float64)
        sums[0] = start
        walk(self, self.roots, X, out=sums[1:])
        sums[1:] *= rate
        return np.add.accumulate(sums, axis=0, out=sums)


def _best_split(X, y_node, idx, features, min_samples_leaf):
    """Best (feature, threshold, sse_gain, left_mask) for one node, or None.

    y_node is y[idx]. sse_gain is the drop in total squared error; dividing
    by the node size gives the variance reduction recorded on the node.
    """
    n = len(idx)
    lo, hi = min_samples_leaf, n - min_samples_leaf + 1  # left sizes tried
    if lo >= hi:
        return None
    total_sum = float(y_node.sum())
    total_sq = float((y_node * y_node).sum())
    sse_parent = total_sq - total_sum * total_sum / n
    # candidates whose SSE agrees to within float noise are true ties; the
    # earlier (lower-index) feature must win them deterministically
    tie_eps = 1e-12 * total_sq

    # one stable sort of every candidate column; row p - lo of sse scores
    # sending the p smallest values of each column left
    cols = np.arange(len(features))
    block = X[idx[:, None], features]
    order = np.argsort(block, axis=0, kind="stable")
    vs = block[order, cols]
    ys = y_node[order]
    left_sum = ys.cumsum(axis=0)[lo - 1:hi - 1]
    left_sq = (ys * ys).cumsum(axis=0)[lo - 1:hi - 1]
    n_left = np.arange(lo, hi, dtype=np.float64)[:, None]
    sse = (left_sq - left_sum * left_sum / n_left) \
        + (total_sq - left_sq) - (total_sum - left_sum) ** 2 / (n - n_left)
    # a threshold only falls between distinct values (a column with none reads
    # inf); argmin takes each column's first, i.e. lowest-threshold, minimum
    sse = np.where(vs[lo:hi] > vs[lo - 1:hi - 1], sse, np.inf)
    pos = sse.argmin(axis=0)

    best = None
    for j, s in enumerate(sse[pos, cols].tolist()):
        if s != np.inf and (best is None or s < best_sse - tie_eps):
            best, best_sse = j, s
    if best is None:
        return None
    gain_sse = sse_parent - best_sse
    if gain_sse <= 0.0:
        return None
    split_at = lo + int(pos[best])
    below, above = float(vs[split_at - 1, best]), float(vs[split_at, best])
    thr = 0.5 * (below + above)
    # midpoint of adjacent doubles can round onto the right value;
    # pin it back so "x <= thr" routes exactly the build-time left set
    if thr >= above:
        thr = below
    mask = np.zeros(n, dtype=bool)
    mask[order[:split_at, best]] = True
    return int(features[best]), thr, gain_sse, mask


def grow_tree(X, y, max_depth, min_samples_leaf, rng=None, max_features=None):
    """Grow a CART tree; rng/max_features enable per-split feature subsets."""
    n, d = X.shape
    if n == 0:  # the stack below starts from y[0]
        raise EmptyTrainingSetError("cannot fit a tree on zero rows")

    # every split leaves a row on each side, so n rows grow at most 2n - 1 nodes
    columns = [np.empty(2 * n - 1, dtype) for dtype in _NODE_FIELDS.values()]
    all_features = np.arange(d)
    n_nodes = 1
    stack = [(0, np.arange(n), y, 0)]
    while stack:
        node, idx, y_node, depth = stack.pop()
        constant = (y_node == y_node[0]).all()
        found = None
        if not constant and (max_depth is None or depth < max_depth):
            if rng is not None and max_features is not None and max_features < d:
                cand = np.sort(rng.choice(d, size=max_features, replace=False))
            else:
                cand = all_features
            found = _best_split(X, y_node, idx, cand, min_samples_leaf)
        # y_node.sum() / len keeps the bits of np.mean
        value = float(y_node[0] if constant else y_node.sum() / len(y_node))
        if found is None:
            row = (_LEAF, 0.0, _LEAF, _LEAF, value, len(idx), 0.0)
        else:
            feat, thr, gain_sse, left_mask = found
            # the children take the next two ids; gain is the variance reduction
            row = (feat, thr, n_nodes, n_nodes + 1, value, len(idx), gain_sse / len(idx))
            stack.append((n_nodes + 1, idx[~left_mask], y_node[~left_mask], depth + 1))
            stack.append((n_nodes, idx[left_mask], y_node[left_mask], depth + 1))
            n_nodes += 2
        for column, cell in zip(columns, row):
            column[node] = cell

    # copy out the used rows: views would keep every 2n - 1 row buffer alive
    return TreeModel(
        *(column[:n_nodes].copy() for column in columns),
        n_features_in=d, training_target_mean=float(np.mean(y)),
    )


def fit_decision_tree(config: DecisionTreeConfig, X, y) -> TreeModel:
    """Fit a deterministic CART tree on all features."""
    return grow_tree(X, y, config.max_depth, config.min_samples_leaf)
