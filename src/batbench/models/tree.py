"""Least-squares CART regression tree: the fitted node arrays, the stack
that lays an ensemble's trees end to end, and the walk that routes rows
through them. Trees are grown in ``grow``.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

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
    tree t's first node. ``nodes.children`` (see ``_child_table``) holds
    every node's absolute child ids, so one level of the walk is one gather:
    a pair at node i moves to ``children[2i + (x <= threshold)]``, and NaN
    goes right. A pair at a leaf stays there; the walk drops the pairs at
    leaves once they are three quarters of its pairs, and rows go through in
    blocks of at most _PAIR_BLOCK pairs. The result holds leaf node ids or,
    written into ``out`` (a C-contiguous float array), leaf values.
    """
    feature, threshold, children = nodes.feature, nodes.threshold, nodes.children
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
        node = roots.repeat(len(rows))
        while True:
            feat = feature[node]
            at_leaf = feat == _LEAF
            n_leaves = np.count_nonzero(at_leaf)
            if 4 * n_leaves >= 3 * len(node):
                done = at_leaf.nonzero()[0]
                leaf = node[done]
                flat[pair[done]] = leaf if value is None else value[leaf]
                if n_leaves == len(node):
                    break
                inner = (~at_leaf).nonzero()[0]
                pair, row_cell, node, feat = (
                    pair[inner], row_cell[inner], node[inner], feat[inner])
            # a leaf's feature -1 reads the cell before its row's; any cell
            # would do, as both of its children are the leaf itself
            go_left = cells[row_cell + feat] <= threshold[node]
            node = children[2 * node + go_left]
    return out


def _child_table(nodes, roots) -> np.ndarray:
    """Absolute child ids of trees laid end to end, two per node: entry
    2i is node i's right child and 2i + 1 its left child, as stored; both
    entries of a leaf are the leaf itself."""
    base = roots.repeat(np.diff(roots, append=len(nodes.feature)))
    table = np.empty((len(base), 2), dtype=np.intp)
    np.add(base, nodes.right, out=table[:, 0])
    np.add(base, nodes.left, out=table[:, 1])
    leaves = (nodes.feature == _LEAF).nonzero()[0]
    table[leaves] = leaves[:, None]
    table = table.reshape(-1)
    table.setflags(write=False)
    return table


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

    @cached_property
    def children(self) -> np.ndarray:
        """The walk's table of absolute child ids, built on first use."""
        return _child_table(self, np.zeros(1, dtype=np.intp))

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

    ``columns`` maps each node field to its stacked array, and tree t's nodes
    start at ``roots[t]``. ``trees`` are the members rebuilt as read-only
    views into the stacked arrays, so no node array is stored twice.
    """

    def __init__(self, columns, roots, n_features_in, target_means):
        self.roots = np.asarray(roots, dtype=np.intp)
        for name in _NODE_FIELDS:
            columns[name].setflags(write=False)
            setattr(self, name, columns[name])
        bounds = self.roots.tolist() + [len(self.feature)]
        self.trees = tuple(
            TreeModel(**{name: getattr(self, name)[lo:hi] for name in _NODE_FIELDS},
                      n_features_in=n_features_in, training_target_mean=mean)
            for lo, hi, mean in zip(bounds, bounds[1:], target_means))

    @cached_property
    def children(self) -> np.ndarray:
        """The walk's table of absolute child ids, built on first use."""
        return _child_table(self, self.roots)

    @classmethod
    def of(cls, trees, n_features_in):
        """Stack separate trees, copying their node arrays once; a stack is
        returned as it is."""
        if isinstance(trees, cls):
            return trees
        columns = {name: np.concatenate([getattr(t, name) for t in trees]
                                        or [np.empty(0, dtype)])
                   for name, dtype in _NODE_FIELDS.items()}
        roots = np.cumsum([0] + [len(t.feature) for t in trees])[:-1]
        return cls(columns, roots, n_features_in,
                   [t.training_target_mean for t in trees])

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

    def final_sums(self, X, start: float, rate: float = 1.0) -> np.ndarray:
        """``running_sums(X, start, rate)[-1]``, bit for bit, made one block of
        at most _PAIR_BLOCK (tree, row) pairs at a time."""
        out = np.empty(len(X))
        step = max(1, _PAIR_BLOCK // max(len(self.roots), 1))
        for lo in range(0, len(X), step):
            out[lo:lo + step] = self.running_sums(X[lo:lo + step], start, rate)[-1]
        return out
