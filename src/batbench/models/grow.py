"""Growing least-squares CART trees, many nodes and trees at a time.

Splits minimize the total child squared error. The search is exact: every
threshold of every candidate column is scored from prefix sums over the
node's rows sorted by that column. Thresholds are midpoints between
consecutive distinct sorted feature values; ties on gain resolve to the
lowest feature index, then the lowest threshold, so a fitted tree is fully
deterministic. Trees grow in rounds (grow_trees): a round searches the whole
frontier of every tree it grows, in packed blocks, and gives each node the
numbers a search of that node alone would.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import EmptyTrainingSetError
from .config import DecisionTreeConfig
from .tree import _LEAF, _NODE_FIELDS, TreeModel, TreeStack

# cells (candidate columns x padded rows) of one split-search block; bounds
# the search's working arrays when a round holds many nodes
_SEARCH_BLOCK = 1 << 12
# cells (nodes x features) of one block of node_candidates' hashes; bounds
# its working arrays when d is large
_HASH_BLOCK = 1 << 15
# SplitMix64's increment, the golden ratio in 64 bits
_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _mix64(z) -> np.ndarray:
    """SplitMix64's finalizer (Steele, Lea & Flood, OOPSLA 2014), a bijection
    of uint64, applied to the array z in place."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def node_candidates(tree_key, start, size, d, m) -> np.ndarray:
    """The m (< d) candidate features of each node, ascending, one row a node.

    Node i, of the tree keyed ``tree_key[i]`` (uint64), holds ``size[i]`` rows
    from ``start[i]`` on in its tree's sample (both below 2**32, so that the
    pair fits one word). Its features are hashed by a SplitMix64 stream
    seeded with mix(tree_key ^ (start << 32 | size)): feature j's hash is
    mix(seed + (j + 1) * _GAMMA), and the m smallest hashes win. A node's
    draw is a pure function of its key (counter-based random numbers: Salmon
    et al., SC 2011), so nodes may be searched in any order. mix is a
    bijection and _GAMMA odd, so a node's d hashes are distinct and no tie
    needs breaking. Hashes are made a block of at most _HASH_BLOCK cells at
    a time.
    """
    seeds = np.asarray(start, dtype=np.uint64) << np.uint64(32)
    seeds |= np.asarray(size, dtype=np.uint64)
    seeds ^= tree_key
    _mix64(seeds)
    steps = np.arange(1, d + 1, dtype=np.uint64) * _GAMMA
    out = np.empty((len(seeds), m), dtype=np.intp)
    step = max(1, _HASH_BLOCK // d)
    for a in range(0, len(seeds), step):
        hashes = _mix64(seeds[a:a + step, None] + steps)
        out[a:a + step] = hashes.argpartition(m - 1, axis=1)[:, :m]
    out.sort(axis=1)
    return out


def column_keys(X) -> np.ndarray:
    """Sort key of every cell of X, one row per row of X and a last padding
    row, as unsigned ints.

    A key is the cell's dense rank within its column, shifted up past the
    low bits that split_nodes fills with the row's place in a search block.
    Ranks order and tie exactly as the values do, so sorting a node's rows
    by key is the stable sort by value. NaN cells and the padding row take
    the largest rank, which no value reaches.
    """
    n, d = X.shape
    # the low bits hold a place in a block: below max(n, _SEARCH_BLOCK)
    dtype, wide = ((np.uint16, np.uint32) if max(n, _SEARCH_BLOCK) < 1 << 16
                   else (np.uint32, np.uint64))
    order = X.argsort(axis=0)  # any order: equal values share one rank
    order *= d
    order += np.arange(d)  # flat index of each cell, column by column
    values = X.take(order)
    steps = np.zeros((n, d), wide)
    np.not_equal(values[1:], values[:-1], out=steps[1:])
    keys = np.empty((n + 1, d), wide)
    keys.put(order, steps.cumsum(axis=0, dtype=wide))
    keys[n] = keys[:n][np.isnan(X)] = ~dtype(0)
    keys <<= 8 * np.dtype(dtype).itemsize
    return keys


def split_nodes(X, keys, y, perm, start, size, cand, total_sum, total_sq,
                min_samples_leaf):
    """Search every node for its best split; partition the nodes that split.

    Node i holds the rows ``perm[start[i]:start[i] + size[i]]`` of X and y,
    at least 2 * min_samples_leaf of them, and tries the candidate features
    ``cand[i]`` (ascending), or every feature if ``cand`` is None. ``keys``
    is column_keys(X); ``total_sum[i]`` and ``total_sq[i]`` are y.sum() and
    (y * y).sum() over the node's rows, in that order.

    Returns (split, feature, threshold, n_left, gain, ys): the indices of
    the nodes whose best split lowers the squared error and, for those, the
    split and its drop in total squared error (divided by the node size it
    is the variance reduction). Their rows are reordered in ``perm``, left
    rows first, each side in the node's order, and ``ys`` holds the targets
    of those rows, node after node.

    Nodes are searched largest first, in blocks padded up to their first
    node with the padding row of ``keys`` (NaN and padding sort after a
    node's own rows) and holding at most _SEARCH_BLOCK cells unless one node
    needs more. Every candidate column of a block is sorted once, by value
    and then by the row's place in the node, and scored from sequential
    cumsums, so each node's SSE has the bits of a search of that node alone.
    """
    n_rows, d = X.shape
    n_nodes, n_cand = len(size), d if cand is None else cand.shape[1]
    lo = min_samples_leaf
    # a key is (rank, place in the block): all keys of a block differ, so
    # any sort of them is the stable sort by rank
    shift = 4 * keys.itemsize
    place = keys.dtype.type((1 << shift) - 1)  # mask of the place bits
    nan_rank = place  # the largest rank, shifted down
    # nodes largest first, so that a block is a run of them
    by_size = (-size).argsort(kind="stable")
    size, start = size[by_size], start[by_size]
    total_sum, total_sq = total_sum[by_size], total_sq[by_size]
    if cand is not None:
        cand = cand[by_size, :, None]
    # per (node, candidate): the lowest SSE, the sorted position p of its
    # last left row, and the rows at p and p + 1
    col_sse = np.empty((n_nodes, n_cand))
    col_pos = np.empty((n_nodes, n_cand), dtype=np.intp)
    col_rows = np.empty((n_nodes, n_cand, 2), dtype=np.intp)
    left_sizes = np.arange(1, size[0], dtype=np.float64)
    i = 0
    while i < n_nodes:
        height = int(size[i])
        j = min(n_nodes, i + max(1, _SEARCH_BLOCK // (height * n_cand)))
        n = size[i:j, None]
        at = np.arange(height)
        rows = perm.take(start[i:j, None] + at, mode="clip")
        # nodes shorter than the block are padded with the padding row
        np.putmask(rows, at >= n, n_rows)
        # the place in the block is also the row's index into ``rows``
        places = np.arange(rows.size, dtype=keys.dtype).reshape(j - i, 1, height)
        if cand is None:  # whole rows of keys, turned column by column
            block = np.bitwise_or(keys.take(rows, axis=0).transpose(0, 2, 1), places)
        else:
            block = keys.take(rows[:, None, :] * d + cand[i:j])
            block |= places
        block.sort(axis=2)
        order = np.bitwise_and(block, place, dtype=np.intp, casting="unsafe")
        block >>= shift  # the ranks, sorted
        # left sizes 1..height - lo, so that every array below is whole
        # (sizes under lo are masked); their prefix sums run from position 0
        ys = y.take(rows, mode="clip").take(order[..., :height - lo])
        left_sum = ys.cumsum(axis=2)
        left_sq = np.multiply(ys, ys, out=ys).cumsum(axis=2)
        n_left = left_sizes[:height - lo]
        # a threshold only falls between distinct values (NaN is never one)
        # and leaves at least lo rows on each side
        above = block[..., 1:height - lo + 1]
        bad = above <= block[..., :height - lo]
        bad |= above == nan_rank
        bad[..., :lo - 1] = True
        n_right = n[..., None] - n_left
        bad |= n_right < lo
        np.maximum(n_right, 1, out=n_right)  # past a node's end: masked
        # (left_sq - left_sum**2 / n_left) + (total_sq - left_sq)
        #     - (total_sum - left_sum)**2 / n_right, one rounding at a time
        sse = left_sum * left_sum
        sse /= n_left
        np.subtract(left_sq, sse, out=sse)
        right = total_sq[i:j, None, None] - left_sq
        sse += right
        np.subtract(total_sum[i:j, None, None], left_sum, out=right)
        right *= right
        right /= n_right
        sse -= right
        np.putmask(sse, bad, np.inf)
        # argmin takes each column's first, i.e. lowest-threshold, minimum
        pos = sse.argmin(axis=2)
        col_pos[i:j] = pos
        col = np.arange(pos.size).reshape(pos.shape)
        col_sse[i:j] = sse.take(col * sse.shape[2] + pos)
        pos += col * height  # into order
        col_rows[i:j] = rows.take(order.take(pos[..., None] + (0, 1)))
        i = j

    # candidates whose SSE agrees to within float noise are true ties; the
    # earlier (lower-index) feature must win them: walking a node's
    # candidates in order, one replaces the best so far only when its SSE
    # lies below that best minus tie_eps. The first minimum is that walk's
    # winner unless an earlier candidate's SSE minus tie_eps does not lie
    # above it, so only such nodes walk their candidates one at a time.
    tie_eps = 1e-12 * total_sq
    j = col_sse.argmin(axis=1)
    s_best = col_sse[np.arange(n_nodes), j]
    near = ~(col_sse - tie_eps[:, None] > s_best[:, None])
    near &= np.arange(n_cand) < j[:, None]
    for i in near.any(axis=1).nonzero()[0].tolist():
        j_best, s_min, eps = -1, math.inf, float(tie_eps[i])
        for k, s in enumerate(col_sse[i].tolist()):
            if s != math.inf and (j_best < 0 or s < s_min - eps):
                j_best, s_min = k, s
        j[i], s_best[i] = j_best, s_min
    # a node splits when its best SSE lies below its own
    drop = (total_sq - total_sum * total_sum / size) - s_best
    splits = (s_best != np.inf) & ~(drop <= 0.0)
    i = by_size.argsort()  # back to input order
    i = i[splits[i]]
    split, j, gain = by_size[i], j[i], drop[i]
    feature = j if cand is None else cand[i, j, 0]
    below, above = X.take(col_rows[i, j] * d + feature[:, None]).T
    threshold = 0.5 * (below + above)
    # midpoint of adjacent doubles can round onto the right value;
    # pin it back so "x <= thr" routes exactly the left rows
    threshold = np.where(threshold >= above, below, threshold)
    n_left, start, size = col_pos[i, j] + 1, start[i], size[i]

    # partition the split nodes' rows a run of nodes at a time (at most
    # _SEARCH_BLOCK rows, or one node): one stable sort by (node, side) puts
    # each node's left rows first, both sides in the node's order
    ends = size.cumsum()
    ys = np.empty(ends[-1] if len(ends) else 0)
    a = 0
    while a < len(split):
        first = ends[a] - size[a]
        b = max(a + 1, int(ends.searchsorted(first + _SEARCH_BLOCK, "right")))
        run = size[a:b]
        at = np.arange(first, ends[b - 1]) + (start[a:b] - ends[a:b] + run).repeat(run)
        rows = perm[at]
        goes_left = (X.take(rows * d + feature[a:b].repeat(run))
                     <= threshold[a:b].repeat(run))
        side = np.arange(1, 2 * (b - a), 2, dtype=np.min_scalar_type(2 * (b - a)))
        perm[at] = rows = rows[(side.repeat(run) - goes_left).argsort(kind="stable")]
        ys[first:ends[b - 1]] = y.take(rows)
        a = b
    return split, feature, threshold, n_left, gain, ys


def _slice_sums(values, first, size) -> np.ndarray:
    """(sum, square sum) of ``values[first[i]:first[i] + size[i]]`` for each
    i, one row each, with the pairwise bits of np.add.reduce of that slice:
    one gather and two row sums per distinct size."""
    sums = np.empty((len(size), 2))
    for s in np.unique(size).tolist():
        (which,) = (size == s).nonzero()
        rows = values.take(first[which, None] + np.arange(s))
        sums[which, 0] = rows.sum(axis=1)
        sums[which, 1] = np.multiply(rows, rows, out=rows).sum(axis=1)
    return sums


def grow_trees(X, y, samples, max_depth, min_samples_leaf, tree_keys=None,
               max_features=None, keys=None, fitted=None) -> TreeStack:
    """Grow one CART tree per row of ``samples`` (row indices into X and y).

    With ``tree_keys`` (one uint64 per tree) and ``max_features < d``, each
    node that tree t searches tries the node_candidates of its tree's key,
    its start within the tree's sample and its size; otherwise every node
    tries every feature. A node's rows are one slice of its tree's sample,
    partitioned in place, so (start, size) names the node whatever order the
    nodes are searched in, and a node's split does not depend on when it is
    searched: a round searches every tree's whole frontier. Constant nodes,
    nodes at max_depth and nodes under 2 * min_samples_leaf rows are leaves
    without a search. Node ids are renumbered depth-first at the end.

    Node rows are written into columns of 2u - 1 rows per tree, u being the
    tree's distinct sample rows (each leaf holds at least one of them), and
    compacted once into the returned stack. ``keys`` is column_keys(X), for
    a caller that grows trees on one X many times. ``fitted``, an array of
    len(X), receives a one-tree call's prediction for every sample row: the
    value of the leaf the row was grown into.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    samples = np.array(samples, dtype=np.intp)
    n_trees, n = samples.shape
    d = X.shape[1]
    if n == 0:
        raise EmptyTrainingSetError("cannot fit a tree on zero rows")
    if keys is None:
        keys = column_keys(X)
    draws = tree_keys is not None and max_features is not None and max_features < d
    if draws:
        tree_keys = np.asarray(tree_keys, dtype=np.uint64)
    depth_limit = n if max_depth is None else max_depth  # depth stays below n

    distinct = np.sort(samples, axis=1)
    distinct = 1 + np.count_nonzero(distinct[:, 1:] != distinct[:, :-1], axis=1)
    capacity = 2 * distinct - 1
    bases = capacity.cumsum() - capacity  # column row of each tree's root
    # one column per node field, one row per node; a split node's right
    # child is always its left one plus one, so that column comes at the end
    columns = {name: np.full(capacity.sum(), _LEAF if dtype is np.intp else 0, dtype)
               for name, dtype in _NODE_FIELDS.items() if name != "right"}
    feature, threshold, left, value, n_samples, gain = columns.values()
    n_nodes = np.ones(n_trees, dtype=np.intp)  # next local id of each tree
    perm = samples.reshape(-1)  # a node's rows are a slice of perm, in order

    # a node in the making is one row of (tree, column row, start of its
    # rows in perm, size, depth) and one of its target sum and square sum
    def add_nodes(attrs, ys):
        """Write new nodes' value and size, all of a leaf's row. Returns the
        nodes large enough to search, with their sums. ``ys`` holds the
        targets end to end."""
        row, size = attrs[:, 1], attrs[:, 3]
        first = size.cumsum() - size
        constant = np.minimum.reduceat(ys, first) == np.maximum.reduceat(ys, first)
        (mixed,) = (~constant).nonzero()
        sums = np.zeros((len(size), 2))
        sums[mixed] = _slice_sums(ys, first[mixed], size[mixed])
        value[row] = np.where(constant, ys[first], sums[:, 0] / size)
        n_samples[row] = size
        (keep,) = (~constant & (attrs[:, 4] < depth_limit)
                   & (size >= 2 * min_samples_leaf)).nonzero()
        return attrs[keep], sums[keep]

    def split_round(attrs, sums):
        """Search and split one round of nodes; the children to go on with."""
        cand = None
        if draws:
            tree = attrs[:, 0]
            cand = node_candidates(tree_keys[tree], attrs[:, 2] - tree * n, attrs[:, 3],
                                   d, max_features)
        split, feat, thr, n_left, drop, ys = split_nodes(
            X, keys, y, perm, attrs[:, 2], attrs[:, 3], cand, sums[:, 0], sums[:, 1],
            min_samples_leaf)
        parents = attrs[split]
        tree, row, size = parents[:, 0], parents[:, 1], parents[:, 3]
        # a tree's split nodes are consecutive in a round; their children
        # take the tree's next ids two by two, in node order
        child = n_nodes[tree] + 2 * (np.arange(len(split)) - tree.searchsorted(tree))
        n_nodes[:] += 2 * np.bincount(tree, minlength=n_trees)
        feature[row], threshold[row], gain[row] = feat, thr, drop / size
        left[row] = child
        kids = parents.repeat(2, axis=0)  # left, right of each split node
        kids[::2, 1] = child + bases[tree]
        kids[1::2, 1] = kids[::2, 1] + 1
        kids[1::2, 2] += n_left
        kids[::2, 3] = n_left
        kids[1::2, 3] -= n_left
        kids[:, 4] += 1
        return add_nodes(kids, ys)

    # the roots: tree t's samples are the t-th run of n rows of perm
    attrs = np.zeros((n_trees, 5), dtype=np.intp)
    attrs[:, 0], attrs[:, 1], attrs[:, 2], attrs[:, 3] = (
        np.arange(n_trees), bases, np.arange(0, n_trees * n, n), n)
    ys = y.take(perm)
    target_means = (ys.reshape(n_trees, n).sum(axis=1) / n).tolist()
    nodes = add_nodes(attrs, ys)
    del ys
    while len(nodes[0]):
        nodes = split_round(*nodes)

    # compact each tree's used rows, in depth-first id order, into the stack,
    # one column at a time so that only one column is ever held twice
    del feature, threshold, left, value, n_samples, gain
    roots = n_nodes.cumsum() - n_nodes
    used = (bases - roots).repeat(n_nodes) + np.arange(n_nodes.sum())
    lefts = columns["left"][used]
    ids = np.empty_like(lefts)
    leaves = None if fitted is None else []
    # walk each tree depth-first, left child first: a split node popped
    # gives its children the tree's next two ids, and a leaf popped is the
    # tree's next leaf from the left, at its place in the stack
    for root, count in zip(roots.tolist(), n_nodes.tolist()):
        children, local = lefts[root:root + count].tolist(), [0] * count
        stack, next_id = [0], 1
        while stack:
            node = stack.pop()
            child = children[node]
            if child != _LEAF:
                local[child], local[child + 1] = next_id, next_id + 1
                next_id += 2
                stack += (child + 1, child)
            elif leaves is not None:
                leaves.append(root + local[node])
        ids[root:root + count] = local
    del lefts
    owner = roots.repeat(n_nodes)  # a tree's rows keep their place
    order = np.empty_like(ids)
    order[owner + ids] = np.arange(len(ids))
    used = used[order]
    for name in columns:
        columns[name] = columns[name][used]
    left = columns["left"]
    inner = left != _LEAF
    left[inner] = ids[(left + owner)[inner]]
    columns["right"] = np.where(inner, left + 1, _LEAF)
    if fitted is not None:
        # a split puts its left rows before its right ones, so the leaves of
        # one tree, left to right, hold perm's rows from first to last
        fitted[perm] = columns["value"][leaves].repeat(columns["n_samples"][leaves])
    return TreeStack(columns, roots, d, target_means)


def grow_tree(X, y, max_depth, min_samples_leaf, keys=None, fitted=None) -> TreeModel:
    """Grow one CART tree on every row: the one-tree call of grow_trees."""
    stack = grow_trees(X, y, np.arange(len(X))[None], max_depth, min_samples_leaf,
                       keys=keys, fitted=fitted)
    return stack.trees[0]


def fit_decision_tree(config: DecisionTreeConfig, X, y) -> TreeModel:
    """Fit a deterministic CART tree on all features."""
    return grow_tree(X, y, config.max_depth, config.min_samples_leaf)
