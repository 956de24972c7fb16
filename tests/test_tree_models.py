import hashlib
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batbench import models
from batbench.dataset import split
from batbench.rng import derive_seed
from batbench.errors import EmptyTrainingSetError
from batbench.evaluation import r_squared
from batbench.models import (
    DecisionTreeConfig,
    GradientBoostingConfig,
    RandomForestConfig,
    fit_decision_tree,
    fit_gradient_boosting,
    fit_random_forest,
)
from batbench.models import grow as grow_module
from batbench.models import tree as tree_module

from conftest import v1_document, v1_state


def random_problem(seed, n=80, d=16):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = 3.0 * X[:, 0] - 2.0 * X[:, 3] + rng.normal(0, 0.1, n)
    return X, y


class TestDecisionTree:
    def test_depth_zero_predicts_mean(self):
        X = np.arange(8, dtype=float).reshape(-1, 1)
        y = np.arange(8, dtype=float)
        model = fit_decision_tree(DecisionTreeConfig(max_depth=0, min_samples_leaf=1), X, y)
        assert np.all(model.predict(X) == np.mean(y))

    def test_single_split_on_step_function(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        model = fit_decision_tree(DecisionTreeConfig(max_depth=1, min_samples_leaf=1), X, y)
        # candidate thresholds are 0.5, 1.5, 2.5; 1.5 removes all variance
        assert model.threshold[0] == 1.5
        assert np.array_equal(model.predict(X), y)

    def test_constant_target(self):
        X = np.random.default_rng(1).random((20, 4))
        y = np.full(20, 7.0)
        model = fit_decision_tree(DecisionTreeConfig(), X, y)
        assert np.all(model.predict(X) == 7.0)

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSetError):
            fit_decision_tree(DecisionTreeConfig(), np.zeros((0, 4)), np.zeros(0))

    def test_memorizes_distinct_rows_perfectly(self):
        X, y = random_problem(7, n=60)
        model = fit_decision_tree(
            DecisionTreeConfig(max_depth=None, min_samples_leaf=1), X, y)
        assert r_squared(y, model.predict(X)) == pytest.approx(1.0, abs=1e-12)

    def test_every_leaf_predicts_mean_of_routed_targets(self):
        X, y = random_problem(11)
        model = fit_decision_tree(DecisionTreeConfig(max_depth=4, min_samples_leaf=3), X, y)
        leaves = model.apply(X)
        for leaf in np.unique(leaves):
            routed = y[leaves == leaf]
            assert model.value[leaf] == pytest.approx(np.mean(routed), abs=1e-12)
            assert model.n_samples[leaf] == len(routed)

    def test_split_gains_are_nonnegative(self):
        X, y = random_problem(13)
        model = fit_decision_tree(DecisionTreeConfig(), X, y)
        assert np.all(model.gain >= 0.0)


class TestRandomForest:
    def test_single_unbagged_full_feature_forest_equals_tree(self):
        X, y = random_problem(3)
        forest = fit_random_forest(
            RandomForestConfig(n_trees=1, bootstrap=False, max_features=16,
                               max_depth=8, min_samples_leaf=5, seed=4), X, y)
        tree = fit_decision_tree(DecisionTreeConfig(max_depth=8, min_samples_leaf=5), X, y)
        queries = np.random.default_rng(5).random((40, 16))
        assert np.array_equal(forest.predict(queries), tree.predict(queries))

    def test_constant_target_any_seed(self):
        X = np.random.default_rng(2).random((30, 16))
        y = np.full(30, 3.5)
        for seed in (0, 1, 99):
            forest = fit_random_forest(RandomForestConfig(n_trees=5, seed=seed), X, y)
            assert np.all(forest.predict(X[:10]) == 3.5)

    def test_prediction_is_exact_mean_of_member_trees(self):
        X, y = random_problem(17)
        forest = fit_random_forest(RandomForestConfig(n_trees=3, seed=8), X, y)
        queries = np.random.default_rng(9).random((25, 16))
        members = np.vstack([t.predict(queries) for t in forest.trees])
        assert np.array_equal(forest.predict(queries), np.mean(members, axis=0))

    def test_seed_controls_fit(self):
        X, y = random_problem(19)
        q = np.random.default_rng(0).random((10, 16))
        a = fit_random_forest(RandomForestConfig(n_trees=10, seed=1), X, y).predict(q)
        b = fit_random_forest(RandomForestConfig(n_trees=10, seed=1), X, y).predict(q)
        c = fit_random_forest(RandomForestConfig(n_trees=10, seed=2), X, y).predict(q)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestGradientBoosting:
    def test_zero_stages_predict_training_mean(self):
        X, y = random_problem(23)
        model = fit_gradient_boosting(GradientBoostingConfig(n_estimators=0), X, y)
        assert np.all(model.predict(X[:7]) == np.mean(y))

    def test_one_unit_rate_stump_fits_step_exactly(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        model = fit_gradient_boosting(
            GradientBoostingConfig(n_estimators=1, learning_rate=1.0,
                                   max_depth=1, min_samples_leaf=1), X, y)
        assert np.array_equal(model.predict(X), y)

    def test_staged_predictions_telescope(self):
        X, y = random_problem(29)
        model = fit_gradient_boosting(
            GradientBoostingConfig(n_estimators=12, learning_rate=0.3), X, y)
        queries = np.random.default_rng(31).random((15, 16))
        stagewise = list(model.staged_predict(queries))
        assert np.all(stagewise[0] == np.mean(y))
        for m in range(1, len(stagewise)):
            step = model.learning_rate * model.stages[m - 1].predict(queries)
            assert np.max(np.abs(stagewise[m] - (stagewise[m - 1] + step))) < 1e-10
        assert np.array_equal(stagewise[-1], model.predict(queries))

    def test_full_prediction_telescopes_from_base(self):
        X, y = random_problem(37)
        model = fit_gradient_boosting(
            GradientBoostingConfig(n_estimators=20, learning_rate=0.1), X, y)
        queries = np.random.default_rng(41).random((10, 16))
        total = np.full(len(queries), model.base_prediction)
        for stage in model.stages:
            total += model.learning_rate * stage.predict(queries)
        assert np.max(np.abs(model.predict(queries) - total)) < 1e-10

    def test_training_fit_improves_with_stages(self):
        X, y = random_problem(43)
        few = fit_gradient_boosting(GradientBoostingConfig(n_estimators=5), X, y)
        many = fit_gradient_boosting(GradientBoostingConfig(n_estimators=80), X, y)
        assert r_squared(y, many.predict(X)) > r_squared(y, few.predict(X))


@st.composite
def _split_problem(draw):
    """A small table of integers with many ties, plus a node and its candidates.

    Extra columns copy, mirror (negate) or flatten an earlier one, so candidates
    of different features tie in SSE exactly or up to float noise, or map it
    onto adjacent doubles, whose midpoints can round onto the upper value.
    """
    n = draw(st.integers(4, 24))
    small = st.integers(0, 3)
    columns = [draw(st.lists(small, min_size=n, max_size=n))
               for _ in range(draw(st.integers(1, 3)))]
    kinds = st.sampled_from(["copy", "mirror", "constant", "adjacent"])
    for kind in draw(st.lists(kinds, max_size=3)):
        source = columns[draw(st.integers(0, len(columns) - 1))]
        columns.append({"copy": list(source), "mirror": [-v for v in source],
                        "constant": [draw(small)] * n,
                        "adjacent": [1.0 + v * 2.0 ** -52 for v in source]}[kind])
    order = draw(st.permutations(range(len(columns))))
    X = np.array([columns[j] for j in order], dtype=np.float64).T
    y = np.array(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)),
                 dtype=np.float64)
    idx = np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=4))))
    features = np.array(sorted(draw(st.sets(st.integers(0, X.shape[1] - 1),
                                            min_size=1))))
    return X, y, idx, features, draw(st.integers(1, 3))


def _brute_force_split(X, y, idx, features, min_samples_leaf):
    """Every (feature, threshold) pair, one at a time, under the documented rule.

    A later feature wins only by more than tie_eps; within a feature, the
    lowest threshold wins exact ties. Integer targets keep every sum exact, so
    the SSE of a candidate has the same bits as in the vectorised search.
    """
    rows = idx.tolist()
    n = len(rows)
    total_sum = sum(y[i] for i in rows)
    total_sq = sum(y[i] * y[i] for i in rows)
    tie_eps = 1e-12 * total_sq
    best = None  # (sse, feature, threshold, left rows)
    for f in features.tolist():
        values = sorted({X[i, f] for i in rows})
        for below, above in zip(values, values[1:]):
            thr = 0.5 * (below + above)
            if thr >= above:
                thr = below
            left = [i for i in rows if X[i, f] <= thr]
            n_left = len(left)
            if n_left < min_samples_leaf or n - n_left < min_samples_leaf:
                continue
            left_sum = sum(y[i] for i in left)
            left_sq = sum(y[i] * y[i] for i in left)
            right_sum = total_sum - left_sum
            sse = (left_sq - left_sum * left_sum / n_left) \
                + (total_sq - left_sq) - right_sum * right_sum / (n - n_left)
            margin = 0.0 if best is not None and best[1] == f else tie_eps
            if best is None or sse < best[0] - margin:
                best = (sse, f, thr, left)
    if best is None:
        return None
    gain = (total_sq - total_sum * total_sum / n) - best[0]
    return None if gain <= 0.0 else (best[1], best[2], gain, best[3])


def _exact_sse(values):
    mean = Fraction(sum(values), len(values))
    return sum((v - mean) ** 2 for v in values)


def _one_node_split(X, y, idx, features, min_samples_leaf):
    """The grower's search of one node: (feature, threshold, gain, left rows,
    right rows), or None where the node stays a leaf."""
    if len(idx) < 2 * min_samples_leaf:
        return None  # the grower searches no node this small
    perm = idx.copy()
    y_node = y[idx]
    split, feature, threshold, n_left, gain, _ = grow_module.split_nodes(
        X, grow_module.column_keys(X), y, perm, np.array([0]), np.array([len(idx)]),
        features[None], np.array([y_node.sum()]), np.array([(y_node * y_node).sum()]),
        min_samples_leaf)
    if not len(split):
        return None
    cut = int(n_left[0])
    return (int(feature[0]), float(threshold[0]), float(gain[0]),
            perm[:cut].tolist(), perm[cut:].tolist())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(problem=_split_problem())
def test_best_split_matches_brute_force_enumeration(problem):
    X, y, idx, features, min_samples_leaf = problem
    found = _one_node_split(X, y, idx, features, min_samples_leaf)
    expected = _brute_force_split(X, y, idx, features, min_samples_leaf)
    if expected is None:
        assert found is None
        return
    feature, threshold, gain, left, right = found
    assert (feature, threshold, gain) == expected[:3]
    assert left == expected[3]
    # the node's rows are partitioned in place, each side in node order
    assert right == [i for i in idx.tolist() if i not in set(left)]
    # the gain is the true drop in squared error, up to rounding
    target = [int(v) for v in y[idx]]
    left_target = [int(v) for v in y[left]]
    right_target = [int(v) for v in y[right]]
    exact = _exact_sse(target) - _exact_sse(left_target) - _exact_sse(right_target)
    assert abs(gain - float(exact)) <= 1e-9 * max(1.0, float(y[idx] @ y[idx]))


def test_tables_past_the_narrow_key_width_split_as_brute_force():
    """From 65,535 rows on, the sort keys are 64-bit; the root of a tree and a
    small node of such a table split as the brute-force search says."""
    rng = np.random.default_rng(3)
    X = rng.integers(0, 4, size=(70_000, 2)).astype(np.float64)
    y = rng.integers(0, 10, size=len(X)).astype(np.float64) + 5.0 * (X[:, 1] >= 2)
    assert grow_module.column_keys(X).dtype == np.uint64
    tree = fit_decision_tree(DecisionTreeConfig(max_depth=1, min_samples_leaf=1), X, y)
    feature, threshold, gain, left = _brute_force_split(
        X, y, np.arange(len(X)), np.arange(2), 1)
    assert (tree.feature[0], tree.threshold[0], tree.gain[0]) == (
        feature, threshold, gain / len(X))
    assert tree.n_samples[1] == len(left)
    assert tree.value[1] == y[left].sum() / len(left)

    idx = np.sort(rng.choice(len(X), size=40, replace=False))
    found = _one_node_split(X, y, idx, np.arange(2), 2)
    expected = _brute_force_split(X, y, idx, np.arange(2), 2)
    assert found[:4] == expected[:3] + (expected[3],)


# sha256 of v1_document(model) (conftest) for each default fit (forest cut to
# 10 trees) on the canonical holdout train split. The three forests that draw
# features were re-pinned when a node's candidates became a hash of its tree
# key and its place in the tree's sample (grow.node_candidates) instead of
# numpy's choice draws in depth-first order, which changed their trees;
# test_canonical_forest_matches_tree_by_tree_reference checks such forests
# against the node-by-node reference. All six were re-pinned when node ids
# came to follow the growth rounds (level by level) instead of a depth-first
# renumbering: every tree keeps its nodes, its file length and its
# predictions; only the order of its nodes in the file changed
FIT_SHA256 = {
    "DecisionTree": "11a9557da48445af65dc44981178647679a48ea9a6479e86121048268998ebe1",
    "RandomForest": "e05e80a8b5058b770b4008c4df3a98573754b7ed7189d81d526cf05af14acf40",
    "GradientBoosting":
        "3767b9fcf8f9dcb4c9d24b419d3a464eff69885a5ce3e1ec6f5419da8bfc6d58",
    "RandomForest-100":
        "094d761c0e48994e27f79fc34e862eeb64db87f436154c68af000cdecc93f397",
    "RandomForest-depth6-leaf3-seed5":
        "64da2cf0f69f887ccbddcb7751ed8c2b148424509a060ab0510d18444dffc14d",
    "RandomForest-7-unbagged-all-features":
        "945978fbc078068d6386dad879702cbe73da7b95a0f3ce9691c0d5a15e65dfde",
}


@pytest.mark.parametrize("name, config", [
    pytest.param("DecisionTree", DecisionTreeConfig(), id="DecisionTree"),
    pytest.param("RandomForest", RandomForestConfig(n_trees=10), id="RandomForest"),
    pytest.param("GradientBoosting", GradientBoostingConfig(), id="GradientBoosting"),
    pytest.param("RandomForest-100", RandomForestConfig(), id="RandomForest-100"),
    pytest.param("RandomForest-depth6-leaf3-seed5",
                 RandomForestConfig(max_depth=6, min_samples_leaf=3, seed=5),
                 id="RandomForest-depth6-leaf3-seed5"),
    pytest.param("RandomForest-7-unbagged-all-features",
                 RandomForestConfig(n_trees=7, bootstrap=False, max_features=16),
                 id="RandomForest-7-unbagged-all-features"),
])
def test_canonical_fits_are_pinned(canonical, name, config):
    rows = list(split(canonical.n_rows, 0.8, 42).train_indices)
    model = models.fit_model(config, canonical.features[rows], canonical.target[rows])
    document = v1_document(model)
    assert hashlib.sha256(document.encode()).hexdigest() == FIT_SHA256[name]


@pytest.mark.parametrize("config", [DecisionTreeConfig(), GradientBoostingConfig(),
                                    RandomForestConfig()],
                         ids=["DecisionTree", "GradientBoosting", "RandomForest"])
def test_node_ids_follow_growth_rounds(canonical, config):
    """Node ids are handed out round by round: depth never falls as the id
    rises, and the split nodes, in id order, give their children the next
    ids two by two, so a child's id is above its parent's."""
    rows = list(split(canonical.n_rows, 0.8, 42).train_indices)
    model = models.fit_model(config, canonical.features[rows], canonical.target[rows])
    for tree in getattr(model, "trees", getattr(model, "stages", [model])):
        feature, left, right = tree.feature.tolist(), tree.left.tolist(), tree.right.tolist()
        depth, todo = {0: 0}, [0]
        while todo:  # depths along the stored child ids, whatever their order
            node = todo.pop()
            if feature[node] != -1:
                for child in (left[node], right[node]):
                    depth[child] = depth[node] + 1
                    todo.append(child)
        depths = [depth[node] for node in range(len(feature))]
        assert depths == sorted(depths)
        inner = [node for node in range(len(feature)) if feature[node] != -1]
        assert len(inner) > 1
        assert all(left[node] > node and right[node] == left[node] + 1 for node in inner)
        assert [left[node] for node in inner] == list(range(1, len(feature), 2))


def _oracle_leaf(tree, row):
    """Leaf id of one row in one tree, walked node by node in plain Python."""
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    left, right = tree.left.tolist(), tree.right.tolist()
    node = 0
    while feature[node] != -1:
        # NaN compares false and goes right
        node = left[node] if row[feature[node]] <= threshold[node] else right[node]
    return node


def _oracle_predict(model, row):
    """The documented prediction of one row, summed tree by tree in tree order."""
    if model.family == "DecisionTree":
        return float(model.value[_oracle_leaf(model, row)])
    if model.family == "RandomForest":
        total = 0.0
        for tree in model.trees:
            total += float(tree.value[_oracle_leaf(tree, row)])
        return total / len(model.trees)
    total = model.base_prediction
    for stage in model.stages:
        total += model.learning_rate * float(stage.value[_oracle_leaf(stage, row)])
    return total


def _members(model):
    return {"DecisionTree": lambda: [model], "RandomForest": lambda: model.trees,
            "GradientBoosting": lambda: model.stages}[model.family]()


@st.composite
def _tree_family_problem(draw):
    """A small table of small integers, a tree-family config, and its fitted model."""
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 4))
    cells = st.integers(-3, 3).map(float)
    X = np.array(draw(st.lists(st.lists(cells, min_size=d, max_size=d),
                               min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.integers(-20, 20).map(float), min_size=n, max_size=n)))
    depth = draw(st.none() | st.integers(0, 5))
    leaf = draw(st.integers(1, 3))
    config = draw(st.sampled_from([
        DecisionTreeConfig(max_depth=depth, min_samples_leaf=leaf),
        RandomForestConfig(n_trees=draw(st.integers(1, 6)), max_depth=depth,
                           min_samples_leaf=leaf, max_features=draw(st.integers(1, d)),
                           bootstrap=draw(st.booleans()), seed=draw(st.integers(0, 9))),
        GradientBoostingConfig(n_estimators=draw(st.integers(0, 6)), max_depth=depth,
                               min_samples_leaf=leaf,
                               learning_rate=draw(st.sampled_from([0.1, 0.3, 1.0]))),
    ]))
    return X, y, models.fit_model(config, X, y)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(problem=_tree_family_problem(), data=st.data())
def test_predict_matches_node_by_node_walk(problem, data):
    X, y, model = problem
    d = X.shape[1]
    # cells equal to a split threshold, between training values, or not finite
    thresholds = [t for tree in _members(model)
                  for t in tree.threshold[tree.feature != -1].tolist()]
    cell = st.sampled_from(sorted(set(X.ravel().tolist()))) | st.floats(-4, 4) \
        | st.sampled_from([np.nan, np.inf, -np.inf])
    if thresholds:
        cell = cell | st.sampled_from(thresholds)
    queries = np.array(data.draw(st.lists(st.lists(cell, min_size=d, max_size=d),
                                          min_size=1, max_size=12)))
    batch = models.predict(model, queries)
    expected = [_oracle_predict(model, row) for row in queries.tolist()]
    assert batch.tolist() == expected
    single = [models.predict(model, queries[i:i + 1])[0] for i in range(len(queries))]
    assert np.array_equal(single, batch)
    perm = np.random.default_rng(len(queries)).permutation(len(queries))
    assert np.array_equal(models.predict(model, queries[perm]), batch[perm])


@pytest.mark.parametrize("config", [
    DecisionTreeConfig(max_depth=0),
    RandomForestConfig(n_trees=4, max_depth=0),
    GradientBoostingConfig(n_estimators=4, max_depth=0),
], ids=lambda c: c.family)
def test_depth_zero_every_root_is_a_leaf(config):
    X, y = random_problem(47, n=30, d=4)
    model = models.fit_model(config, X, y)
    members = _members(model)
    assert all(len(tree.feature) == 1 and tree.feature[0] == -1 for tree in members)
    queries = np.random.default_rng(3).random((9, 4))
    expected = [_oracle_predict(model, row) for row in queries.tolist()]
    assert models.predict(model, queries).tolist() == expected
    assert len(set(expected)) == 1


def test_zero_stage_boosting_predicts_its_base_for_every_row():
    X, y = random_problem(53, n=20, d=4)
    model = fit_gradient_boosting(GradientBoostingConfig(n_estimators=0), X, y)
    queries = np.random.default_rng(4).random((6, 4))
    assert models.predict(model, queries).tolist() == [model.base_prediction] * 6
    assert models.predict(model, queries[:1]).tolist() == [model.base_prediction]
    staged = list(model.staged_predict(queries))
    assert len(staged) == 1 and staged[0].tolist() == [model.base_prediction] * 6
    assert models.predict(model, np.empty((0, 4))).shape == (0,)


def test_batch_spanning_several_row_blocks_equals_rows_one_by_one():
    X, y = random_problem(67, n=60)
    forest = fit_random_forest(RandomForestConfig(n_trees=20, seed=5), X, y)
    rows_per_block = tree_module._PAIR_BLOCK // len(forest.trees)
    # two whole blocks and a partial third
    queries = np.random.default_rng(8).random((2 * rows_per_block + 17, 16))
    batch = forest.predict(queries)
    single = [forest.predict(queries[i:i + 1])[0] for i in range(len(queries))]
    assert np.array_equal(single, batch)
    leaves = tree_module.walk(forest._stack, forest._stack.roots, queries)
    for t, tree in enumerate(forest.trees):
        assert np.array_equal(leaves[t] - forest._stack.roots[t], tree.apply(queries))


def _scrambled_tree(leaf_values):
    """A tree state whose child ids are neither adjacent nor in depth-first
    order: the root's left child is node 3 and its right child node 1."""
    a, b, c, d = leaf_values
    return {
        "feature": [0, 1, -1, 1, -1, -1, -1],
        "threshold": [0.5, -1.0, 0.0, 2.0, 0.0, 0.0, 0.0],
        "left": [3, 4, -1, 6, -1, -1, -1],
        "right": [1, 2, -1, 5, -1, -1, -1],
        "value": [0.0, 0.0, a, 0.0, b, c, d],
        "n_samples": [8, 4, 2, 4, 2, 2, 2],
        "gain": [1.0, 0.5, 0.0, 0.5, 0.0, 0.0, 0.0],
        "n_features_in": 2, "training_target_mean": 0.0,
    }


@pytest.mark.parametrize("family, state", [
    ("DecisionTree", _scrambled_tree([7.0, -3.0, 11.0, 0.25])),
    ("RandomForest", {"trees": [_scrambled_tree([7.0, -3.0, 11.0, 0.25]),
                                _scrambled_tree([1.5, 40.0, -8.0, 2.0])],
                      "n_features_in": 2, "training_target_mean": 0.0}),
], ids=["DecisionTree", "RandomForest"])
def test_walk_follows_stored_child_ids(family, state, tmp_path):
    """The scrambled trees are read from a version-1 file and pass through
    a save and load in the current format."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"format_version": 1, "family": family, "state": state}))
    models.save_model(models.load_model(path), path)
    model = models.load_model(path)
    cells = [-np.inf, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, np.inf, np.nan]
    queries = np.array([[u, v] for u in cells for v in cells])
    expected = [_oracle_predict(model, row) for row in queries.tolist()]
    batch = models.predict(model, queries)
    assert batch.tolist() == expected
    for tree in _members(model):
        leaves = tree.apply(queries).tolist()
        assert leaves == [_oracle_leaf(tree, row) for row in queries.tolist()]
        assert set(leaves) == {2, 4, 5, 6}
    single = [models.predict(model, queries[i:i + 1])[0] for i in range(len(queries))]
    assert single == expected
    perm = np.random.default_rng(9).permutation(len(queries))
    assert models.predict(model, queries[perm]).tolist() == [expected[i] for i in perm]


def _assert_members_are_views(model):
    stack = model._stack
    for name in ("feature", "threshold", "left", "right", "value", "n_samples", "gain"):
        stacked = getattr(stack, name)
        assert not stacked.flags.writeable
        for tree in _members(model):
            arr = getattr(tree, name)
            assert np.shares_memory(arr, stacked)
            assert not arr.flags.writeable


@pytest.mark.parametrize("config", [
    RandomForestConfig(n_trees=6, seed=4), GradientBoostingConfig(n_estimators=6),
], ids=lambda c: c.family)
def test_ensemble_members_are_read_only_views_of_one_stack(config, tmp_path):
    X, y = random_problem(71)
    model = models.fit_model(config, X, y)
    _assert_members_are_views(model)
    models.save_model(model, tmp_path / "model.json")
    _assert_members_are_views(models.load_model(tmp_path / "model.json"))


_MASK64 = (1 << 64) - 1


def _mix64(z):
    """SplitMix64's finalizer on a Python int in [0, 2**64)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _node_features(tree_key, start, size, d, m):
    """The m features of 0..d-1 with the smallest hashes of (tree_key, start,
    size, j), ties to the lower j, ascending: feature j's hash is the
    (j + 1)-th output of a SplitMix64 stream seeded with
    mix(tree_key ^ (start << 32 | size))."""
    seed = _mix64(tree_key ^ (start << 32 | size))
    hashes = [_mix64((seed + (j + 1) * 0x9E3779B97F4A7C15) & _MASK64) for j in range(d)]
    return np.array(sorted(sorted(range(d), key=lambda j: (hashes[j], j))[:m]))


def _reference_tree(X, y, max_depth, min_samples_leaf, search, tree_key=None,
                    max_features=None):
    """One tree grown node by node, breadth-first (a FIFO queue, left child
    first), as the documented rule reads.

    A popped node that is not constant and lies above max_depth tries
    ``_node_features(tree_key, start, size, d, max_features)`` (with a tree
    key and max_features < d), else every feature; ``start`` is the node's
    first row within the tree's sample: a left child keeps its parent's, and
    a right child's lies the left child's size later. Then
    ``search(X, y, rows, features, min_samples_leaf)`` gives its split or
    None. A split node's children take the next two ids.
    """
    d = X.shape[1]
    nodes = {}
    stack, n_nodes = [(0, np.arange(len(X)), 0, 0)], 1
    while stack:
        node, rows, depth, start = stack.pop(0)
        y_node = y[rows]
        constant = bool((y_node == y_node[0]).all())
        found = None
        if not constant and (max_depth is None or depth < max_depth):
            features = np.arange(d)
            if tree_key is not None and max_features < d:
                features = _node_features(tree_key, start, len(rows), d, max_features)
            found = search(X, y, rows, features, min_samples_leaf)
        value = float(y_node[0] if constant else y_node.sum() / len(y_node))
        if found is None:
            nodes[node] = (-1, 0.0, -1, -1, value, len(rows), 0.0)
            continue
        feature, threshold, gain, left = found
        goes_left = np.isin(rows, left)
        n_left = int(goes_left.sum())
        nodes[node] = (feature, threshold, n_nodes, n_nodes + 1, value, len(rows),
                       gain / len(rows))
        stack.append((n_nodes, rows[goes_left], depth + 1, start))
        stack.append((n_nodes + 1, rows[~goes_left], depth + 1, start + n_left))
        n_nodes += 2
    columns = list(zip(*(nodes[i] for i in range(n_nodes))))
    return models.TreeModel(*columns, n_features_in=d,
                            training_target_mean=float(np.mean(y)))


def _table(draw, max_rows=16):
    """Small integer table whose rows repeat and whose target may be constant."""
    d = draw(st.integers(1, 4))
    distinct = draw(st.lists(st.lists(st.integers(0, 3), min_size=d, max_size=d),
                             min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=2,
                          max_size=max_rows))
    X = np.array([distinct[i] for i in picks], dtype=np.float64)
    if draw(st.booleans()):
        y = np.full(len(X), float(draw(st.integers(-5, 5))))
    else:
        y = np.array(draw(st.lists(st.integers(-9, 9), min_size=len(X),
                                   max_size=len(X))), dtype=np.float64)
    return X, y


def _brute_force_search(X, y, rows, features, min_samples_leaf):
    found = _brute_force_split(X, y, rows, features, min_samples_leaf)
    return None if found is None else found[:3] + (np.array(found[3]),)


def _one_node_search(X, y, rows, features, min_samples_leaf):
    """The grower's own one-node call, for targets that are not integers."""
    found = _one_node_split(X, y, rows, features, min_samples_leaf)
    return None if found is None else found[:3] + (np.array(found[3]),)


def _assert_forest_is_reference(config, X, y, search=_brute_force_search):
    """Each tree of the forest is the node-by-node reference grown on its
    bootstrap rows, with the key its rng draws after them."""
    forest = fit_random_forest(config, X, y)
    n = len(X)
    for i, tree in enumerate(forest.trees):
        rng = np.random.default_rng(derive_seed(config.seed, "tree", i))
        rows = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
        tree_key = int(rng.integers(1 << 64, dtype=np.uint64))
        expected = _reference_tree(X[rows], y[rows], config.max_depth,
                                   config.min_samples_leaf, search,
                                   tree_key=tree_key, max_features=config.max_features)
        assert v1_state(tree) == v1_state(expected)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_lockstep_forest_matches_tree_by_tree_reference(data):
    X, y = _table(data.draw)
    d = X.shape[1]
    config = RandomForestConfig(
        n_trees=data.draw(st.integers(1, 7)), bootstrap=data.draw(st.booleans()),
        max_features=data.draw(st.integers(1, d)),
        max_depth=data.draw(st.none() | st.integers(0, 4)),
        min_samples_leaf=data.draw(st.integers(1, 3)), seed=data.draw(st.integers(0, 9)))
    _assert_forest_is_reference(config, X, y)


@pytest.mark.parametrize("d, m", [(10_001, 3), (80, 65)])
def test_forest_past_the_draw_tables_limits_draws_through_choice(d, m):
    """The name is the draw tables': past d = 10,000 or 64 candidates the
    forest drew through Generator.choice. Hashed draws have no such limits,
    and past both sizes the forest is still the reference."""
    data = np.random.default_rng(6)
    X = data.integers(0, 3, size=(14, d)).astype(np.float64)
    y = data.integers(-9, 10, size=14).astype(np.float64)
    _assert_forest_is_reference(
        RandomForestConfig(n_trees=3, max_features=m, min_samples_leaf=2, seed=7), X, y)


@pytest.mark.parametrize("config", [
    RandomForestConfig(n_trees=10),
    RandomForestConfig(n_trees=10, max_depth=6, min_samples_leaf=3, seed=5)],
    ids=["default", "depth6-leaf3-seed5"])
def test_canonical_forest_matches_tree_by_tree_reference(canonical, config):
    """On the canonical train split, rounds of up to a few hundred nodes of
    many sizes; its targets are not integers, so the reference searches each
    node with the grower's one-node call."""
    rows = list(split(canonical.n_rows, 0.8, 42).train_indices)
    _assert_forest_is_reference(config, canonical.features[rows], canonical.target[rows],
                                search=_one_node_search)


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox,
                                           np.random.SFC64])
def test_draw_tables_replay_choice_on_other_bit_generators(bit_generator):
    """The name is the draw tables', which replayed Generator.choice on any
    bit generator. A tree now reads only its bootstrap rows and one uint64
    key from its stream, through Generator.integers, and the grower reads
    no stream: trees grown on the rows and keys of other bit generators are
    the references, and each stream is left where those two draws left it."""
    data = np.random.default_rng(9)
    X = data.integers(0, 3, size=(15, 40)).astype(np.float64)
    y = data.integers(-9, 10, size=15).astype(np.float64)
    rngs, refs = ([np.random.Generator(bit_generator(seed)) for seed in range(10)]
                  for _ in range(2))
    samples = [rng.integers(0, 15, size=15) for rng in rngs]  # odd: a half pending
    tree_keys = [rng.integers(1 << 64, dtype=np.uint64) for rng in rngs]
    stack = grow_module.grow_trees(X, y, samples, None, 2, tree_keys=tree_keys,
                                   max_features=13)
    for tree, ref in zip(stack.trees, refs):
        rows = ref.integers(0, 15, size=15)
        tree_key = int(ref.integers(1 << 64, dtype=np.uint64))
        expected = _reference_tree(X[rows], y[rows], None, 2, _brute_force_search,
                                   tree_key=tree_key, max_features=13)
        assert v1_state(tree) == v1_state(expected)
    after = [rng.integers(1 << 32, size=3, dtype=np.uint32).tolist() for rng in rngs]
    assert after == [rng.integers(1 << 32, size=3, dtype=np.uint32).tolist() for rng in refs]


def test_node_candidates_match_the_plain_python_hash():
    """node_candidates' uint64 numpy arithmetic, blocked by rows, is the
    plain-Python SplitMix64 hash, for keys of all 64 bits and starts and
    sizes up to 2**31."""
    rng = np.random.default_rng(11)
    for d, m in [(16, 6), (5, 2), (40, 13), (3000, 64)]:
        key = rng.integers(1 << 64, size=30, dtype=np.uint64)
        start, size = rng.integers(0, 1 << 31, size=30), rng.integers(1, 1 << 31, size=30)
        found = grow_module.node_candidates(key, start, size, d, m)
        expected = [_node_features(int(k), int(a), int(s), d, m)
                    for k, a, s in zip(key, start, size)]
        assert np.array_equal(found, expected)


@pytest.mark.parametrize("d, m", [(16, 6), (16, 1), (16, 15), (5, 2), (40, 13)])
def test_each_feature_is_a_candidate_at_rate_m_over_d(d, m):
    """Over 20,000 nodes (keys, starts and sizes as a forest has them),
    feature j's inclusion count has mean N m/d and, as a draw of m of d
    without replacement, covariance N p (1 - p) d/(d - 1) (I - 1/d) with
    p = m/d; so the statistic below is chi-square with d - 1 degrees of
    freedom. It must lie below that law's 0.999 quantile (Wilson-Hilferty)."""
    rng = np.random.default_rng(d * 100 + m)
    n_nodes, p = 20_000, m / d
    key = rng.integers(1 << 64, size=400, dtype=np.uint64).repeat(n_nodes // 400)
    start, size = rng.integers(0, 258, size=n_nodes), rng.integers(2, 259, size=n_nodes)
    cand = grow_module.node_candidates(key, start, size, d, m)
    assert (np.diff(cand, axis=1) > 0).all()
    counts = np.bincount(cand.reshape(-1), minlength=d)
    stat = (d - 1) / d * ((counts - n_nodes * p) ** 2).sum() / (n_nodes * p * (1 - p))
    k = d - 1
    quantile = k * (1 - 2 / (9 * k) + 3.090 * (2 / (9 * k)) ** 0.5) ** 3
    assert stat < quantile


def test_forest_over_twenty_thousand_features_peaks_at_its_sort_keys():
    """The candidate hashes of a round are frontier x d uint64 cells, made a
    block of rows at a time: a forest on a 16 x 20,000 table peaks within
    1 MiB of column_keys' own peak (about 9 MiB), where one block for a whole
    frontier (up to 160 nodes of 20 trees, about 24 MiB a copy) would not."""
    data = np.random.default_rng(8)
    X = data.random((16, 20_000))
    y = data.integers(-9, 10, size=16).astype(np.float64)
    config = RandomForestConfig(n_trees=20, max_features=5, seed=3)
    peaks = []
    for fit in (lambda: grow_module.column_keys(X), lambda: fit_random_forest(config, X, y)):
        tracemalloc.start()
        try:
            fit()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    keys_peak, forest_peak = peaks
    assert forest_peak < keys_peak + (1 << 20)


def test_draw_tables_of_a_default_forest_peak_below_one_mib(canonical, monkeypatch):
    """The name is the draw tables', which a default forest on the canonical
    train split built in under 1 MiB. Its draws are now one node_candidates
    call a round, over the round's whole frontier (up to about 2,000 nodes);
    each call, hashes made a block at a time, still rises under 1 MiB."""
    rows = list(split(canonical.n_rows, 0.8, 42).train_indices)
    config = RandomForestConfig()
    node_candidates, rises, nodes = grow_module.node_candidates, [], []

    def traced(tree_key, start, size, d, m):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        cand = node_candidates(tree_key, start, size, d, m)
        rises.append(tracemalloc.get_traced_memory()[1] - before)
        nodes.append(len(cand))
        return cand

    monkeypatch.setattr(grow_module, "node_candidates", traced)
    tracemalloc.start()
    try:
        forest = fit_random_forest(config, canonical.features[rows], canonical.target[rows])
    finally:
        tracemalloc.stop()
    assert len(forest.trees) == config.n_trees
    assert max(nodes) > 1000  # whole frontiers, not one node per tree
    assert max(rises) < 1 << 20


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_frontier_rounds_match_depth_first_reference(data):
    """DecisionTree and every boosting stage grow a whole frontier a round;
    the trees, node ids included, are the node-by-node breadth-first ones."""
    X, y = _table(data.draw, max_rows=24)
    max_depth = data.draw(st.none() | st.integers(0, 4))
    min_samples_leaf = data.draw(st.integers(1, 3))
    tree = fit_decision_tree(DecisionTreeConfig(max_depth=max_depth,
                                                min_samples_leaf=min_samples_leaf), X, y)
    assert v1_state(tree) == v1_state(_reference_tree(
        X, y, max_depth, min_samples_leaf, _brute_force_search))

    # boosting residuals are not integers, so the reference searches each
    # node with the grower's own one-node call, in breadth-first order
    config = GradientBoostingConfig(
        n_estimators=data.draw(st.integers(1, 4)), max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        learning_rate=data.draw(st.sampled_from([0.1, 0.5, 1.0])))
    boosted = fit_gradient_boosting(config, X, y)
    current = np.full(len(y), float(np.mean(y)))
    for stage in boosted.stages:
        expected = _reference_tree(X, y - current, max_depth, min_samples_leaf,
                                   _one_node_search)
        assert v1_state(stage) == v1_state(expected)
        current += config.learning_rate * expected.predict(X)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_fitted_equals_predict_on_training_rows(data):
    """grow_tree(fitted=buf) writes each row's leaf value, which pins the
    grower's leaves, left to right, to the rows they hold."""
    X, y = _table(data.draw)
    y *= 0.1  # leaf means that round
    special = data.draw(st.lists(st.tuples(st.integers(0, X.size - 1),
                                           st.sampled_from([np.nan, np.inf, -np.inf])),
                                 max_size=6))
    for cell, v in special:
        X.flat[cell] = v
    buf = np.full(len(y), np.nan)
    tree = grow_module.grow_tree(X, y, data.draw(st.none() | st.integers(0, 4)),
                                 data.draw(st.integers(1, 3)), fitted=buf)
    assert buf.tobytes() == tree.predict(X).tobytes()
