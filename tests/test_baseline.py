"""Regression trees and the environment baseline model."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranwatch.baseline import (
    BaselineParams,
    FeatureMatrix,
    build_feature_matrix,
    chronological_split,
    load_model,
    out_of_bag_predictions,
    predict_matrix,
    regression_metrics,
    train_baseline,
)
import ranwatch.trees as trees_mod
from ranwatch.errors import ConfigError, DataError
from ranwatch.risk import RiskParams, decision_function, train_risk
from ranwatch.trees import (
    Forest,
    Tree,
    Vectorizer,
    ensemble_hash,
    grow_tree,
    load_ensemble,
    save_ensemble,
)


# ---------------------------------------------------------------------------
# trees


def test_tree_finds_obvious_split():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    tree = grow_tree(X, y, max_depth=1)
    assert tree.feature[0] == 0
    assert tree.threshold[0] == pytest.approx(1.5)
    pred = tree.predict(X)
    assert pred.tolist() == [0.0, 0.0, 10.0, 10.0]


def test_tree_fits_training_data_perfectly_when_deep_enough():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(32, 3))
    y = rng.normal(size=32)
    tree = grow_tree(X, y, max_depth=10)
    assert np.allclose(tree.predict(X), y)


def test_tree_constant_target_stays_leaf():
    X = np.arange(10, dtype=float).reshape(-1, 1)
    tree = grow_tree(X, np.ones(10), max_depth=4)
    assert len(tree.feature) == 1
    assert tree.feature[0] == -1


def test_tree_respects_min_samples_leaf():
    X = np.arange(8, dtype=float).reshape(-1, 1)
    y = np.array([0.0, 0, 0, 0, 10, 10, 10, 10])
    tree = grow_tree(X, y, max_depth=10, min_samples_leaf=4)
    leaf_ids = tree.leaf_indices(X)
    _, counts = np.unique(leaf_ids, return_counts=True)
    assert counts.min() >= 4


def test_tree_round_trips_through_dict():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 4))
    y = rng.normal(size=40)
    trees = [grow_tree(X, y, max_depth=5), grow_tree(X[::-1], 2.0 * y[::-1], max_depth=3)]
    record = json.loads(json.dumps(Forest.pack(trees).encode()))
    clone = Forest.decode(record, n_columns=4)
    assert clone.sizes == tuple(len(tree.value) for tree in trees)
    probe = rng.normal(size=(25, 4))
    expected = np.column_stack([tree.predict(probe) for tree in trees])
    assert np.array_equal(clone.leaf_values(probe), expected)


@given(seed=st.integers(0, 2**16), depth=st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_tree_predictions_bounded_by_training_targets(seed, depth):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(30, 2))
    y = rng.uniform(-5, 5, size=30)
    tree = grow_tree(X, y, max_depth=depth)
    probe = rng.normal(scale=3.0, size=(50, 2))
    pred = tree.predict(probe)
    assert pred.min() >= y.min() - 1e-12
    assert pred.max() <= y.max() + 1e-12


def _unpacked(forest: Forest) -> list[Tree]:
    """The trees of ``forest`` one by one, with child indices local again."""
    trees, start = [], 0
    for size in forest.sizes:
        part = slice(start, start + size)
        trees.append(Tree(
            feature=np.asarray(forest.feature[part], dtype=np.int64),
            threshold=np.asarray(forest.threshold[part]),
            left=np.asarray(forest.left[part], dtype=np.int64) - start,
            right=np.asarray(forest.right[part], dtype=np.int64) - start,
            value=np.asarray(forest.value[part]),
        ))
        start += size
    return trees


def _probe_on_thresholds(forest: Forest, n_columns: int, seed: int) -> np.ndarray:
    """Random rows plus one row per split node holding exactly its threshold."""
    rng = np.random.default_rng(seed)
    split = np.flatnonzero(forest.feature >= 0)
    probe = rng.uniform(0, 10, size=(split.size + 40, n_columns))
    probe[np.arange(split.size), forest.feature[split]] = forest.threshold[split]
    return probe


def test_forest_walk_sends_ties_left():
    tree = grow_tree(np.array([[0.0], [1.0]]), np.array([3.0, 7.0]), max_depth=1)
    forest = Forest.pack([tree, tree])
    assert forest.leaf_values(np.array([[0.5], [0.5000001]])).tolist() == [[3.0, 3.0], [7.0, 7.0]]


@pytest.mark.parametrize(
    "left,right",
    [
        ([0, 2, 1, 3], [0, 3, 2, 3]),  # a leaf back to its tree's split
        ([0, 2, 2, 3], [0, 3, 2, 1]),
        ([1, 2, 2, 3], [0, 3, 2, 3]),  # a root leaf into the next tree
        ([0, 2, 2, 9], [0, 3, 2, 3]),  # a leaf child past the last node
    ],
)
def test_forest_rejects_a_leaf_that_does_not_point_at_itself(left, right):
    # tree 0 is one leaf, tree 1 a split at node 1 with leaves 2 and 3
    with pytest.raises(ValueError, match="outside their tree"):
        Forest(feature=[-1, 0, -1, -1], threshold=[0.0] * 4, left=left, right=right,
               value=[0.0] * 4, sizes=(1, 3))


@pytest.mark.parametrize("kind", ["baseline", "risk"])
def test_forest_predictions_equal_per_tree_sums_bit_for_bit(tmp_path, monkeypatch, kind):
    matrix, y = _smooth_data(n=120, seed=3)
    if kind == "baseline":
        model = train_baseline(matrix, y, BaselineParams(n_trees=12, max_depth=5), seed=5)
    else:
        labels = (y > np.median(y)).astype(int)
        params = RiskParams(n_estimators=15, max_depth=3)
        model = train_risk(matrix.values, labels, params, 5, matrix.vectorizer)
    probe = _probe_on_thresholds(model.trees, 3, seed=11)
    assert probe.shape[0] > 60
    trees = _unpacked(model.trees)
    if kind == "baseline":
        acc = np.zeros(probe.shape[0])
        for tree in trees:
            acc += tree.predict(probe)
        expected = np.maximum(acc / len(trees), 0.0)
        predict = predict_matrix
    else:
        expected = np.full(probe.shape[0], model.f0)
        for tree in trees:
            expected += model.params.learning_rate * tree.predict(probe)
        predict = decision_function
    assert predict(model, probe).tobytes() == expected.tobytes()
    monkeypatch.setattr(trees_mod, "_PAIRS_PER_BLOCK", 5 * len(trees))  # walk 5 rows at a time
    assert predict(model, probe).tobytes() == expected.tobytes()

    path = tmp_path / "model.json"
    save_ensemble(model, path)
    clone = load_ensemble(path, type(model))
    assert ensemble_hash(clone) == ensemble_hash(model)
    assert predict(clone, probe).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# feature matrix


def test_median_imputation():
    matrix = build_feature_matrix(
        ("x", "y"),
        [{"x": 1.0, "y": None}, {"x": 3.0, "y": 5.0}, {"x": None, "y": 7.0}],
    )
    assert matrix.vectorizer.imputation == {"x": 2.0, "y": 6.0}
    assert matrix.values[0, 1] == 6.0
    assert matrix.values[2, 0] == 2.0


def test_all_missing_column_imputes_zero():
    matrix = build_feature_matrix(("x",), [{"x": None}])
    assert matrix.vectorizer.imputation["x"] == 0.0
    assert matrix.values[0, 0] == 0.0


# ---------------------------------------------------------------------------
# training


def _smooth_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, size=(n, 3))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] + 0.05 * rng.normal(size=n)
    matrix = FeatureMatrix(
        vectorizer=Vectorizer(("a", "b", "c"), {"a": 0.0, "b": 0.0, "c": 0.0}),
        values=X,
    )
    return matrix, y


def test_training_learns_a_smooth_function():
    matrix, y = _smooth_data()
    model = train_baseline(matrix, y, BaselineParams(n_trees=40), seed=1)
    metrics = regression_metrics(y, predict_matrix(model, matrix.values))
    assert metrics.r2 > 0.85
    assert metrics.rmse >= metrics.mae


def test_training_is_deterministic():
    matrix, y = _smooth_data()
    params = BaselineParams(n_trees=10)
    a = train_baseline(matrix, y, params, seed=7)
    b = train_baseline(matrix, y, params, seed=7)
    assert ensemble_hash(a) == ensemble_hash(b)
    c = train_baseline(matrix, y, params, seed=8)
    assert ensemble_hash(a) != ensemble_hash(c)


def test_predictions_respect_training_range():
    matrix, y = _smooth_data()
    model = train_baseline(matrix, y, BaselineParams(n_trees=20), seed=2)
    probe = np.random.default_rng(9).uniform(-5, 20, size=(100, 3))
    pred = predict_matrix(model, probe)
    assert pred.min() >= max(0.0, y.min()) - 1e-12
    assert pred.max() <= y.max() + 1e-12


def test_training_input_validation():
    matrix, y = _smooth_data(n=30)
    with pytest.raises(DataError):
        train_baseline(matrix, y, BaselineParams(), seed=0)  # too few rows
    matrix, y = _smooth_data(n=60)
    with pytest.raises(DataError):
        train_baseline(matrix, np.ones(60), BaselineParams(), seed=0)  # constant
    with pytest.raises(ConfigError):
        BaselineParams(n_trees=0)


def test_model_vectorizer_fills_gaps_with_its_imputation():
    matrix = build_feature_matrix(
        ("a", "b"), [{"a": 1.0, "b": 4.0}, {"a": 3.0, "b": None}, {"a": None, "b": 8.0}]
    )
    rows = [{"a": 1.0, "b": None}, {"b": 2.0}, {"a": float("nan"), "b": 3}]
    assert matrix.vectorizer.transform(rows).tolist() == [[1.0, 6.0], [2.0, 2.0], [2.0, 3.0]]
    with pytest.raises(DataError):
        matrix.vectorizer.transform([{"a": "fast"}])

    data, y = _smooth_data(n=80)
    model = train_baseline(data, y, BaselineParams(n_trees=10), seed=3)
    assert model.vectorizer is data.vectorizer
    X = model.vectorizer.transform([{"a": 1.0, "b": 2.0, "c": 3.0}, {"a": 1.0, "b": 2.0}])
    assert X.tolist() == [[1.0, 2.0, 3.0], [1.0, 2.0, 0.0]]
    assert predict_matrix(model, X).shape == (2,)
    with pytest.raises(DataError):
        predict_matrix(model, np.zeros((2, 2)))


def test_save_load_round_trip_is_lossless(tmp_path):
    matrix, y = _smooth_data(n=90)
    model = train_baseline(matrix, y, BaselineParams(n_trees=15), seed=4)
    path = tmp_path / "model.json"
    save_ensemble(model, path)
    clone = load_model(path)
    probe = np.random.default_rng(1).uniform(0, 10, size=(50, 3))
    assert np.max(np.abs(predict_matrix(model, probe) - predict_matrix(clone, probe))) <= 1e-12
    assert ensemble_hash(model) == ensemble_hash(clone)
    assert clone == dataclasses.replace(model, trees=clone.trees)


def test_load_model_rejects_wrong_kind(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"kind":"other","schema_version":1}\n', encoding="utf-8")
    with pytest.raises(DataError):
        load_model(path)


# ---------------------------------------------------------------------------
# metrics and splits


def test_regression_metrics_hand_values():
    metrics = regression_metrics(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 5.0]))
    assert metrics.mae == pytest.approx(2.0 / 3.0)
    assert metrics.rmse == pytest.approx(np.sqrt(4.0 / 3.0))
    assert metrics.r2 == pytest.approx(1.0 - 4.0 / 2.0)


@given(seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_rmse_never_below_mae(seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=20)
    pred = rng.normal(size=20)
    metrics = regression_metrics(y, pred)
    assert metrics.rmse >= metrics.mae - 1e-12


def test_chronological_split_shapes():
    train, test = chronological_split(100, 0.2)
    assert len(train) == 80 and len(test) == 20
    assert train.max() < test.min()
    with pytest.raises(ConfigError):
        chronological_split(10, 1.5)


# ---------------------------------------------------------------------------
# out-of-bag expectations


def _commit_data(seed=0, noise_columns=0, n_commits=12, per_commit=8):
    """Rows of shuffled commits: a column naming each row's commit, then
    ``noise_columns`` random ones, and a target that is its own random
    constant for each commit. Commit names do not sort in first-row order."""
    rng = np.random.default_rng(seed)
    ids = rng.permutation(np.repeat(np.arange(n_commits), per_commit))
    X = np.column_stack([ids, rng.uniform(0, 10, size=(ids.size, noise_columns))])
    columns = ("commit",) + tuple(f"noise{j}" for j in range(noise_columns))
    matrix = FeatureMatrix(Vectorizer(columns, dict.fromkeys(columns, 0.0)), X)
    own = rng.uniform(1.0, 2.0, size=n_commits)[ids]
    return matrix, own, [f"h{n_commits - i:02d}" for i in ids]


def test_out_of_bag_expectations_never_come_from_the_rows_own_commit():
    matrix, own, groups = _commit_data()
    params = BaselineParams(n_trees=40, max_depth=12)
    in_sample = predict_matrix(train_baseline(matrix, own, params, seed=0), matrix.values)
    assert np.allclose(in_sample, own)  # the commit column gives each commit away
    expected, _ = out_of_bag_predictions(matrix, own, groups, params, seed=0)
    assert not np.any(np.isclose(expected, own))
    # a target that is 1 on one commit and 0 elsewhere: a tree that saw none
    # of that commit's tests can only give its rows 0.0
    for commit in sorted(set(groups))[:4]:
        mine = np.array([g == commit for g in groups])
        expected, _ = out_of_bag_predictions(matrix, mine.astype(float), groups, params, seed=1)
        assert np.all(expected[mine] == 0.0) and np.any(expected[~mine] > 0.0)


def test_out_of_bag_equals_a_per_row_loop_over_its_trees(monkeypatch):
    matrix, own, groups = _commit_data(seed=1, noise_columns=3)
    y = own + np.random.default_rng(2).normal(scale=0.1, size=own.size)
    params, seed = BaselineParams(n_trees=25, max_depth=6), 3
    grown = []

    def recording_grow_tree(*args, **kwargs):
        grown.append(trees_mod.grow_tree(*args, **kwargs))
        return grown[-1]

    monkeypatch.setattr("ranwatch.baseline.grow_tree", recording_grow_tree)
    expected, n_oob = out_of_bag_predictions(matrix, y, groups, params, seed)
    # commits numbered by first appearance; tree t draws them first from its own generator
    number = {g: i for i, g in enumerate(dict.fromkeys(groups))}
    drawn = [set(np.random.default_rng((seed, t)).integers(0, len(number), size=len(number)))
             for t in range(params.n_trees)]
    assert len(grown) == params.n_trees
    for i, group in enumerate(groups):
        acc, k = 0.0, 0
        for tree, in_bag in zip(grown, drawn):
            if number[group] not in in_bag:
                acc += tree.predict(matrix.values[i:i + 1])[0]
                k += 1
        assert n_oob[i] == k
        assert expected[i].tobytes() == np.float64(max(acc / k, 0.0)).tobytes()


def test_out_of_bag_reruns_are_identical():
    matrix, y, groups = _commit_data(seed=4, noise_columns=2)
    params = BaselineParams(n_trees=20)
    a, n_a = out_of_bag_predictions(matrix, y, groups, params, seed=5)
    b, n_b = out_of_bag_predictions(matrix, y, groups, params, seed=5)
    assert a.tobytes() == b.tobytes() and np.array_equal(n_a, n_b)


def test_out_of_bag_degenerate_inputs():
    matrix, y, groups = _commit_data()
    with pytest.raises(DataError, match="2 commits"):
        out_of_bag_predictions(matrix, y, ["one"] * len(groups), BaselineParams(), seed=0)
    with pytest.raises(ConfigError, match="^trees: "):
        out_of_bag_predictions(matrix, y, groups, BaselineParams(n_trees=1), seed=0)
