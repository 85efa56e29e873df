"""Minority oversampling, the boosted risk classifier, and its metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranwatch.errors import ConfigError, DataError
from ranwatch.risk import (
    RiskParams,
    balance_training_set,
    evaluate_classifier,
    load_model,
    metrics_from_predictions,
    predict_proba,
    roc_auc,
    smote_oversample,
    train_risk,
)
from ranwatch.trees import Vectorizer, ensemble_hash, save_ensemble


# ---------------------------------------------------------------------------
# oversampling


def test_smote_points_sit_between_neighbours():
    # Two minority points, k=1: every synthetic sample must land on the
    # segment joining them, i.e. both coordinates share one interpolation u.
    minority = np.array([[0.0, 0.0], [1.0, 1.0]])
    synth = smote_oversample(minority, n_new=12, k_neighbors=1, seed=3)
    assert synth.shape == (12, 2)
    for row in synth:
        assert row[0] == pytest.approx(row[1], abs=1e-9)
        assert -1e-9 <= row[0] <= 1.0 + 1e-9


def test_smote_interpolates_within_bounding_box():
    rng = np.random.default_rng(11)
    minority = rng.normal(size=(8, 3))
    synth = smote_oversample(minority, n_new=40, k_neighbors=3, seed=1)
    lo = minority.min(axis=0) - 1e-9
    hi = minority.max(axis=0) + 1e-9
    assert np.all(synth >= lo) and np.all(synth <= hi)


def test_smote_binary_slots_snap_to_zero_or_one():
    minority = np.array([[0.0, 0.2], [1.0, 0.9], [1.0, 0.4]])
    synth = smote_oversample(minority, n_new=30, k_neighbors=2, seed=2, binary_slots=(0,))
    assert set(np.unique(synth[:, 0])).issubset({0.0, 1.0})
    # exactly 0.5 rounds down, above 0.5 rounds up
    assert np.where(np.array([0.5, 0.5001]) > 0.5, 1.0, 0.0).tolist() == [0.0, 1.0]


def test_smote_needs_more_points_than_neighbours():
    minority = np.array([[0.0], [1.0], [2.0]])
    with pytest.raises(DataError):
        smote_oversample(minority, n_new=5, k_neighbors=3, seed=0)
    with pytest.raises(DataError):
        smote_oversample(minority, n_new=5, k_neighbors=5, seed=0)


def test_smote_deterministic():
    rng = np.random.default_rng(4)
    minority = rng.normal(size=(10, 4))
    a = smote_oversample(minority, n_new=20, k_neighbors=5, seed=9)
    b = smote_oversample(minority, n_new=20, k_neighbors=5, seed=9)
    assert np.array_equal(a, b)


def _imbalanced(n_major=60, n_minor=12, seed=0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(loc=0.0, size=(n_major, 3))
    X1 = rng.normal(loc=3.0, size=(n_minor, 3))
    X = np.vstack([X0, X1])
    y = np.array([0] * n_major + [1] * n_minor)
    return X, y


ABC = Vectorizer(("a", "b", "c"), {"a": 0.0, "b": 1.0, "c": 2.0})


def test_balance_reaches_one_to_one():
    X, y = _imbalanced()
    Xb, yb, synthetic = balance_training_set(X, y, RiskParams(), seed=0)
    assert int(yb.sum()) == int((yb == 0).sum())
    assert synthetic.sum() == 60 - 12
    assert not synthetic[: len(y)].any()


def test_balance_noop_when_classes_even():
    X, y = _imbalanced(n_major=20, n_minor=20)
    Xb, yb, synthetic = balance_training_set(X, y, RiskParams(), seed=0)
    assert Xb.shape == X.shape
    assert not synthetic.any()


# ---------------------------------------------------------------------------
# classifier


def test_classifier_separates_obvious_clusters():
    X, y = _imbalanced(n_major=80, n_minor=40, seed=2)
    params = RiskParams(n_estimators=60)
    model = train_risk(X, y, params, 0, ABC)
    proba = predict_proba(model, X)
    assert roc_auc(y, proba) > 0.99
    metrics = evaluate_classifier(model, X, y)
    assert metrics.accuracy > 0.95


def test_classifier_training_is_deterministic():
    X, y = _imbalanced(seed=3)
    params = RiskParams(n_estimators=25)
    a = train_risk(X, y, params, 1, ABC)
    b = train_risk(X, y, params, 1, ABC)
    assert ensemble_hash(a) == ensemble_hash(b)
    assert np.array_equal(predict_proba(a, X), predict_proba(b, X))


def test_classifier_rejects_degenerate_labels():
    X, y = _imbalanced()
    with pytest.raises(DataError):
        train_risk(X, np.zeros_like(y), RiskParams(n_estimators=5), 0, ABC)
    with pytest.raises(DataError):
        train_risk(X, np.full_like(y, 2), RiskParams(n_estimators=5), 0, ABC)
    with pytest.raises(DataError):
        train_risk(X[:, :2], y, RiskParams(n_estimators=5), 0, ABC)
    with pytest.raises(ConfigError):
        RiskParams(learning_rate=0.0)


def test_classifier_save_load_round_trip(tmp_path):
    X, y = _imbalanced(seed=5)
    model = train_risk(X, y, RiskParams(n_estimators=15), 2, ABC)
    path = tmp_path / "risk.json"
    save_ensemble(model, path)
    clone = load_model(path)
    assert clone.vectorizer == ABC
    assert np.max(np.abs(predict_proba(model, X) - predict_proba(clone, X))) <= 1e-12
    assert ensemble_hash(model) == ensemble_hash(clone)
    rows = [{"a": X[0, 0], "b": X[0, 1], "c": X[0, 2]}, {"a": X[1, 0], "c": None}]
    expected = np.array([X[0], [X[1, 0], 1.0, 2.0]])
    assert np.array_equal(
        predict_proba(clone, clone.vectorizer.transform(rows)), predict_proba(model, expected)
    )


# ---------------------------------------------------------------------------
# metrics


def test_confusion_and_per_class_report_hand_case():
    y = np.array([1, 1, 1, 0, 0, 0, 0, 1])
    pred = np.array([1, 0, 1, 0, 0, 1, 0, 1])
    metrics = metrics_from_predictions(y, pred)
    assert metrics.confusion == {"tp": 3, "fp": 1, "fn": 1, "tn": 3}
    assert metrics.positive.precision == pytest.approx(3 / 4)
    assert metrics.positive.recall == pytest.approx(3 / 4)
    assert metrics.positive.f1 == pytest.approx(3 / 4)
    assert metrics.negative.recall == pytest.approx(3 / 4)
    assert metrics.accuracy == pytest.approx(6 / 8)
    assert metrics.positive.support == 4 and metrics.negative.support == 4


def test_empty_class_reports_none_not_zero():
    y = np.array([0, 0, 0])
    pred = np.array([0, 0, 0])
    metrics = metrics_from_predictions(y, pred)
    assert metrics.positive.precision is None
    assert metrics.positive.recall is None
    assert metrics.positive.f1 is None
    assert metrics.positive.support == 0
    assert metrics.negative.recall == pytest.approx(1.0)


def test_roc_auc_hand_case_and_ties():
    y = np.array([0, 0, 1, 1])
    assert roc_auc(y, np.array([0.1, 0.4, 0.35, 0.8])) == pytest.approx(0.75)
    assert roc_auc(y, np.array([0.5, 0.5, 0.5, 0.5])) == pytest.approx(0.5)
    assert roc_auc(y, np.array([0.1, 0.2, 0.3, 0.4])) == pytest.approx(1.0)
    with pytest.raises(DataError):
        roc_auc(np.array([1, 1, 1]), np.array([0.1, 0.2, 0.3]))


@given(seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_roc_auc_flipping_scores_mirrors_around_half(seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=30)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    scores = rng.normal(size=30)
    assert roc_auc(y, scores) + roc_auc(y, -scores) == pytest.approx(1.0)
