"""Commit risk classifier.

Predicts whether a commit will degrade throughput, from commit features
plus the environment snapshot of the tests that ran against it. Two
pieces live here: minority oversampling by interpolation between nearest
neighbors, which balances the classes 1:1, and a small gradient-boosted
tree classifier that weighs every row equally. Synthetic rows are flagged
so evaluation can exclude them; metrics computed on invented data are not
metrics. ``train_on_rows`` builds the training set from analysis rows and
their labels: the environment columns of ``baseline.env_matrix``, then the
commit features, whose binary ones are named in ``BINARY_FEATURE_NAMES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import ClassVar, Sequence

import numpy as np

from .assemble import AnalysisRow
from .baseline import chronological_split, env_matrix
from .commitcat import BINARY_FEATURE_NAMES, FEATURE_NAMES, CommitFeatures
from .errors import ConfigError, DataError
from .residual import DegradationLabel
from .trees import Forest, Vectorizer, grow_tree, load_ensemble

_LEAF_HESSIAN_FLOOR = 1e-6


@dataclass(frozen=True)
class RiskParams:
    n_estimators: int = 400
    max_depth: int = 4
    learning_rate: float = 0.1
    min_samples_leaf: int = 5
    smote_k: int = 5

    def __post_init__(self) -> None:
        if self.n_estimators < 1 or self.max_depth < 1 or self.min_samples_leaf < 1:
            raise ConfigError("boosting hyperparameters must be positive")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ConfigError("learning rate must be in (0, 1]")
        if self.smote_k < 1:
            raise ConfigError("smote_k must be >= 1")


# ---------------------------------------------------------------------------
# oversampling


def smote_oversample(
    x_minority: np.ndarray,
    n_new: int,
    k_neighbors: int,
    seed: int,
    binary_slots: tuple[int, ...] = (),
) -> np.ndarray:
    """Synthesize minority rows on segments between nearest neighbors.

    Neighbor search runs in per-column standardized space so large-scale
    features do not dominate the distance; the interpolation itself
    happens in raw feature space, x + u * (neighbor - x) with u ~ U[0,1].
    Binary columns are snapped back afterwards: > 0.5 rounds to 1, an
    exact tie rounds to 0.
    """
    x_minority = np.asarray(x_minority, dtype=float)
    if x_minority.ndim != 2:
        raise DataError("minority matrix must be 2-dimensional")
    n_min = x_minority.shape[0]
    if n_min <= k_neighbors:
        raise DataError(
            f"need more than {k_neighbors} minority rows for {k_neighbors} neighbors, got {n_min}"
        )
    if n_new < 0:
        raise DataError("cannot synthesize a negative number of rows")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    if n_new == 0:
        return np.empty((0, x_minority.shape[1]), dtype=float)

    mu = x_minority.mean(axis=0)
    sd = x_minority.std(axis=0)
    sd[sd == 0.0] = 1.0
    z = (x_minority - mu) / sd
    # pairwise distances once; minority sets are small by definition
    diff = z[:, None, :] - z[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    # stable argsort so neighbor identity is deterministic under ties
    neighbor_table = np.argsort(dist, axis=1, kind="stable")[:, :k_neighbors]

    rng = np.random.default_rng(seed)
    out = np.empty((n_new, x_minority.shape[1]), dtype=float)
    for s in range(n_new):
        i = int(rng.integers(0, n_min))
        j = int(neighbor_table[i, int(rng.integers(0, k_neighbors))])
        u = float(rng.uniform(0.0, 1.0))
        out[s] = x_minority[i] + u * (x_minority[j] - x_minority[i])
    for slot in binary_slots:
        col = out[:, slot]
        out[:, slot] = np.where(col > 0.5, 1.0, 0.0)
    return out


def balance_training_set(
    X: np.ndarray,
    y: np.ndarray,
    params: RiskParams,
    seed: int,
    binary_slots: tuple[int, ...] = (),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Oversample the minority class to a 1:1 ratio.

    Returns (X, y, synthetic) where synthetic flags the invented rows.
    Synthetic rows are appended after all real rows.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if set(np.unique(y)) - {0, 1}:
        raise DataError("labels must be binary 0/1")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise DataError("both classes must be present to balance")
    if n_pos == n_neg:
        return X, y, np.zeros(len(y), dtype=bool)
    minority_label = 1 if n_pos < n_neg else 0
    minority = X[y == minority_label]
    n_new = abs(n_neg - n_pos)
    synth = smote_oversample(minority, n_new, params.smote_k, seed, binary_slots)
    X_bal = np.vstack([X, synth])
    y_bal = np.concatenate([y, np.full(n_new, minority_label, dtype=int)])
    flags = np.concatenate([np.zeros(len(y), dtype=bool), np.ones(n_new, dtype=bool)])
    return X_bal, y_bal, flags


# ---------------------------------------------------------------------------
# boosted classifier


@dataclass(frozen=True)
class RiskModel:
    KIND: ClassVar[str] = "risk_model"

    vectorizer: Vectorizer
    params: RiskParams
    seed: int
    f0: float
    trees: Forest
    meta: dict = field(default_factory=dict)


def _sigmoid(f: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(f, -36.0, 36.0)))


def train_risk(
    X: np.ndarray,
    y: np.ndarray,
    params: RiskParams,
    seed: int,
    vectorizer: Vectorizer,
) -> RiskModel:
    """Boost log-odds with second-order leaf values.

    Each round fits a tree to the gradient and then replaces its leaf
    outputs with sum(gradient) / sum(hessian) over the rows landing in the
    leaf. No row or feature subsampling: given the same inputs the model
    is bit-for-bit reproducible.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DataError("feature matrix and labels do not align")
    labels = set(np.unique(y))
    if labels - {0, 1}:
        raise DataError("labels must be binary 0/1")
    if labels != {0, 1}:
        raise DataError("both classes must be present to train")
    if len(vectorizer.columns) != X.shape[1]:
        raise DataError("column names do not match feature matrix width")

    f0 = math.log(np.sum(y == 1) / np.sum(y == 0))
    f = np.full(len(y), f0, dtype=float)
    trees = []
    for _ in range(params.n_estimators):
        p = _sigmoid(f)
        g = y - p
        h = p * (1.0 - p)
        tree = grow_tree(
            X,
            g,
            max_depth=params.max_depth,
            min_samples_leaf=params.min_samples_leaf,
        )
        leaf_ids = tree.leaf_indices(X)
        n_nodes = len(tree.value)
        sum_g = np.bincount(leaf_ids, weights=g, minlength=n_nodes)
        sum_h = np.bincount(leaf_ids, weights=h, minlength=n_nodes)
        gamma = sum_g / np.maximum(sum_h, _LEAF_HESSIAN_FLOOR)
        touched = np.bincount(leaf_ids, minlength=n_nodes) > 0
        tree.value[touched] = gamma[touched]
        f = f + params.learning_rate * tree.value[leaf_ids]
        trees.append(tree)
    return RiskModel(
        vectorizer=vectorizer,
        params=params,
        seed=seed,
        f0=f0,
        trees=Forest.pack(trees),
        meta={"n_rows": len(y), "n_positive": int(np.sum(y == 1))},
    )


def decision_function(model: RiskModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(model.vectorizer.columns):
        raise DataError("prediction input has wrong number of columns")
    # summed over the first axis of leaf_values' (n_trees, n_rows) block, in
    # tree order as a tree-by-tree sum; another order rounds differently
    block = model.trees.leaf_values(X).T
    return np.add.reduce(model.params.learning_rate * block, axis=0, initial=model.f0)


def predict_proba(model: RiskModel, X: np.ndarray) -> np.ndarray:
    return _sigmoid(decision_function(model, X))


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class ClassReport:
    precision: float | None
    recall: float | None
    f1: float | None
    support: int


@dataclass(frozen=True)
class ClassifierMetrics:
    positive: ClassReport
    negative: ClassReport
    accuracy: float
    confusion: dict[str, int]  # tp, fp, fn, tn (positive = degraded = 1)
    auc: float | None = None  # set by evaluate_classifier when both classes are present


def _report(tp: int, fp: int, fn: int) -> ClassReport:
    precision = tp / (tp + fp) if (tp + fp) > 0 else None
    recall = tp / (tp + fn) if (tp + fn) > 0 else None
    if precision is None or recall is None or (precision + recall) == 0:
        f1 = None
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return ClassReport(precision=precision, recall=recall, f1=f1, support=tp + fn)


def metrics_from_predictions(y_true: np.ndarray, y_pred: np.ndarray) -> ClassifierMetrics:
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    if y_true.shape != y_pred.shape or y_true.size == 0:
        raise DataError("prediction vectors must be equal-length and non-empty")
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))
    return ClassifierMetrics(
        positive=_report(tp, fp, fn),
        negative=_report(tn, fn, fp),
        accuracy=(tp + tn) / y_true.size,
        confusion={"tp": tp, "fp": fp, "fn": fn, "tn": tn},
    )


def evaluate_classifier(model: RiskModel, X: np.ndarray, y: np.ndarray) -> ClassifierMetrics:
    """Metrics of the model's calls at a probability of 0.5, and its AUC
    when ``y`` holds both classes."""
    proba, y = predict_proba(model, np.asarray(X, float)), np.asarray(y, int)
    metrics = metrics_from_predictions(y, (proba >= 0.5).astype(int))
    return replace(metrics, auc=roc_auc(y, proba)) if len(set(y.tolist())) == 2 else metrics


def roc_auc(y_true: np.ndarray, scores: np.ndarray) -> float:
    """Rank statistic: probability a positive outscores a negative.

    Ties get average ranks, so a constant score gives exactly 0.5.
    """
    y_true = np.asarray(y_true, dtype=int)
    scores = np.asarray(scores, dtype=float)
    n_pos = int(np.sum(y_true == 1))
    n_neg = int(np.sum(y_true == 0))
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC needs both classes present")
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores), dtype=float)
    ranks[order] = np.arange(1, len(scores) + 1, dtype=float)
    # average ranks within tied groups
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = 0.5 * (i + 1 + j + 1)
        i = j + 1
    rank_sum_pos = float(np.sum(ranks[y_true == 1]))
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


# ---------------------------------------------------------------------------
# the stages' row-level steps


def train_on_rows(
    rows: Sequence[AnalysisRow], labels: Sequence[DegradationLabel], params: RiskParams,
    seed: int, test_fraction: float,
) -> tuple[RiskModel, ClassifierMetrics, int]:
    """A model of which tests ``labels`` call degraded, trained on the
    earliest rows balanced by oversampling, its metrics on the latest
    ``test_fraction`` of them, and how many rows it was trained on."""
    degraded = {(label.day, label.time): label.degraded for label in labels}
    unlabeled = [row for row in rows if (row.day, row.time) not in degraded]
    if unlabeled:
        raise DataError(f"no label for test {unlabeled[0].day}/{unlabeled[0].time}")
    y = np.array([degraded[row.day, row.time] for row in rows], dtype=int)
    train_idx, test_idx = chronological_split(len(rows), test_fraction)
    matrix = env_matrix([rows[i] for i in train_idx], FEATURE_NAMES)
    binary = tuple(matrix.vectorizer.columns.index(name) for name in BINARY_FEATURE_NAMES)
    X, y_bal, synthetic = balance_training_set(matrix.values, y[train_idx], params, seed, binary)
    model = train_risk(X, y_bal, params, seed, matrix.vectorizer)
    model.meta["n_synthetic"] = int(synthetic.sum())
    X_test = model.vectorizer.transform([{**rows[i].env, **rows[i].commit} for i in test_idx])
    return model, evaluate_classifier(model, X_test, y[test_idx]), len(train_idx)


def score_commits(
    model: RiskModel, features: Sequence[CommitFeatures], threshold: float
) -> list[tuple[str, float, bool]]:
    """Each commit's risk, and whether it reaches ``threshold``, riskiest
    first. Environment columns, absent here, take their fill values."""
    proba = predict_proba(model, model.vectorizer.transform([f.as_dict() for f in features]))
    scored = [(f.commit_hash, p, p >= threshold) for f, p in zip(features, proba.tolist())]
    return sorted(scored, key=lambda r: (-r[1], r[0]))


# ---------------------------------------------------------------------------
# persistence (the file layout lives in trees.ensemble_record)


def load_model(path: str | Path) -> RiskModel:
    return load_ensemble(path, RiskModel)
