"""Environment-only throughput baseline.

A bagged ensemble of regression trees learns expected efficiency from
radio conditions and offered load alone. Commit features are excluded on
purpose: the model answers "what should this environment deliver", and
deviations from it are what the residual stage attributes to code.

Rows are assumed chronologically sorted. The held-out split is
forward-only: the model trains on the earliest rows and is scored on the
latest. Cross-fit folds are contiguous blocks in that order, but each
block is predicted by a model trained on the blocks on both sides of it,
so it does see the future; it never sees the rows it predicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import ConfigError, DataError
from .trees import Forest, Vectorizer, grow_tree, load_ensemble

MIN_TRAINING_ROWS = 50
MIN_FOLD_ROWS = 10


@dataclass(frozen=True)
class BaselineParams:
    n_trees: int = 100
    max_depth: int = 8
    min_samples_leaf: int = 1
    feature_fraction: float | None = None  # None = sqrt(d) per split

    def __post_init__(self) -> None:
        if self.n_trees < 1 or self.max_depth < 1 or self.min_samples_leaf < 1:
            raise ConfigError("tree hyperparameters must be positive")
        if self.feature_fraction is not None and not (0.0 < self.feature_fraction <= 1.0):
            raise ConfigError("feature fraction must be in (0, 1]")

    def candidate_features(self, n_columns: int) -> int:
        if self.feature_fraction is None:
            k = round(math.sqrt(n_columns))
        else:
            k = round(self.feature_fraction * n_columns)
        return max(1, min(n_columns, int(k)))


@dataclass(frozen=True)
class FeatureMatrix:
    vectorizer: Vectorizer
    values: np.ndarray  # (n, d) float, fully imputed


def build_feature_matrix(columns: tuple[str, ...], raw_rows: list[dict]) -> FeatureMatrix:
    """Stack row dicts into a dense matrix, median-imputing gaps.

    The fill values are computed here, and only here, and travel with the
    model in its vectorizer, so scoring fills the same gaps the same way
    the training data saw them. A column with no observed values at all
    imputes to 0.0.
    """
    if not raw_rows:
        raise DataError("no rows to build a feature matrix from")
    columns = tuple(columns)
    raw = Vectorizer(columns, dict.fromkeys(columns, math.nan)).transform(raw_rows)
    imputation: dict[str, float] = {}
    for j, col in enumerate(columns):
        observed = raw[:, j][~np.isnan(raw[:, j])]
        imputation[col] = float(np.median(observed)) if observed.size else 0.0
    vectorizer = Vectorizer(columns, imputation)
    return FeatureMatrix(vectorizer, vectorizer.transform(raw_rows))


@dataclass(frozen=True)
class BaselineModel:
    KIND: ClassVar[str] = "baseline_model"

    vectorizer: Vectorizer
    params: BaselineParams
    seed: int
    trees: Forest
    target_floor: float
    target_ceiling: float
    meta: dict = field(default_factory=dict)


def train_baseline(
    matrix: FeatureMatrix,
    y: np.ndarray,
    params: BaselineParams,
    seed: int,
) -> BaselineModel:
    y = np.asarray(y, dtype=float)
    n, d = matrix.values.shape
    if y.shape != (n,):
        raise DataError("target length does not match feature matrix")
    if n < MIN_TRAINING_ROWS:
        raise DataError(f"need at least {MIN_TRAINING_ROWS} rows to train, got {n}")
    if not np.all(np.isfinite(y)):
        raise DataError("target contains non-finite values")
    if float(np.var(y)) == 0.0:
        raise DataError("target is constant, nothing to learn")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    k = params.candidate_features(d)
    trees = []
    for t in range(params.n_trees):
        rng = np.random.default_rng((seed, t))
        rows = rng.integers(0, n, size=n)
        trees.append(
            grow_tree(
                matrix.values[rows],
                y[rows],
                max_depth=params.max_depth,
                min_samples_leaf=params.min_samples_leaf,
                n_candidate_features=k if k < d else None,
                rng=rng,
            )
        )
    return BaselineModel(
        vectorizer=matrix.vectorizer,
        params=params,
        seed=seed,
        trees=Forest.pack(trees),
        target_floor=float(np.min(y)),
        target_ceiling=float(np.max(y)),
        meta={"n_rows": n, "n_columns": d, "candidate_features": k},
    )


def predict_matrix(model: BaselineModel, X: np.ndarray) -> np.ndarray:
    """Ensemble mean, floored at zero.

    Each tree leaf is a mean of training targets, so raw predictions
    already sit inside the training range; the explicit floor only guards
    the degenerate all-negative-target case.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(model.vectorizer.columns):
        raise DataError("prediction input has wrong number of columns")
    leaves = model.trees.leaf_values(X)
    acc = np.zeros(X.shape[0], dtype=float)
    for j in range(leaves.shape[1]):  # in tree order; another order rounds differently
        acc += leaves[:, j]
    return np.maximum(acc / len(model.trees), 0.0)


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class RegressionMetrics:
    r2: float
    mae: float
    rmse: float
    n: int


def regression_metrics(y_true: np.ndarray, y_pred: np.ndarray) -> RegressionMetrics:
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape or y_true.ndim != 1 or y_true.size == 0:
        raise DataError("metric inputs must be equal-length non-empty vectors")
    resid = y_true - y_pred
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    mae = float(np.mean(np.abs(resid)))
    rmse = float(math.sqrt(np.mean(resid**2)))
    return RegressionMetrics(r2=r2, mae=mae, rmse=rmse, n=y_true.size)


def chronological_split(n: int, test_fraction: float = 0.2) -> tuple[np.ndarray, np.ndarray]:
    """Earliest rows train, latest rows test. Assumes sorted input."""
    if not (0.0 < test_fraction < 1.0):
        raise ConfigError("test fraction must be in (0, 1)")
    cut = int(round(n * (1.0 - test_fraction)))
    cut = min(max(cut, 1), n - 1)
    return np.arange(0, cut), np.arange(cut, n)


def cross_fit_predictions(
    matrix: FeatureMatrix,
    y: np.ndarray,
    params: BaselineParams,
    seed: int,
    k_folds: int = 5,
) -> np.ndarray:
    """Out-of-fold prediction for every row.

    Folds are contiguous chronological blocks; each block is predicted by
    a model trained on all the other blocks, so no row's expected value
    comes from a model that saw that row.
    """
    y = np.asarray(y, dtype=float)
    n = matrix.values.shape[0]
    if k_folds < 2:
        raise ConfigError("cross fitting needs at least 2 folds")
    bounds = [round(i * n / k_folds) for i in range(k_folds + 1)]
    sizes = [bounds[i + 1] - bounds[i] for i in range(k_folds)]
    if min(sizes) < MIN_FOLD_ROWS:
        raise DataError(
            f"fold of {min(sizes)} rows is below the minimum of {MIN_FOLD_ROWS}"
        )
    out = np.empty(n, dtype=float)
    for i in range(k_folds):
        lo, hi = bounds[i], bounds[i + 1]
        train_idx = np.concatenate([np.arange(0, lo), np.arange(hi, n)])
        train_matrix = FeatureMatrix(matrix.vectorizer, matrix.values[train_idx])
        model = train_baseline(train_matrix, y[train_idx], params, seed)
        out[lo:hi] = predict_matrix(model, matrix.values[lo:hi])
    return out


# ---------------------------------------------------------------------------
# persistence (the file layout lives in trees.ensemble_record)


def load_model(path: str | Path) -> BaselineModel:
    return load_ensemble(path, BaselineModel)
