"""Environment-only throughput baseline.

A bagged ensemble of regression trees learns expected efficiency from
radio conditions and offered load alone. Commit features are excluded on
purpose: the model answers "what should this environment deliver", and
deviations from it are what the residual stage attributes to code.

Rows are assumed chronologically sorted. ``train_baseline`` bootstraps
rows, and its held-out split is forward-only: the model trains on the
earliest rows and is scored on the latest. ``out_of_bag_predictions``
bootstraps whole commits instead and gives each row the mean of the trees
whose sample left its commit out, so no row's expectation comes from a
tree that saw any test of its commit. Those trees did see tests from both
before and after it.

``env_matrix`` is the one reader of the environment columns outside
``assemble``: this model takes them alone, the risk model followed by the
commit features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, ClassVar, Sequence

import numpy as np

from .assemble import ENV_FEATURES, AnalysisRow
from .errors import ConfigError, DataError
from .trees import Forest, Tree, Vectorizer, grow_tree, load_ensemble

MIN_TRAINING_ROWS = 50


@dataclass(frozen=True)
class BaselineParams:
    n_trees: int = 100
    max_depth: int = 8

    def __post_init__(self) -> None:
        if self.n_trees < 1 or self.max_depth < 1:
            raise ConfigError("tree hyperparameters must be positive")

    def candidate_features(self, n_columns: int) -> int:
        """Features each split draws from: sqrt(d), rounded, at least one."""
        return max(1, min(n_columns, round(math.sqrt(n_columns))))


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


def env_matrix(rows: Sequence[AnalysisRow], commit_columns: tuple[str, ...] = ()) -> FeatureMatrix:
    """The rows' environment columns, then ``commit_columns`` of their commit features."""
    return build_feature_matrix(ENV_FEATURES + commit_columns,
                                [{**row.env, **row.commit} for row in rows])


def _efficiency(rows: Sequence[AnalysisRow]) -> np.ndarray:
    return np.array([row.efficiency for row in rows], dtype=float)


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


def _grow_bagged(
    matrix: FeatureMatrix,
    y: np.ndarray,
    params: BaselineParams,
    seed: int,
    draw: Callable[[np.random.Generator], np.ndarray],
) -> list[tuple[np.ndarray, Tree]]:
    """``params.n_trees`` (rows, tree) pairs. Tree ``t`` grows on the rows
    ``draw(rng)`` picks, with ``rng = np.random.default_rng((seed, t))``, and
    then draws its split candidates from that same ``rng``."""
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
    bagged = []
    for t in range(params.n_trees):
        rng = np.random.default_rng((seed, t))
        rows = draw(rng)
        tree = grow_tree(
            matrix.values[rows],
            y[rows],
            max_depth=params.max_depth,
            n_candidate_features=k if k < d else None,
            rng=rng,
        )
        bagged.append((rows, tree))
    return bagged


def train_baseline(
    matrix: FeatureMatrix,
    y: np.ndarray,
    params: BaselineParams,
    seed: int,
) -> BaselineModel:
    y = np.asarray(y, dtype=float)
    n, d = matrix.values.shape
    bagged = _grow_bagged(matrix, y, params, seed, lambda rng: rng.integers(0, n, size=n))
    return BaselineModel(
        vectorizer=matrix.vectorizer,
        params=params,
        seed=seed,
        trees=Forest.pack([tree for _, tree in bagged]),
        target_floor=float(np.min(y)),
        target_ceiling=float(np.max(y)),
        meta={"n_rows": n, "n_columns": d, "candidate_features": params.candidate_features(d)},
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
    # summed over the first axis of leaf_values' (n_trees, n_rows) block, in
    # tree order as a tree-by-tree sum; another order rounds differently
    return np.maximum(model.trees.leaf_values(X).T.sum(axis=0) / len(model.trees), 0.0)


def predict_rows(model: BaselineModel, rows: Sequence[AnalysisRow]) -> np.ndarray:
    """The model's expected efficiency of each row, from its environment."""
    return predict_matrix(model, model.vectorizer.transform([row.env for row in rows]))


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


def out_of_bag_predictions(
    matrix: FeatureMatrix,
    y: np.ndarray,
    groups: Sequence[str],
    params: BaselineParams,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's expectation from the trees that never saw its commit.

    ``groups`` names each row's commit. Commits are numbered in the order
    they first appear; each tree grows on the rows of that many commits,
    drawn with replacement. Returns each row's mean leaf value over the
    trees whose draw left its commit out, floored at zero as
    ``predict_matrix`` does, and the number of those trees.
    """
    y = np.asarray(y, dtype=float)
    numbers: dict[str, int] = {}
    codes = np.array([numbers.setdefault(g, len(numbers)) for g in groups], dtype=np.int64)
    if codes.shape != y.shape:
        raise DataError("commit list length does not match the target")
    n_commits = len(numbers)
    if n_commits < 2:
        raise DataError(f"out-of-bag expectations need at least 2 commits, got {n_commits}")

    def draw(rng: np.random.Generator) -> np.ndarray:  # each drawn commit's rows, once a draw
        drawn = np.bincount(rng.integers(0, n_commits, size=n_commits), minlength=n_commits)
        return np.repeat(np.arange(codes.size), drawn[codes])

    bagged = _grow_bagged(matrix, y, params, seed, draw)
    in_bag = np.zeros((n_commits, len(bagged)), dtype=bool)
    for j, (rows, _) in enumerate(bagged):
        in_bag[codes[rows], j] = True
    oob = ~in_bag[codes]
    n_oob = oob.sum(axis=1)
    if n_oob.min() == 0:
        raise ConfigError(f"trees: {params.n_trees} trees leave {int(np.sum(n_oob == 0))} "
                          "rows with no out-of-bag tree; use more trees")
    block = Forest.pack([tree for _, tree in bagged]).leaf_values(matrix.values).T
    # a tree that saw the row's commit adds 0.0, which leaves the sum's bits as they were
    return np.maximum(np.where(oob.T, block, 0.0).sum(axis=0) / n_oob, 0.0), n_oob


def train_on_rows(
    rows: Sequence[AnalysisRow], params: BaselineParams, seed: int, test_fraction: float
) -> tuple[BaselineModel, dict[str, RegressionMetrics]]:
    """A model of the earliest rows, and its held-out metrics on the latest
    ``test_fraction`` of them, in efficiency and in Mbps."""
    train_idx, test_idx = chronological_split(len(rows), test_fraction)
    train, test = [rows[i] for i in train_idx], [rows[i] for i in test_idx]
    model = train_baseline(env_matrix(train), _efficiency(train), params, seed)
    y, pred = _efficiency(test), predict_rows(model, test)
    rates = np.array([row.target_rate for row in test], dtype=float)
    return model, {"efficiency": regression_metrics(y, pred),
                   "mbps": regression_metrics(y * rates, pred * rates)}


def with_expectations(rows: Sequence[AnalysisRow], expected: np.ndarray) -> list[AnalysisRow]:
    """Copies of the rows with ``expected`` as their expected efficiency."""
    return [replace(row, expected_efficiency=float(e)) for row, e in zip(rows, expected)]


@dataclass(frozen=True)
class OutOfBagFit:
    fit: RegressionMetrics  # of the expectations to the measured efficiency
    min_trees: int  # the fewest out-of-bag trees behind a row's expectation
    median_trees: float  # and their median over the rows


def out_of_bag_rows(
    rows: Sequence[AnalysisRow], params: BaselineParams, seed: int
) -> tuple[list[AnalysisRow], OutOfBagFit]:
    """The rows with out-of-bag expected efficiency filled in, and its fit."""
    y = _efficiency(rows)
    expected, n_oob = out_of_bag_predictions(
        env_matrix(rows), y, [row.commit_hash for row in rows], params, seed
    )
    fit = OutOfBagFit(regression_metrics(y, expected), int(n_oob.min()), float(np.median(n_oob)))
    return with_expectations(rows, expected), fit


# ---------------------------------------------------------------------------
# persistence (the file layout lives in trees.ensemble_record)


def load_model(path: str | Path) -> BaselineModel:
    return load_ensemble(path, BaselineModel)
