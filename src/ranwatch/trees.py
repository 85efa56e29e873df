"""Deterministic regression trees shared by the forest and boosting models.

Trees are grown by exhaustive variance-reduction split search with stable
tie-breaking (first feature in candidate order, then lowest threshold), so
the same data, hyperparameters, and seed always produce the same tree.
A ``Tree`` stores its nodes as flat parallel arrays; boosting walks one
tree at a time while it learns leaf values.

A trained model holds all its trees in one ``Forest``: the same five node
arrays over every node of every tree, with global child indices. Prediction
walks all (row, tree) pairs together, one depth level per numpy step, and a
model file stores each array as base64 of its little-endian bytes, so
reading a model is one decode per array.

Both tree-ensemble models (the environment baseline and the commit risk
classifier) also share two pieces kept here: the ``Vectorizer`` that turns
row dicts into a model's input matrix with its fill values, and the
ensemble codec that writes, reads back, validates, and hashes a model file.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, RanwatchError
from .store import SCHEMA_VERSION, decode, dumps_record


@dataclass(frozen=True)
class Vectorizer:
    """Column order and fill values of a model's input.

    ``transform`` is the one place rows become a matrix: a value that is
    None, NaN, or absent takes its column's fill value.
    """

    columns: tuple[str, ...]
    imputation: dict[str, float]

    def __post_init__(self) -> None:
        if not self.imputation.keys() >= set(self.columns):
            raise ValueError("every column needs a fill value")

    def transform(self, rows: Sequence[dict]) -> np.ndarray:
        out = np.empty((len(rows), len(self.columns)), dtype=float)
        try:
            for j, col in enumerate(self.columns):
                out[:, j] = [math.nan if (v := row.get(col)) is None else v for row in rows]
        except (TypeError, ValueError) as exc:
            raise DataError(f"non-numeric value in column {col}: {exc}") from exc
        fills = np.array([self.imputation[col] for col in self.columns], dtype=float)
        return np.where(np.isnan(out), fills, out)


@dataclass
class Tree:
    feature: np.ndarray  # int, -1 marks a leaf
    threshold: np.ndarray  # float, split point (values <= go left)
    left: np.ndarray  # int child index, self at leaves
    right: np.ndarray
    value: np.ndarray  # float, node prediction (leaf values are used)

    def leaf_indices(self, X: np.ndarray) -> np.ndarray:
        idx = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            feat = self.feature[idx]
            active = np.nonzero(feat >= 0)[0]
            if active.size == 0:
                return idx
            node = idx[active]
            go_left = X[active, self.feature[node]] <= self.threshold[node]
            idx[active] = np.where(go_left, self.left[node], self.right[node])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.value[self.leaf_indices(X)]


# the little-endian item type of each node array in a model file
_NODE_DTYPES = {"feature": "<i4", "threshold": "<f8", "left": "<i4", "right": "<i4", "value": "<f8"}
_PAIRS_PER_BLOCK = 1 << 18  # (row, tree) pairs walked at once, to bound memory


@dataclass(frozen=True, eq=False)
class Forest:
    """All trees of an ensemble in one set of node arrays.

    The trees follow one another, ``sizes`` nodes each, in the order the
    model sums them; child indices are global. Index arrays are ``np.intp``
    in memory, which numpy indexes with as they are.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        """Reject, with ValueError, a forest that prediction could not walk.

        A child comes after its parent and inside its tree, and a leaf's
        children are the leaf itself, as ``grow_tree`` numbers them, so every
        walk from a root ends at a leaf and stays there.
        """
        for name, dtype in _NODE_DTYPES.items():
            kind = float if dtype == "<f8" else np.intp
            object.__setattr__(self, name, np.asarray(getattr(self, name)).astype(kind, copy=False))
        n_nodes = sum(self.sizes)
        if not self.sizes or min(self.sizes) < 1:
            raise ValueError("a forest needs trees of at least one node")
        if any(getattr(self, name).shape != (n_nodes,) for name in _NODE_DTYPES):
            raise ValueError("forest node arrays must match the tree sizes in length")
        # a split's children lie in [node + 1, end of its tree); a leaf's are itself
        node, split = np.arange(n_nodes), self.feature >= 0
        lo = np.where(split, node + 1, node)
        hi = np.where(split, np.repeat(np.cumsum(self.sizes), self.sizes), node + 1)
        if self.feature.min() < -1 or np.any(
            (self.left < lo) | (self.right < lo) | (self.left >= hi) | (self.right >= hi)
        ):
            raise ValueError("tree nodes point outside their tree")
        object.__setattr__(self, "_roots", np.cumsum(self.sizes) - self.sizes)
        # node i steps to _children[i + n_nodes * go_left]
        object.__setattr__(self, "_children", np.concatenate([self.right, self.left]))

    @classmethod
    def pack(cls, trees: Sequence[Tree]) -> "Forest":
        sizes = tuple(len(tree.value) for tree in trees)
        offsets = np.cumsum(sizes) - sizes
        return cls(**{
            name: np.concatenate([getattr(tree, name) + (off if name in ("left", "right") else 0)
                                  for tree, off in zip(trees, offsets)])
            for name in _NODE_DTYPES
        }, sizes=sizes)

    def __len__(self) -> int:
        return len(self.sizes)

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """The leaf value each tree gives each row, as (n_rows, n_trees).

        All (row, tree) pairs walk down together, one depth level per numpy
        step, until all are at leaves, whose children are themselves:
        stepping every pair measured faster than tracking the ones still at
        split nodes. Values equal to a threshold go left and NaN goes right,
        as in ``Tree.leaf_indices``. Each column is contiguous, so summing
        the columns in tree order reproduces a tree-by-tree sum bit for bit.
        """
        n_trees = len(self.sizes)
        out = np.empty((n_trees, X.shape[0]))
        block = max(1, _PAIRS_PER_BLOCK // n_trees)
        for lo in range(0, X.shape[0], block):
            cells = np.ascontiguousarray(X[lo:lo + block])
            n, d = cells.shape
            offset = np.tile(np.arange(n) * d, n_trees)  # pair (row i, tree j) sits at j * n + i
            node = np.repeat(self._roots, n)
            while (feature := self.feature[node]).max() >= 0:
                # a pair at a leaf reads any cell (feature -1); both its children are the leaf
                go_left = cells.ravel()[offset + feature] <= self.threshold[node]
                node = self._children[node + self.value.size * go_left]
            out[:, lo:lo + block] = self.value[node].reshape(n_trees, n)
        return out.T

    def encode(self) -> dict:
        return {"sizes": list(self.sizes), **{
            name: base64.b64encode(getattr(self, name).astype(dtype).tobytes()).decode("ascii")
            for name, dtype in _NODE_DTYPES.items()
        }}

    @classmethod
    def decode(cls, data: dict, n_columns: int) -> "Forest":
        """Read ``encode``'s output back; ValueError or TypeError if malformed."""
        forest = cls(**{
            name: np.frombuffer(base64.b64decode(data[name], validate=True), dtype=dtype)
            for name, dtype in _NODE_DTYPES.items()
        }, sizes=decode(tuple[int, ...], data["sizes"], "sizes"))
        if forest.feature.max() >= n_columns:
            raise ValueError("tree nodes name a column the model lacks")
        return forest


def _best_split(
    X: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    features: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float] | None:
    """SSE-optimal (feature, threshold) over candidate features."""
    y_node = y[rows]
    n = rows.size
    # sums are dot products with ones, which round unlike y.sum(); the trees depend on it
    ones = np.ones(n)
    total_y = float(np.dot(ones, y_node))
    total_y2 = float(np.dot(ones, y_node * y_node))
    parent_sse = total_y2 - total_y * total_y / n

    best_gain = 1e-12  # splits must strictly reduce the SSE
    best: tuple[int, float] | None = None
    cut = np.arange(1, n)  # left side takes the first `cut` sorted rows
    for f in features:
        xs = X[rows, f]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        if xs_sorted[0] == xs_sorted[-1]:
            continue
        y_sorted = y_node[order]
        cy = np.cumsum(y_sorted)[:-1]
        cy2 = np.cumsum(y_sorted * y_sorted)[:-1]

        valid = xs_sorted[1:] > xs_sorted[:-1]
        valid &= (cut >= min_samples_leaf) & (n - cut >= min_samples_leaf)
        if not valid.any():
            continue
        sse_left = cy2 - cy**2 / cut
        sse_right = (total_y2 - cy2) - (total_y - cy) ** 2 / (n - cut)
        gain = parent_sse - sse_left - sse_right
        gain[~valid] = -np.inf
        pos = int(np.argmax(gain))  # first occurrence wins ties
        if gain[pos] > best_gain:
            best_gain = float(gain[pos])
            threshold = 0.5 * (xs_sorted[pos] + xs_sorted[pos + 1])
            best = (int(f), float(threshold))
    return best


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    *,
    max_depth: int,
    min_samples_leaf: int = 1,
    n_candidate_features: int | None = None,
    rng: np.random.Generator | None = None,
) -> Tree:
    """Grow a regression tree depth-first (left before right).

    When ``n_candidate_features`` is set, each split draws that many
    features without replacement from ``rng``; the draw order is fixed by
    the depth-first traversal, so the tree is a pure function of
    (data, hyperparameters, rng state).
    """
    n, d = X.shape

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def new_node(rows: np.ndarray) -> int:
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(node)
        right.append(node)
        # a dot product with ones, which rounds unlike y.sum(); the trees depend on it
        value.append(float(np.dot(np.ones(rows.size), y[rows]) / rows.size))
        return node

    root_rows = np.arange(n)
    root = new_node(root_rows)
    stack: list[tuple[int, np.ndarray, int]] = [(root, root_rows, 0)]
    while stack:
        node, rows, depth = stack.pop()
        if depth >= max_depth or rows.size < 2 * min_samples_leaf or rows.size < 2:
            continue
        if n_candidate_features is not None and n_candidate_features < d:
            assert rng is not None
            candidates = rng.choice(d, size=n_candidate_features, replace=False)
        else:
            candidates = np.arange(d)
        split = _best_split(X, y, rows, candidates, min_samples_leaf)
        if split is None:
            continue
        f, thr = split
        mask = X[rows, f] <= thr
        left_rows = rows[mask]
        right_rows = rows[~mask]
        if left_rows.size == 0 or right_rows.size == 0:
            continue
        feature[node] = f
        threshold[node] = thr
        left_child = new_node(left_rows)
        right_child = new_node(right_rows)
        left[node] = left_child
        right[node] = right_child
        # push right first so the left branch is grown first
        stack.append((right_child, right_rows, depth + 1))
        stack.append((left_child, left_rows, depth + 1))

    return Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=float),
    )


# ---------------------------------------------------------------------------
# model files

def ensemble_record(model) -> dict:
    """The JSON record of a model; its class names the record's ``KIND``.

    Fields of the model besides its vectorizer, parameters, seed and trees
    (``meta``, and floats such as ``f0`` or ``target_floor``) are stored at
    the top level, where ``load_ensemble`` reads them back by name.
    """
    return {
        **{name: value for name, value in vars(model).items()
           if name not in ("vectorizer", "params", "seed", "trees")},
        "kind": model.KIND,
        "columns": list(model.vectorizer.columns),
        "imputation": model.vectorizer.imputation,
        "hyperparameters": {**dataclasses.asdict(model.params), "seed": model.seed},
        "forest": model.trees.encode(),
    }


def save_ensemble(model, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_record(ensemble_record(model)) + "\n", encoding="utf-8")


def ensemble_hash(model) -> str:
    return hashlib.sha256(dumps_record(ensemble_record(model)).encode("utf-8")).hexdigest()


def load_ensemble(path: str | Path, model_cls: type):
    """Read a model file written by ``save_ensemble`` back into ``model_cls``.

    Any missing key, or a value of the wrong type or out of range, is a
    ``DataError``. Only the fields of the parameter class are read from
    ``hyperparameters``; other keys there, as older releases wrote, are ignored.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"model file not found: {path}")
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid model JSON: {exc}") from exc
    if not isinstance(record, dict) or record.get("kind") != model_cls.KIND:
        raise DataError(f"{path}: not a {model_cls.KIND.replace('_', ' ')} file")
    if record.get("schema_version") != SCHEMA_VERSION:
        raise DataError(f"{path}: unsupported schema version")
    try:
        hp = record["hyperparameters"]
        vectorizer = decode(Vectorizer, record)
        trees = Forest.decode(record["forest"], len(vectorizer.columns))
        model = decode(model_cls, {**record, "vectorizer": vectorizer, "params": hp,
                                   "seed": hp["seed"], "trees": trees})
        missing = dataclasses.asdict(model.params).keys() - hp.keys()
        if missing:  # a trained model's file holds them all; none takes its default
            raise KeyError(f"hyperparameters lack {sorted(missing)}")
        return model
    except (KeyError, TypeError, ValueError, RanwatchError) as exc:
        raise DataError(f"{path}: malformed model file, retrain it: {exc!r}") from exc
