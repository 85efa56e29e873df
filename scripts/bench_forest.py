#!/usr/bin/env python3
"""Time reading one model file and predicting with its packed forest.

Usage: ``python3 scripts/bench_forest.py MODEL.json`` for a baseline or a
risk model written by ``train-baseline`` or ``train-risk``. Prints one JSON
line: the model's kind, tree and node counts, the median of 30 timings of
reading the file into a model (``decode_ms``) and of predicting 3 and 2,000
rows (``predict_ms``), and the sha256 of the 2,000 predictions, so two
versions of the code can be shown to predict the same bits.

The probe rows are drawn with a fixed seed, uniformly between the lowest and
the highest split threshold of each column (the column's fill value when no
split uses it), so every walk takes both branches somewhere.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import time
from pathlib import Path

import numpy as np

from ranwatch import baseline, risk

REPEATS = 30
ROW_COUNTS = (3, 2000)


def _median_ms(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def _probe(model, n_rows: int, seed: int = 0) -> np.ndarray:
    forest, columns = model.trees, model.vectorizer.columns
    lo = np.array([model.vectorizer.imputation[c] for c in columns])
    hi = lo.copy()
    for j in range(len(columns)):
        thresholds = forest.threshold[forest.feature == j]
        if thresholds.size:
            lo[j], hi[j] = thresholds.min(), thresholds.max()
    return np.random.default_rng(seed).uniform(lo, hi, size=(n_rows, len(columns)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("model", type=Path)
    args = parser.parse_args()
    kind = json.loads(args.model.read_text(encoding="utf-8")).get("kind")
    module = {baseline.BaselineModel.KIND: baseline, risk.RiskModel.KIND: risk}.get(kind)
    if module is None:
        raise SystemExit(f"{args.model}: not a baseline or risk model file")
    predict = baseline.predict_matrix if module is baseline else risk.predict_proba

    model = module.load_model(args.model)
    result = {
        "kind": kind,
        "trees": len(model.trees),
        "nodes": int(model.trees.value.size),
        "decode_ms": _median_ms(lambda: module.load_model(args.model)),
    }
    for n_rows in ROW_COUNTS:
        X = _probe(model, n_rows)
        result[f"predict_ms_{n_rows}"] = _median_ms(lambda: predict(model, X))
    result["predictions_sha256"] = hashlib.sha256(
        np.ascontiguousarray(predict(model, X)).tobytes()
    ).hexdigest()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
