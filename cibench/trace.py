"""Spans around ranwatch's public functions, recorded from outside.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ranwatch module that holds a reference to it, which is where its
callers look it up (``cli`` calls ``baseline_mod.load_model``, ``baseline``
calls its own imported ``grow_tree``). Methods are wrapped on their class.
Spans live in memory and nest through a stack; only the main thread is
traced, so the refinement thread pool inside ``categorize`` passes through.

A span's self time is its duration minus the union of its children's
intervals. ``per_layer`` turns spans into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

from ranwatch import (assemble, baseline, commitcat, ingest, residual, risk, stats, store,
                      synthgen, trees)


def _log_bytes(entry) -> dict[str, int]:
    return {"log_bytes": sum(os.path.getsize(p) for p in entry.log_paths)}


# (owner, attribute, span name, counter called with the arguments, counter
# called with the result); owners are modules, or classes for methods.
TARGETS = (
    (synthgen, "generate", "synthgen.generate", None, None),
    (ingest, "scan_dataset", "ingest.scan", None, None),
    (ingest, "build_test_record", "ingest.record", lambda _id, entry, *a, **k: _log_bytes(entry), None),
    (ingest, "assign_commit", "ingest.assign", None, None),
    (store, "read_records", "store.read", None, lambda out: {"records_read": len(out)}),
    (store, "write_records", "store.write", None, None),
    (commitcat, "categorize_commits", "commitcat.categorize", None, None),
    (assemble, "assemble_rows", "assemble.rows", None, None),
    (assemble, "load_rows", "assemble.load_rows", None, None),
    (stats, "variance_explained", "stats.variance", None, None),
    (trees, "grow_tree", "trees.grow", None, lambda tree: {"nodes": len(tree.value)}),
    (trees.Tree, "leaf_indices", "trees.predict", None, lambda _: {"leaf_calls": 1}),
    (baseline, "build_feature_matrix", "baseline.matrix", None, None),
    (baseline, "train_baseline", "baseline.train", None, None),
    (baseline, "load_model", "baseline.load", None, None),
    (baseline, "predict_matrix", "baseline.predict", None, None),
    (risk, "balance_training_set", "risk.smote", None, None),
    (risk, "train_risk", "risk.train", None, None),
    (risk, "load_model", "risk.load", None, None),
    (risk, "predict_proba", "risk.predict", None, lambda _: {"predict_calls": 1}),
    (residual, "label_rows", "residual.label", None, None),
    (residual, "commit_rollup", "residual.rollup", None, None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    wall: float | None = None  # the stage's time by the caller's own clock
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        covered, reach = 0.0, self.start
        for child in sorted(self.children, key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.duration - covered

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


class Tracer:
    def __init__(self) -> None:
        self.roots: list[Span] = []
        self.counters: dict[str, int] = {}
        self._stack: list[Span] = []
        self._main = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        span = Span(name, time.perf_counter())
        (self._stack[-1].children if self._stack else self.roots).append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, wall: float | None = None) -> None:
        span.end = time.perf_counter()
        span.wall = wall
        self._stack.pop()

    def count(self, counts: dict[str, int]) -> None:
        for key, value in counts.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, fn, name, count_args, count_result):
        tracer = self

        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._main:
                return fn(*args, **kwargs)
            if count_args is not None:
                tracer.count(count_args(*args, **kwargs))
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if count_result is not None:
                tracer.count(count_result(result))
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("ranwatch") and m is not None]
        for owner, attr, name, count_args, count_result in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, count_args, count_result)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                if vars(holder).get(attr) is original:
                    self._restore.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()


STAGES = ("ingest", "categorize", "assemble", "decompose", "train-baseline", "analyze",
          "train-risk", "score", "report")


def _sum(spans, name: str, attr: str = "duration") -> float:
    return sum(getattr(s, attr) for s in spans if s.name == name)


def per_layer(tracer: Tracer, cycles: int) -> dict[str, float]:
    """Per-layer metrics per cycle, from the spans under stage roots.

    Stage roots are named ``stage.<subcommand>``. ``setup`` roots each
    generate one copy of the corpus; ``synthgen.generate_s`` is the median
    copy, like ``setup_s``.
    """
    stages = [r for r in tracer.roots if r.name.startswith("stage.")]
    setups = [r for r in tracer.roots if r.name == "setup"]
    spans = [s for r in stages for s in r.walk()]
    c = tracer.counters
    record_s = _sum(spans, "ingest.record")
    grow_s = _sum(spans, "trees.grow")
    out = {
        "synthgen.generate_s": statistics.median(_sum(r.children, "synthgen.generate")
                                                 for r in setups),
        "ingest.scan_s": _sum(spans, "ingest.scan") / cycles,
        "ingest.record_s": record_s / cycles,
        "ingest.log_mb_per_s": c.get("log_bytes", 0) / 1e6 / record_s if record_s else 0.0,
        "ingest.assign_s": _sum(spans, "ingest.assign") / cycles,
        "store.read_s": _sum(spans, "store.read") / cycles,
        "store.write_s": _sum(spans, "store.write") / cycles,
        "store.records_read": c.get("records_read", 0) / cycles,
        "commitcat.categorize_s": _sum(spans, "commitcat.categorize") / cycles,
        "assemble.rows_s": (_sum(spans, "assemble.rows")
                            + _sum(spans, "assemble.load_rows", "self_time")) / cycles,
        "stats.variance_s": _sum(spans, "stats.variance") / cycles,
        "trees.grow_s": grow_s / cycles,
        "trees.nodes_per_s": c.get("nodes", 0) / grow_s if grow_s else 0.0,
        "trees.predict_s": _sum(spans, "trees.predict") / cycles,
        "trees.leaf_calls": c.get("leaf_calls", 0) / cycles,
        "baseline.train_self_s": _sum(spans, "baseline.train", "self_time") / cycles,
        "baseline.matrix_s": _sum(spans, "baseline.matrix") / cycles,
        "baseline.load_s": _sum(spans, "baseline.load") / cycles,
        "baseline.predict_s": _sum(spans, "baseline.predict") / cycles,
        "risk.smote_s": _sum(spans, "risk.smote") / cycles,
        "risk.train_self_s": _sum(spans, "risk.train", "self_time") / cycles,
        "risk.load_s": _sum(spans, "risk.load") / cycles,
        "risk.predict_s": _sum(spans, "risk.predict") / cycles,
        "risk.predict_calls": c.get("predict_calls", 0) / cycles,
        "residual.label_s": _sum(spans, "residual.label") / cycles,
        "residual.rollup_s": _sum(spans, "residual.rollup") / cycles,
        "cli.self_s": sum(r.self_time for r in stages) / cycles,
        "cycle_s": sum(r.duration for r in stages) / cycles,
    }
    for stage in STAGES:
        out[f"cli.self_s.{stage}"] = _sum(stages, f"stage.{stage}", "self_time") / cycles
    return out


WALL_TOLERANCE_S = 1e-3


def additivity_problems(tracer: Tracer) -> list[str]:
    """Each stage's spans nest, and add up to the stage's own wall time.

    Every child must lie inside its parent and after its previous sibling;
    then the self times of a stage's tree must sum to the wall time that
    the cycle measured for the stage with its own clock (``Span.wall``),
    within ``WALL_TOLERANCE_S``. Time in functions that are not traced is
    self time of their traced caller, so it cannot be lost, only misplaced.
    """
    problems = []
    for root in tracer.roots:
        if root.wall is None:  # set-up spans, timed by run.py
            continue
        for span in root.walk():
            reach = span.start
            for child in span.children:
                if child.start < reach or child.end > span.end:
                    problems.append(f"{root.name}: {child.name} does not nest inside {span.name}")
                reach = child.end
        total = sum(s.self_time for s in root.walk())
        if abs(total - root.wall) > WALL_TOLERANCE_S:
            problems.append(f"{root.name}: self times sum to {total:.6f} s, "
                            f"the stage took {root.wall:.6f} s")
    return problems
