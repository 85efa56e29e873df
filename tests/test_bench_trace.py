"""The benchmark's tracer (``cibench/trace.py``) wraps library functions by
name, so a refactor that renames or removes one breaks ``--trace 1`` runs."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ranwatch.trees import grow_tree

_REPO = Path(__file__).resolve().parent.parent


def _targets(monkeypatch):
    monkeypatch.syspath_prepend(str(_REPO))
    from cibench.trace import TARGETS

    return TARGETS


def test_every_traced_function_exists(monkeypatch):
    missing = [f"{getattr(owner, '__name__', owner)}.{attribute}"
               for owner, attribute, *_ in _targets(monkeypatch)
               if not callable(getattr(owner, attribute, None))]
    assert not missing


def test_tree_growth_counter_reads_a_grown_tree(monkeypatch):
    (count_result,) = [count for owner, attribute, _, _, count in _targets(monkeypatch)
                       if attribute == "grow_tree"]
    tree = grow_tree(np.arange(8.0).reshape(-1, 1), np.arange(8.0), max_depth=2)
    assert count_result(tree) == {"nodes": len(tree.value)} == {"nodes": 7}
