#!/usr/bin/env python3
"""Sweep the ratio floor and report commit-level precision and recall.

Uses a synthetic corpus so ground truth is available. The corpus runs once
through ranwatch's own stages (synth, ingest, categorize, assemble, and
analyze with out-of-bag expectations, no ``--model``); every floor in the
sweep then re-gates the same labels, rolls commits up, and compares the
degraded verdicts against the injected commits. A too-tight floor flags
measurement noise; a too-loose one misses shallow regressions. The sweep
shows the usable band.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import sys
import tempfile
from pathlib import Path

from ranwatch import residual
from ranwatch.cli import EXIT_DEGRADED, main as ranwatch
from ranwatch.store import load_records, read_records


def stage(argv: list[str], expect: tuple[int, ...] = (0,)) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = ranwatch(argv)
    if code not in expect:
        sys.exit(f"ranwatch {argv[0]} failed with exit code {code}")


def history_labels(
    workdir: Path, scenario: str | None, seed: int
) -> list[residual.DegradationLabel]:
    """Labels of a synthetic corpus at the default thresholds, each test's
    expectation coming from the trees that never saw its commit."""
    corpus = workdir / "corpus"
    commits = str(corpus / "commits.jsonl")
    records, features, rows = (
        str(workdir / f"{name}.jsonl") for name in ("records", "features", "rows")
    )
    stage(["synth", "--out", str(corpus)] + (["--scenario", scenario] if scenario else []))
    stage(["ingest", "--dataset", str(corpus / "dataset"), "--commits", commits,
           "--out", records])
    stage(["categorize", "--commits", commits, "--out", features])
    stage(["assemble", "--records", records, "--features", features, "--commits", commits,
           "--out", rows])
    stage(["analyze", "--rows", rows, "--out-dir", str(workdir / "analysis"),
           "--seed", str(seed)], expect=(0, EXIT_DEGRADED))
    return load_records(workdir / "analysis" / "labels.jsonl", residual.DegradationLabel)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", help="scenario JSON, defaults to the demo")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--floors",
        type=float,
        nargs="+",
        default=[0.80, 0.85, 0.88, 0.90, 0.92, 0.95, 0.98],
    )
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        labels = history_labels(Path(tmp), args.scenario, args.seed)
        truth = read_records(Path(tmp) / "corpus" / "truth_commits.jsonl", kind="truth_commit")
    injected = {r["hash"] for r in truth if r["injected"]}

    print(f"{'floor':>6} {'flagged':>8} {'tp':>4} {'fp':>4} {'fn':>4} "
          f"{'precision':>10} {'recall':>8}")
    for floor in args.floors:
        thresholds = residual.Thresholds(ratio_floor=floor)
        regated = []
        for label in labels:
            gating = residual.classify(label.ratio, label.expected_efficiency, thresholds)
            regated.append(
                dataclasses.replace(label, gating=gating, degraded=gating == "degraded")
            )
        rollups = residual.commit_rollup(regated)
        flagged = {r.commit_hash for r in rollups if r.verdict == "degraded"}
        tp = len(flagged & injected)
        fp = len(flagged - injected)
        fn = len(injected - flagged)
        precision = tp / (tp + fp) if flagged else float("nan")
        recall = tp / (tp + fn) if injected else float("nan")
        print(
            f"{floor:>6.2f} {len(flagged):>8} {tp:>4} {fp:>4} {fn:>4} "
            f"{precision:>10.3f} {recall:>8.3f}"
        )


if __name__ == "__main__":
    main()
