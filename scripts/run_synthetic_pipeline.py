#!/usr/bin/env python3
"""Drive every pipeline stage over a synthetic corpus.

Generates a scenario (the built-in demo unless --scenario is given), then
runs ingest, categorize, assemble, decompose, train-baseline, analyze,
train-risk, score, and report in order, leaving all intermediate files in
the chosen working directory for inspection. Ends by printing the sha256 of
every file under the working directory, sorted by path, so two runs (say,
before and after a refactor, each with a fresh working directory of the
same name) compare with one ``diff`` of their output.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from ranwatch.cli import EXIT_DEGRADED, main as ranwatch


def stage(argv: list[str], expect: tuple[int, ...] = (0,)) -> int:
    print(f"\n$ ranwatch {' '.join(argv)}")
    code = ranwatch(argv)
    if code not in expect:
        print(f"stage failed with exit code {code}", file=sys.stderr)
        sys.exit(code)
    return code


def run(workdir: Path, scenario: str | None, seed: int) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    corpus = workdir / "corpus"
    analysis = workdir / "analysis"

    synth_args = ["synth", "--out", str(corpus)]
    if scenario:
        synth_args += ["--scenario", scenario]
    stage(synth_args)
    stage(
        [
            "ingest",
            "--dataset", str(corpus / "dataset"),
            "--commits", str(corpus / "commits.jsonl"),
            "--out", str(workdir / "records.jsonl"),
        ]
    )
    stage(
        [
            "categorize",
            "--commits", str(corpus / "commits.jsonl"),
            "--out", str(workdir / "features.jsonl"),
            "--refine", "stub",
        ]
    )
    stage(
        [
            "assemble",
            "--records", str(workdir / "records.jsonl"),
            "--features", str(workdir / "features.jsonl"),
            "--commits", str(corpus / "commits.jsonl"),
            "--out", str(workdir / "rows.jsonl"),
        ]
    )
    stage(
        [
            "decompose",
            "--rows", str(workdir / "rows.jsonl"),
            "--out", str(workdir / "decomposition.tsv"),
        ]
    )
    stage(
        [
            "train-baseline",
            "--rows", str(workdir / "rows.jsonl"),
            "--out", str(workdir / "baseline_model.json"),
            "--metrics", str(workdir / "baseline_metrics.tsv"),
            "--seed", str(seed),
        ]
    )
    verdict = stage(
        [
            "analyze",
            "--rows", str(workdir / "rows.jsonl"),
            "--out-dir", str(analysis),
            "--seed", str(seed),
        ],
        expect=(0, EXIT_DEGRADED),
    )
    stage(
        [
            "train-risk",
            "--rows", str(workdir / "rows.jsonl"),
            "--labels", str(analysis / "labels.jsonl"),
            "--out", str(workdir / "risk_model.json"),
            "--metrics", str(workdir / "risk_metrics.tsv"),
            "--seed", str(seed),
            "--estimators", "100",
        ]
    )
    stage(
        [
            "score",
            "--model", str(workdir / "risk_model.json"),
            "--features", str(workdir / "features.jsonl"),
            "--out", str(workdir / "scores.tsv"),
        ]
    )
    stage(
        [
            "report",
            "--labels", str(analysis / "labels.jsonl"),
            "--out-dir", str(workdir / "report"),
        ]
    )
    print(f"\ndone; analyze exit code was {verdict} (3 means degraded commits found)")
    print_hashes(workdir)


def print_hashes(workdir: Path) -> None:
    print("\noutput sha256:")
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(workdir).as_posix()}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="pipeline_run", type=Path)
    parser.add_argument("--scenario", help="scenario JSON, defaults to the demo")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    run(args.workdir, args.scenario, args.seed)
