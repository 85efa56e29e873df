#!/usr/bin/env python3
"""Sweep the ratio floor and report commit-level precision and recall.

Uses a synthetic corpus so ground truth is available: every floor in the
sweep relabels the same cross-fit expected efficiencies, rolls commits
up, and compares the degraded verdicts against the injected commits. A
too-tight floor flags measurement noise; a too-loose one misses shallow
regressions. The sweep shows the usable band.
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

import numpy as np

from ranwatch import assemble, baseline, commitcat, ingest, residual, synthgen
from ranwatch.store import load_commits, read_records


def build_rows(corpus: synthgen.GeneratedCorpus) -> list[assemble.AnalysisRow]:
    entries, _ = ingest.scan_dataset(corpus.dataset_dir)
    commits = load_commits(corpus.commits_file)
    rules = ingest.default_log_rules()
    records = []
    for entry in entries:
        meta = ingest.assign_commit(entry.test_id, commits)
        records.append(
            ingest.build_test_record(
                entry.test_id, entry, rules, meta.hash if meta else None
            )
        )
    config = commitcat.default_rule_config()
    features = {}
    for text, result, _status in commitcat.categorize_commits(
        [
            commitcat.CommitText(
                hash=c.hash,
                message=c.message,
                files_changed=c.files_changed,
                lines_added=c.lines_added,
                lines_deleted=c.lines_deleted,
            )
            for c in commits
        ],
        config,
    ):
        features[text.hash] = commitcat.build_feature_vector(text, result)
    rows, _skipped = assemble.assemble_rows(records, features, commits)
    return rows


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

    if args.scenario:
        spec = synthgen.load_scenario(args.scenario)
    else:
        from ranwatch.cli import _demo_scenario

        spec = _demo_scenario()

    with tempfile.TemporaryDirectory() as tmp:
        corpus = synthgen.generate(spec, tmp)
        truth = {
            r["hash"]: r["injected"]
            for r in read_records(corpus.truth_commits_file, kind="truth_commit")
        }
        rows = build_rows(corpus)

        matrix = baseline.build_feature_matrix(
            assemble.ENV_FEATURES, [r.env for r in rows]
        )
        y = np.array([r.efficiency for r in rows], dtype=float)
        expected = baseline.cross_fit_predictions(
            matrix, y, baseline.BaselineParams(), args.seed
        )
        import dataclasses

        rows = [
            dataclasses.replace(r, expected_efficiency=float(e))
            for r, e in zip(rows, expected)
        ]

        print(f"{'floor':>6} {'flagged':>8} {'tp':>4} {'fp':>4} {'fn':>4} "
              f"{'precision':>10} {'recall':>8}")
        for floor in args.floors:
            thresholds = residual.Thresholds(ratio_floor=floor)
            labels = residual.label_rows(rows, thresholds)
            rollups = residual.commit_rollup(labels)
            flagged = {r.commit_hash for r in rollups if r.verdict == "degraded"}
            injected = {h for h, inj in truth.items() if inj}
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
