"""Acceptance gate: ten checks, one per shipped guarantee.

Each test records a PASS/FAIL line for the terminal banner before making
its detailed assertions, so a red run still prints the full scorecard.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import socket
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from ranwatch.cli import EXIT_DEGRADED, EXIT_OK, main
from ranwatch.commitcat import categorize_keywords, default_rule_config
from ranwatch.residual import Thresholds, classify, residual_ratio
from ranwatch.risk import RiskParams, balance_training_set, metrics_from_predictions, smote_oversample
from ranwatch.stats import cohens_d, variance_explained, welch_t
from ranwatch.store import CommitMeta, read_records


def _tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _read_tsv(path: Path) -> list[dict[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def _run_detection_chain(root: Path, scenario: dict) -> Path:
    """synth -> ingest -> categorize -> assemble, returning the rows file."""
    sfile = root / "scenario.json"
    sfile.write_text(json.dumps(scenario), encoding="utf-8")
    corpus = root / "corpus"
    assert main(["synth", "--scenario", str(sfile), "--out", str(corpus)]) == EXIT_OK
    commits = corpus / "commits.jsonl"
    records = root / "records.jsonl"
    features = root / "features.jsonl"
    rows = root / "rows.jsonl"
    assert main(["ingest", "--dataset", str(corpus / "dataset"), "--commits", str(commits), "--out", str(records)]) == EXIT_OK
    assert main(["categorize", "--commits", str(commits), "--out", str(features)]) == EXIT_OK
    assert main(["assemble", "--records", str(records), "--features", str(features), "--commits", str(commits), "--out", str(rows)]) == EXIT_OK
    return rows


# ---------------------------------------------------------------------------
# 1. variance decomposition against a nested-loop oracle


def _oracle_variance_explained(y, factor_cols, conditioning_cols):
    n = len(y)
    mean = sum(y) / n
    var_y = sum((v - mean) ** 2 for v in y) / n

    def between_group_variance(cols):
        groups: dict[tuple, list[float]] = {}
        for i in range(n):
            key = tuple(col[i] for col in cols)
            groups.setdefault(key, []).append(y[i])
        total = 0.0
        for values in groups.values():
            g = sum(values) / len(values)
            total += len(values) * (g - mean) ** 2
        return total / n

    full = between_group_variance(list(conditioning_cols) + list(factor_cols))
    base = between_group_variance(list(conditioning_cols)) if conditioning_cols else 0.0
    return (full - base) / var_y


def test_criterion_1_variance_decomposition_oracle(acceptance):
    t0 = time.perf_counter()
    hand = variance_explained([1, 2, 3, 4, 5, 6], [["a", "a", "b", "b", "c", "c"]]).score
    hand_ok = abs(hand - 32.0 / 35.0) < 1e-12

    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        y = rng.normal(size=n)
        while np.var(y) == 0.0:
            y = rng.normal(size=n)
        n_factor = int(rng.integers(1, 3))
        n_cond = int(rng.integers(0, 3))
        factors = [rng.integers(0, 3, size=n).tolist() for _ in range(n_factor)]
        conds = [rng.integers(0, 3, size=n).tolist() for _ in range(n_cond)]
        got = variance_explained(y, factors, conds).score
        want = _oracle_variance_explained(y.tolist(), factors, conds)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0

    ok = hand_ok and worst < 1e-12 and elapsed < 5.0
    acceptance(1, "variance shares match a nested-loop group-mean oracle", ok)
    assert hand == pytest.approx(32.0 / 35.0, abs=1e-12)
    assert worst < 1e-12
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. keyword categorization on reviewed commit messages


REVIEWED_MAPPINGS = [
    ("fix duplicate call of RCconfig_NR_L1", {"PHY"}),
    ('Support RC SM aperiodic subscription for "UE RRC State Change"', {"RRC"}),
    ("use pointer to structure instead of module_id inside MAC", {"MAC"}),
    ("NR UE MSG3 buffer", {"MAC"}),
    ("Sidelink configuration passed from RRC->MAC", {"RRC", "MAC"}),
    ("reworking configuration of LogicalChannelConfig at MAC UE", {"MAC"}),
    ("L1 tx thread", {"PHY"}),
]


def test_criterion_2_keyword_mappings(acceptance):
    t0 = time.perf_counter()
    config = default_rule_config()
    got = []
    for message, _expected in REVIEWED_MAPPINGS:
        meta = CommitMeta(hash="c" * 40, deploy_time="2025-01-06T06:00:00", message=message,
                          files_changed=2, lines_added=20, lines_deleted=5)
        got.append(set(categorize_keywords(meta, config).layers))
    elapsed = time.perf_counter() - t0
    ok = all(g == e for g, (_, e) in zip(got, REVIEWED_MAPPINGS)) and elapsed < 1.0
    acceptance(2, "shipped keyword rules reproduce all seven reviewed layer mappings", ok)
    for (message, expected), layers in zip(REVIEWED_MAPPINGS, got):
        assert layers == expected, message
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 3. residual gating truth table


def test_criterion_3_residual_truth_table(acceptance):
    th = Thresholds(ratio_floor=0.9, min_expected_efficiency=0.6)
    cases = [
        (0.85, 0.70, "degraded"),
        (0.85, 0.50, "environmental_limit"),
        (1.00, 0.80, "normal"),
    ]
    got = [classify(ratio, expected, th) for ratio, expected, _ in cases]
    arithmetic_ok = (
        residual_ratio(0.7, 0.7) == 1.0
        and residual_ratio(0.63, 0.70) == pytest.approx(0.9, abs=1e-12)
    )
    ok = got == [want for _, _, want in cases] and arithmetic_ok
    acceptance(3, "three-way residual gate reproduces the reference cases", ok)
    for (ratio, expected, want), state in zip(cases, got):
        assert state == want, (ratio, expected)
    assert arithmetic_ok


# ---------------------------------------------------------------------------
# 4. end-to-end detection on a seeded scenario


def test_criterion_4_end_to_end_detection(acceptance, tmp_path):
    scenario = {
        "seed": 1337,
        "n_commits": 40,
        "tests_per_commit": 10,
        "sinr_range": [8.0, 30.0],
        "injections": [
            {"commit_index": 7, "layers": ["PDCP"], "drop": 0.35},
            {"commit_index": 15, "layers": ["MAC", "PHY"], "drop": 0.5},
            {"commit_index": 23, "layers": ["RRC"], "drop": 0.25, "onset_delay": 2},
            {"commit_index": 31, "layers": ["NGAP"], "drop": 0.3, "onset_delay": 8},
        ],
    }
    t0 = time.perf_counter()
    rows = _run_detection_chain(tmp_path, scenario)
    analysis = tmp_path / "analysis"
    code = main(["analyze", "--rows", str(rows), "--out-dir", str(analysis)])
    elapsed = time.perf_counter() - t0

    truth = {
        m["hash"]: m
        for m in read_records(tmp_path / "corpus" / "truth_commits.jsonl", kind="truth_commit")
    }
    table = _read_tsv(analysis / "temporal_comparison.tsv")
    flagged = {r["commit_hash"] for r in table if r["residual_verdict"] == "degraded"}
    injected = {h for h, m in truth.items() if m["injected"]}
    tp = len(flagged & injected)
    precision = tp / len(flagged) if flagged else 0.0
    recall = tp / len(injected)
    late_missed_by_temporal = [
        r
        for r in table
        if truth[r["commit_hash"]]["injected"]
        and truth[r["commit_hash"]]["onset_delay"] >= 8
        and r["residual_verdict"] == "degraded"
        and r["temporal_flag"] == "false"
    ]
    ok = (
        code == EXIT_DEGRADED
        and precision >= 0.75
        and recall >= 0.75
        and bool(late_missed_by_temporal)
        and elapsed < 60.0
    )
    acceptance(
        4,
        "seeded pipeline finds the injected commits (p/r >= 0.75); the "
        "time-decay baseline misses the late-onset one",
        ok,
    )
    assert code == EXIT_DEGRADED
    assert precision >= 0.75, (tp, sorted(flagged - injected))
    assert recall >= 0.75, (tp, sorted(injected - flagged))
    assert late_missed_by_temporal, "temporal baseline caught everything it should miss"
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 5. environment baseline quality on clean data


def test_criterion_5_baseline_quality(acceptance, tmp_path):
    scenario = {
        "seed": 4242,
        "n_commits": 30,
        "tests_per_commit": 10,
        "loads": [10.0, 30.0, 80.0, 120.0, 180.0],
    }
    t0 = time.perf_counter()
    rows = _run_detection_chain(tmp_path, scenario)
    metrics_file = tmp_path / "metrics.tsv"
    code = main(
        [
            "train-baseline",
            "--rows", str(rows),
            "--out", str(tmp_path / "model.json"),
            "--metrics", str(metrics_file),
        ]
    )
    elapsed = time.perf_counter() - t0
    rows_by_unit = {r["unit"]: r for r in _read_tsv(metrics_file)}
    r2 = float(rows_by_unit["efficiency"]["r2"])
    rmse_ge_mae = all(
        float(r["rmse"]) >= float(r["mae"]) - 1e-12 for r in rows_by_unit.values()
    )
    ok = code == EXIT_OK and r2 >= 0.7 and rmse_ge_mae and elapsed < 30.0
    acceptance(5, "held-out efficiency R^2 >= 0.7 on clean synthetic data", ok)
    assert code == EXIT_OK
    assert r2 >= 0.7, r2
    assert rmse_ge_mae
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 6. oversampling properties


def test_criterion_6_smote_properties(acceptance):
    rng = np.random.default_rng(99)
    minority = rng.normal(size=(9, 3))
    synth = smote_oversample(minority, n_new=25, k_neighbors=4, seed=6)

    def on_some_segment(point) -> bool:
        for i in range(len(minority)):
            for j in range(len(minority)):
                if i == j:
                    continue
                a, b = minority[i], minority[j]
                d = b - a
                u = float(np.dot(point - a, d) / np.dot(d, d))
                if -1e-9 <= u <= 1.0 + 1e-9:
                    if np.max(np.abs(point - (a + u * d))) <= 1e-9:
                        return True
        return False

    membership = all(on_some_segment(s) for s in synth)
    deterministic = np.array_equal(
        synth, smote_oversample(minority, n_new=25, k_neighbors=4, seed=6)
    )

    X = np.vstack([rng.normal(loc=0.0, size=(70, 3)), rng.normal(loc=4.0, size=(13, 3))])
    y = np.array([0] * 70 + [1] * 13)
    _, yb, _ = balance_training_set(X, y, RiskParams(), seed=1)
    balanced = abs(int((yb == 1).sum()) - int((yb == 0).sum())) <= 1

    ok = membership and deterministic and balanced
    acceptance(6, "synthetic minority samples sit on neighbor segments, deterministically, at 1:1", ok)
    assert membership
    assert deterministic
    assert balanced


# ---------------------------------------------------------------------------
# 7. classifier metric identities


def test_criterion_7_minority_recall_identity(acceptance):
    # 18 true positives in the data, 11 of them caught
    y = np.array([1] * 18 + [0] * 42)
    pred = np.array([1] * 11 + [0] * 7 + [1] * 3 + [0] * 39)
    metrics = metrics_from_predictions(y, pred)
    recall = metrics.positive.recall
    ok = abs(recall - 11.0 / 18.0) <= 0.001 and metrics.confusion["tp"] == 11 and metrics.confusion["fn"] == 7
    acceptance(7, "evaluator reports minority recall 11/18 = 0.611 from the confusion matrix", ok)
    assert recall == pytest.approx(0.611, abs=0.001)
    assert metrics.confusion["tp"] == 11 and metrics.confusion["fn"] == 7


# ---------------------------------------------------------------------------
# 8. two-sample statistics against an independent reference


def test_criterion_8_welch_and_effect_size(acceptance):
    rng = np.random.default_rng(20250815)
    worst_t = worst_p = worst_d = 0.0
    for _ in range(50):
        na = int(rng.integers(5, 41))
        nb = int(rng.integers(5, 41))
        a = rng.normal(loc=rng.uniform(-2, 2), scale=rng.uniform(0.5, 3.0), size=na)
        b = rng.normal(loc=rng.uniform(-2, 2), scale=rng.uniform(0.5, 3.0), size=nb)
        got = welch_t(a, b)
        ref = scipy.stats.ttest_ind(a, b, equal_var=False)
        worst_t = max(worst_t, abs(got.t - float(ref.statistic)))
        worst_p = max(worst_p, abs(got.p - float(ref.pvalue)))
        pooled = math.sqrt(
            ((na - 1) * a.std(ddof=1) ** 2 + (nb - 1) * b.std(ddof=1) ** 2) / (na + nb - 2)
        )
        worst_d = max(worst_d, abs(cohens_d(a, b) - (a.mean() - b.mean()) / pooled))
    ok = worst_t <= 1e-8 and worst_d <= 1e-8 and worst_p <= 1e-6
    acceptance(8, "Welch t, its p-value, and Cohen's d match reference computations", ok)
    assert worst_t <= 1e-8
    assert worst_d <= 1e-8
    assert worst_p <= 1e-6


# ---------------------------------------------------------------------------
# 9. optional check against a locally supplied dataset


def test_criterion_9_real_dataset_distribution(acceptance, tmp_path):
    root = os.environ.get("RANWATCH_DATASET")
    if not root:
        acceptance(9, "real-dataset distribution check (set RANWATCH_DATASET to enable)", "SKIP")
        pytest.skip("RANWATCH_DATASET not set; this check needs the real corpus")
    root = Path(root)
    records = tmp_path / "records.jsonl"
    features = tmp_path / "features.jsonl"
    rows = tmp_path / "rows.jsonl"
    commits = root / "commits.jsonl"
    assert main(["ingest", "--dataset", str(root / "dataset"), "--commits", str(commits), "--out", str(records)]) == EXIT_OK
    assert main(["categorize", "--commits", str(commits), "--out", str(features)]) == EXIT_OK
    assert main(["assemble", "--records", str(records), "--features", str(features), "--commits", str(commits), "--out", str(rows)]) == EXIT_OK
    analysis = tmp_path / "analysis"
    assert main(["analyze", "--rows", str(rows), "--out-dir", str(analysis)]) in (EXIT_OK, EXIT_DEGRADED)

    summary = {r["metric"]: r["value"] for r in _read_tsv(analysis / "residual_summary.tsv")}
    mean_ok = abs(float(summary["mean_ratio"]) - 0.998) <= 0.02
    frac_ok = abs(float(summary["frac_below_floor"]) - 0.042) <= 0.015
    pdcp = next(
        (r for r in _read_tsv(analysis / "layer_impact.tsv") if r["layer"] == "PDCP"), None
    )
    pdcp_ok = pdcp is not None and all(
        abs(float(pdcp[key]) - want) <= 0.30 * want
        for key, want in (
            ("degraded_cases", 14.0),
            ("mean_ratio", 0.70),
            ("median_ratio", 0.83),
            ("std_ratio", 0.28),
        )
    )
    ok = mean_ok and frac_ok and pdcp_ok
    acceptance(9, "real-dataset residual distribution and PDCP impact row in range", ok)
    assert mean_ok, summary["mean_ratio"]
    assert frac_ok, summary["frac_below_floor"]
    assert pdcp_ok, pdcp


# ---------------------------------------------------------------------------
# 10. determinism and the no-network guarantee


def test_criterion_10_determinism_without_network(acceptance, tmp_path, monkeypatch):
    def _no_network(*args, **kwargs):
        raise AssertionError("network access attempted during the deterministic rerun")

    monkeypatch.setattr(socket, "socket", _no_network)
    monkeypatch.setattr(socket, "create_connection", _no_network)
    monkeypatch.setattr(socket, "getaddrinfo", _no_network)

    def run_all(base: Path) -> dict[str, str]:
        corpus = base / "corpus"
        commits = corpus / "commits.jsonl"
        analysis = base / "analysis"
        report = base / "report"
        assert main(["synth", "--out", str(corpus)]) == EXIT_OK
        assert main(["ingest", "--dataset", str(corpus / "dataset"), "--commits", str(commits), "--out", str(base / "records.jsonl")]) == EXIT_OK
        assert main(["categorize", "--commits", str(commits), "--out", str(base / "features.jsonl"), "--refine", "stub"]) == EXIT_OK
        assert main(["assemble", "--records", str(base / "records.jsonl"), "--features", str(base / "features.jsonl"), "--commits", str(commits), "--out", str(base / "rows.jsonl")]) == EXIT_OK
        assert main(["decompose", "--rows", str(base / "rows.jsonl"), "--out", str(base / "decomposition.tsv")]) == EXIT_OK
        assert main(["train-baseline", "--rows", str(base / "rows.jsonl"), "--out", str(base / "baseline.json"), "--metrics", str(base / "baseline_metrics.tsv")]) == EXIT_OK
        assert main(["analyze", "--rows", str(base / "rows.jsonl"), "--out-dir", str(analysis)]) == EXIT_DEGRADED
        assert main(["train-risk", "--rows", str(base / "rows.jsonl"), "--labels", str(analysis / "labels.jsonl"), "--out", str(base / "risk.json"), "--metrics", str(base / "risk_metrics.tsv")]) == EXIT_OK
        assert main(["score", "--model", str(base / "risk.json"), "--features", str(base / "features.jsonl"), "--out", str(base / "scores.tsv")]) == EXIT_OK
        assert main(["report", "--labels", str(analysis / "labels.jsonl"), "--out-dir", str(report)]) == EXIT_OK
        return _tree_digest(base)

    first = run_all(tmp_path / "a")
    second = run_all(tmp_path / "b")
    identical = first == second and len(first) > 0
    acceptance(10, "every subcommand reruns byte-identical with all network access blocked", identical)
    assert identical
    mismatched = [k for k in first if first.get(k) != second.get(k)]
    assert not mismatched, mismatched
