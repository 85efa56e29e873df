"""Output checks against the generator's ground truth.

Every check here recomputes what it expects from the truth files that
``synthgen`` writes next to the dataset, or from first principles (the
ratio formula, the gating truth table), never from ranwatch's own parsers
or models and never from a stored copy of earlier output. Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

RATIO_FLOOR = 0.9  # ranwatch's default gating thresholds
MIN_EXPECTED = 0.6
PR_FLOOR = 0.75  # precision and recall floor of acceptance criterion 4
# Cross-fitted expectations on clean tests: the forest learns from measured
# efficiency, which carries N(0, noise_std) noise, and from the planted
# regressions, which pull it low. Over seeds 1-3 and 11-13 the median
# absolute error on clean tests was 0.45-0.65 sigma; predicting the mean
# expectation for every test gives 2.0-2.2 sigma.
CLEAN_MEDIAN_SIGMAS = 1.5

_REL = 1e-9


def read_jsonl(path: Path, kind: str | None = None) -> list[dict]:
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            if kind is None or record.get("kind") == kind:
                out.append(record)
    return out


def read_tsv(path: Path) -> list[dict[str, str]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def _close(a, b) -> bool:
    return a is not None and math.isclose(float(a), float(b), rel_tol=_REL, abs_tol=1e-12)


def _test_key(record: dict) -> tuple[str, str]:
    return record["day"], record["time"]


def gating(ratio: float, expected: float) -> str:
    """The three-way gate, written out from its truth table."""
    if ratio >= RATIO_FLOOR:
        return "normal"
    return "degraded" if expected >= MIN_EXPECTED else "environmental_limit"


_TRAFFIC = (("throughput_efficiency", "measured_efficiency"), ("packet_loss", "packet_loss"),
            ("jitter", "jitter"))
_RADIO = ("rsrp", "sinr", "dl_bler", "ul_bler", "cqi_mean", "harq_retx_round1",
          "harq_retx_total")


def check_records(records_path: Path, truth_tests: list[dict]) -> list[str]:
    """Each ingested test matches the generator's own numbers."""
    records = read_jsonl(records_path, "test_record")
    truth = {_test_key(t): t for t in truth_tests}
    problems = []
    if len(records) != len(truth):
        problems.append(f"{len(records)} records for {len(truth)} generated tests")
    for rec in records:
        t = truth.get(_test_key(rec))
        where = f"record {rec['day']}/{rec['time']}"
        if t is None:
            problems.append(f"{where}: no such generated test")
            continue
        if rec["commit_hash"] != t["commit_hash"]:
            problems.append(f"{where}: commit {rec['commit_hash']} != {t['commit_hash']}")
        for field, truth_field in _TRAFFIC:
            if not _close(rec["traffic"].get(field), t[truth_field]):
                problems.append(f"{where}: {field} {rec['traffic'].get(field)} != {t[truth_field]}")
        for field in _RADIO:
            if not _close(rec["radio"].get(field), t[field]):
                problems.append(f"{where}: {field} {rec['radio'].get(field)} != {t[field]}")
        if rec["events"] != t["events"]:
            problems.append(f"{where}: events {rec['events']} != {t['events']}")
    return problems


def check_features(features_path: Path, truth_commits: list[dict]) -> list[str]:
    """Each commit's affected categories are exactly the planted ones."""
    records = read_jsonl(features_path, "commit_features")
    truth = {c["hash"]: sorted(c["categories"]) for c in truth_commits}
    problems = []
    if sorted(r["hash"] for r in records) != sorted(truth):
        problems.append(f"{len(records)} feature records for {len(truth)} commits")
    for rec in records:
        planted = truth.get(rec["hash"])
        if sorted(rec["affected"]) != planted:
            problems.append(f"commit {rec['hash'][:12]}: affected {rec['affected']} != {planted}")
    return problems


def check_rows(rows_path: Path, truth_tests: list[dict]) -> list[str]:
    """Every generated test becomes one analysis row, in time order."""
    rows = read_jsonl(rows_path, "analysis_row")
    keys = [_test_key(r) for r in rows]
    if keys != sorted(_test_key(t) for t in truth_tests):
        return [f"{len(rows)} analysis rows do not match the {len(truth_tests)} generated tests"]
    return []


def _flagged(rollup_path: Path) -> set[str]:
    return {r["commit_hash"] for r in read_tsv(rollup_path) if r["verdict"] == "degraded"}


def check_history_verdicts(rollup_path: Path, truth_commits: list[dict]) -> list[str]:
    """Commit verdicts find the planted regressions (precision, recall >= 0.75)."""
    flagged = _flagged(rollup_path)
    injected = {c["hash"] for c in truth_commits if c["injected"]}
    tp = len(flagged & injected)
    precision = tp / len(flagged) if flagged else 0.0
    recall = tp / len(injected) if injected else 1.0
    if precision < PR_FLOOR or recall < PR_FLOOR:
        return [f"history verdicts precision {precision:.3f} recall {recall:.3f} "
                f"({tp} of {len(injected)} planted, {len(flagged)} flagged)"]
    return []


def check_labels(labels_path: Path, truth_tests: list[dict], noise_std: float | None) -> list[str]:
    """Ratios, gating and, for cross-fitted runs, expectations on clean tests.

    ``noise_std`` is None for labels made with a fixed model, whose
    expectations are not cross-fitted and are not held to the tolerance.
    """
    labels = read_jsonl(labels_path, "label")
    truth = {_test_key(t): t for t in truth_tests}
    problems = []
    if len(labels) != len(truth):
        problems.append(f"{len(labels)} labels for {len(truth)} generated tests")
    clean_errors = []
    for lab in labels:
        where = f"label {lab['day']}/{lab['time']}"
        t = truth.get(_test_key(lab))
        if t is None:
            problems.append(f"{where}: no such generated test")
            continue
        measured, expected = lab["measured_efficiency"], lab["expected_efficiency"]
        if not _close(measured, t["measured_efficiency"]):
            problems.append(f"{where}: measured {measured} != {t['measured_efficiency']}")
        if not (expected > 0 and _close(lab["ratio"], measured / expected)):
            problems.append(f"{where}: ratio {lab['ratio']} != {measured}/{expected}")
            continue
        want = gating(lab["ratio"], expected)
        if lab["gating"] != want or lab["degraded"] != (want == "degraded"):
            problems.append(f"{where}: gating {lab['gating']}/{lab['degraded']}, truth table says {want}")
        if not t["degraded"]:
            clean_errors.append(abs(expected - t["true_expected_efficiency"]))
    if noise_std is not None and clean_errors:
        median = statistics.median(clean_errors)
        if median > CLEAN_MEDIAN_SIGMAS * noise_std:
            problems.append(f"median clean-test expectation error {median:.4f} exceeds "
                            f"{CLEAN_MEDIAN_SIGMAS} x noise {noise_std}")
    return problems


def check_decomposition(table_path: Path) -> list[str]:
    rows = read_tsv(table_path)
    problems = [] if rows else ["empty variance decomposition"]
    for r in rows:
        if not 0.0 <= float(r["score"]) <= 1.0:
            problems.append(f"share {r['factor']}->{r['target']} = {r['score']} outside [0, 1]")
    return problems


def check_regression_metrics(metrics_path: Path) -> list[str]:
    """train-baseline reports finite held-out metrics for both units."""
    rows = read_tsv(metrics_path)
    problems = []
    if sorted(r["unit"] for r in rows) != ["efficiency", "mbps"]:
        problems.append(f"baseline metrics units {[r['unit'] for r in rows]}")
    for r in rows:
        if not all(math.isfinite(float(r[k])) for k in ("r2", "mae", "rmse")):
            problems.append(f"baseline metrics for {r['unit']} are not finite: {r}")
    return problems


def check_classifier_metrics(metrics_path: Path) -> list[str]:
    rows = read_tsv(metrics_path)
    if sorted(r["class"] for r in rows) != ["clean", "degraded"]:
        return [f"risk metrics classes {[r['class'] for r in rows]}"]
    return []


def check_scores(scores_path: Path, commit_hashes: list[str]) -> list[str]:
    """One row per commit, risk in [0, 1], sorted by falling risk."""
    rows = read_tsv(scores_path)
    problems = []
    if sorted(r["commit_hash"] for r in rows) != sorted(commit_hashes):
        problems.append(f"{len(rows)} score rows for {len(commit_hashes)} commits")
    risks = [float(r["risk"]) for r in rows]
    for r, risk in zip(rows, risks):
        if not 0.0 <= risk <= 1.0:
            problems.append(f"risk {risk} for {r['commit_hash'][:12]} outside [0, 1]")
    if any(a < b for a, b in zip(risks, risks[1:])):
        problems.append("score rows are not sorted by falling risk")
    return problems


def check_report(summary_path: Path, rollup_path: Path) -> list[str]:
    """The report counts the same degraded commits as the analysis rollup."""
    rollup = read_tsv(rollup_path)
    want = f"commits degraded: {len(_flagged(rollup_path))} of {len(rollup)}"
    text = Path(summary_path).read_text(encoding="utf-8")
    return [] if want in text.splitlines() else [f"report does not say {want!r}"]


def check_release_verdict(rollup_path: Path, exit_code: int, truth_commit: dict) -> list[str]:
    """A gated release is flagged exactly when a regression was planted in it."""
    rows = read_tsv(rollup_path)
    want = "degraded" if truth_commit["injected"] else "clean"
    problems = []
    if [r["commit_hash"] for r in rows] != [truth_commit["hash"]]:
        return [f"rollup rows {[r['commit_hash'][:12] for r in rows]} for release {truth_commit['hash'][:12]}"]
    if rows[0]["verdict"] != want:
        problems.append(f"release {truth_commit['hash'][:12]} verdict {rows[0]['verdict']}, planted truth {want}")
    if exit_code != (3 if rows[0]["verdict"] == "degraded" else 0):
        problems.append(f"analyze exit {exit_code} disagrees with verdict {rows[0]['verdict']}")
    return problems
