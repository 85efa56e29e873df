"""Tests of the CI-cycle benchmark itself, at a size that runs in seconds.

They sit outside the repository's tier-1 suite (pytest's testpaths is
``tests``). Run them with ``python3 -m pytest cibench/tests -q``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from cibench import checks, corpus, run, trace  # noqa: E402
from cibench.cycle import run_cycle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# The workloads at a size that runs in seconds.
TINY = {
    "fleet": corpus.Shape(history_commits=25, history_tests_per_commit=6, releases=4),
    "gate": corpus.Shape(history_commits=20, history_tests_per_commit=5, releases=6),
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(corpus, "SHAPES", TINY)


def _run(*args: str) -> tuple[dict, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(args)) == 0
    lines = out.getvalue().splitlines()
    return json.loads(lines[-1]), [l for l in lines if l.startswith("sha256 ")]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload_passes_every_check(tiny, workload):
    result, hashes = _run("--workload", workload, "--seed", "3", "--seconds", "0")
    shape = TINY[workload]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 9 + shape.releases
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert hashes


def test_reruns_print_identical_hashes(tiny):
    first = _run("--workload", "gate", "--seed", "5", "--seconds", "0")[1]
    second = _run("--workload", "gate", "--seed", "5", "--seconds", "0")[1]
    assert first == second


def test_traced_run_reports_every_layer_and_adds_up(tiny):
    result, _ = _run("--workload", "fleet", "--seed", "3", "--seconds", "0", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_self_times_add_up_to_the_stage():
    tracer = trace.Tracer()
    stage = tracer.open("stage.x")
    t0 = time.perf_counter()
    tracer.close(tracer.open("a"))
    inner = tracer.open("b")
    tracer.close(tracer.open("c"))
    tracer.close(inner)
    tracer.close(stage, wall=time.perf_counter() - t0)
    assert trace.additivity_problems(tracer) == []

    stage.wall += 0.01  # the stage's own clock saw time the spans do not hold
    assert trace.additivity_problems(tracer)
    stage.wall -= 0.01
    inner.children[0].end = inner.end + 1e-4  # a child that outlives its parent
    assert trace.additivity_problems(tracer)


@pytest.fixture(scope="module")
def cycle_dir(tmp_path_factory):
    """One tiny cycle whose outputs the corruption tests tamper with."""
    root = tmp_path_factory.mktemp("cycle")
    c = corpus.generate(TINY["gate"], 11, root / "corpus")
    result = run_cycle(c, root / "work", 1)
    assert result.failed == 0, result.problems
    return c, root / "work"


def _copy(path: Path, tmp_path: Path) -> Path:
    dst = tmp_path / path.name
    shutil.copy(path, dst)
    return dst


def _edit_jsonl(path: Path, kind: str, edit) -> None:
    records = [json.loads(l) for l in path.read_text().splitlines()]
    edit([r for r in records if r.get("kind") == kind])
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def _edit_tsv(path: Path, column: str, edit) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split("\t")
    rows = [line.split("\t") for line in lines[1:]]
    j = header.index(column)
    edit(rows, j)
    path.write_text("\n".join(["\t".join(header)] + ["\t".join(r) for r in rows]) + "\n")


def test_changed_throughput_fails_the_record_check(cycle_dir, tmp_path):
    c, work = cycle_dir
    truth = checks.read_jsonl(c.history.truth_tests_file)
    records = _copy(work / "history" / "records.jsonl", tmp_path)
    assert checks.check_records(records, truth) == []

    def bump(recs):
        recs[3]["traffic"]["throughput_efficiency"] *= 1.001

    _edit_jsonl(records, "test_record", bump)
    assert checks.check_records(records, truth)


def test_flipped_verdicts_fail(cycle_dir, tmp_path):
    c, work = cycle_dir
    truth_commits = checks.read_jsonl(c.history.truth_commits_file)
    rollup = _copy(work / "history" / "analysis" / "commit_rollup.tsv", tmp_path)
    injected = {t["hash"] for t in truth_commits if t["injected"]}

    def clear_planted(rows, j):
        for r in rows:
            if r[0] in injected:
                r[j] = "clean"

    _edit_tsv(rollup, "verdict", clear_planted)
    assert checks.check_history_verdicts(rollup, truth_commits)

    (last,) = checks.read_jsonl(c.releases[-1].truth_commits_file)
    gate_rollup = work / "gate" / "analysis" / "commit_rollup.tsv"
    code = 3 if last["injected"] else 0
    assert checks.check_release_verdict(gate_rollup, code, last) == []
    flipped = _copy(gate_rollup, tmp_path)
    _edit_tsv(flipped, "verdict",
              lambda rows, j: rows[0].__setitem__(j, "clean" if rows[0][j] == "degraded" else "degraded"))
    assert checks.check_release_verdict(flipped, code, last)


def test_flipped_label_and_broken_expectations_fail(cycle_dir, tmp_path):
    c, work = cycle_dir
    truth = checks.read_jsonl(c.history.truth_tests_file)
    labels = _copy(work / "history" / "analysis" / "labels.jsonl", tmp_path)
    assert checks.check_labels(labels, truth, corpus.NOISE_STD) == []

    def flip(labs):
        labs[0]["degraded"] = not labs[0]["degraded"]

    _edit_jsonl(labels, "label", flip)
    assert checks.check_labels(labels, truth, corpus.NOISE_STD)

    flat = tmp_path / "flat.jsonl"
    shutil.copy(work / "history" / "analysis" / "labels.jsonl", flat)

    def constant_expectation(labs):
        mean = sum(l["expected_efficiency"] for l in labs) / len(labs)
        for l in labs:
            l["expected_efficiency"] = mean
            l["ratio"] = l["measured_efficiency"] / mean
            l["gating"] = checks.gating(l["ratio"], mean)
            l["degraded"] = l["gating"] == "degraded"

    _edit_jsonl(flat, "label", constant_expectation)
    problems = checks.check_labels(flat, truth, corpus.NOISE_STD)
    assert len(problems) == 1 and "median clean-test" in problems[0]


def test_risk_above_one_fails_the_score_check(cycle_dir, tmp_path):
    c, work = cycle_dir
    hashes = [t["hash"] for t in checks.read_jsonl(c.history.truth_commits_file)]
    scores = _copy(work / "history" / "scores.tsv", tmp_path)
    assert checks.check_scores(scores, hashes) == []
    _edit_tsv(scores, "risk", lambda rows, j: rows[0].__setitem__(j, "1.2"))
    assert checks.check_scores(scores, hashes)


def test_other_corruptions_fail(cycle_dir, tmp_path):
    c, work = cycle_dir
    decomposition = _copy(work / "history" / "decomposition.tsv", tmp_path)
    assert checks.check_decomposition(decomposition) == []
    _edit_tsv(decomposition, "score", lambda rows, j: rows[1].__setitem__(j, "-0.2"))
    assert checks.check_decomposition(decomposition)

    truth_commits = checks.read_jsonl(c.history.truth_commits_file)
    features = _copy(work / "history" / "features.jsonl", tmp_path)
    assert checks.check_features(features, truth_commits) == []
    _edit_jsonl(features, "commit_features", lambda recs: recs[0].__setitem__("affected", ["RRC", "PHY"]))
    assert checks.check_features(features, truth_commits)

    truth = checks.read_jsonl(c.history.truth_tests_file)
    rows = _copy(work / "history" / "rows.jsonl", tmp_path)
    assert checks.check_rows(rows, truth) == []
    rows.write_text("".join(rows.read_text().splitlines(keepends=True)[1:]))
    assert checks.check_rows(rows, truth)

    summary = _copy(work / "history" / "report" / "summary.txt", tmp_path)
    rollup = work / "history" / "analysis" / "commit_rollup.tsv"
    assert checks.check_report(summary, rollup) == []
    summary.write_text(summary.read_text().replace("commits degraded: ", "commits degraded: 9"))
    assert checks.check_report(summary, rollup)


def test_missing_sources_exit_nonzero(tmp_path):
    shutil.copytree(ROOT / "cibench", tmp_path / "cibench",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "cibench/run.py", "--workload", "gate", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
