"""One CI cycle: retrain on the history, then gate every release.

Every stage runs in-process through ``ranwatch.cli.main``, exactly as the
command line would run it. An operation is one history stage call or one
gated release (its five calls together); it fails on an unexpected exit
code, an exception, or a failed output check. Only the stage calls are
timed; the checks run between them, outside the clock.

Gated releases write into one reused directory, as a CI job's workspace
would, so after the first release the stages overwrite their outputs
and the gate phase leaves no files behind.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

from ranwatch import cli

from . import checks
from .corpus import NOISE_STD, Corpus

EXIT_OK, EXIT_DEGRADED = 0, 3


@dataclass
class CycleResult:
    stage_s: dict[str, float] = field(default_factory=dict)
    ingest_s: float = 0.0
    gate_s: list[float] = field(default_factory=list)
    n_tests: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)

    @property
    def busy_s(self) -> float:
        """Wall time of every timed stage call in the cycle."""
        return sum(self.stage_s.values()) + sum(self.gate_s)


def _stage(argv: list[str], tracer) -> tuple[int, float, str]:
    """Run one stage; returns (exit code, seconds, captured output)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        span = tracer.open(f"stage.{argv[0]}") if tracer else None
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        finally:
            elapsed = time.perf_counter() - t0
            if span is not None:
                tracer.close(span, wall=elapsed)
    return code, elapsed, sink.getvalue()


def _digest(paths: list[Path], into: dict, root: Path) -> None:
    for path in paths:
        name = str(path.relative_to(root))
        into.setdefault(name, hashlib.sha256()).update(path.read_bytes())


def _outputs(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*") if p.is_file())


def run_cycle(corpus: Corpus, work: Path, concurrency: int, tracer=None) -> CycleResult:
    out = CycleResult()
    hist = corpus.history
    truth_tests = checks.read_jsonl(hist.truth_tests_file, "truth_test")
    truth_commits = checks.read_jsonl(hist.truth_commits_file, "truth_commit")
    w = work / "history"
    analysis = w / "analysis"

    def op(name: str, argv: list[str], expect: tuple[int, ...], verify) -> int | None:
        out.attempted += 1
        try:
            code, elapsed, log = _stage(argv, tracer)
        except Exception as exc:  # a crash is a failed operation, not a dead benchmark
            out.failed += 1
            out.problems.append(f"{name}: raised {exc!r}")
            return None
        out.stage_s[name] = elapsed
        problems = [f"exit code {code}: {log.strip()[-300:]}"] if code not in expect else verify()
        if problems:
            out.failed += 1
            out.problems.extend(f"{name}: {p}" for p in problems[:5])
        return code

    op("ingest", ["ingest", "--dataset", str(hist.dataset_dir), "--commits", str(hist.commits_file),
                  "--out", str(w / "records.jsonl")], (EXIT_OK,),
       lambda: checks.check_records(w / "records.jsonl", truth_tests))
    out.ingest_s = out.stage_s.get("ingest", 0.0)
    categorize = ["--refine", "stub", "--concurrency", str(concurrency)]
    op("categorize", ["categorize", "--commits", str(hist.commits_file),
                      "--out", str(w / "features.jsonl"), *categorize], (EXIT_OK,),
       lambda: checks.check_features(w / "features.jsonl", truth_commits))
    op("assemble", ["assemble", "--records", str(w / "records.jsonl"), "--features",
                    str(w / "features.jsonl"), "--commits", str(hist.commits_file),
                    "--out", str(w / "rows.jsonl")], (EXIT_OK,),
       lambda: checks.check_rows(w / "rows.jsonl", truth_tests))
    op("decompose", ["decompose", "--rows", str(w / "rows.jsonl"),
                     "--out", str(w / "decomposition.tsv")], (EXIT_OK,),
       lambda: checks.check_decomposition(w / "decomposition.tsv"))
    op("train-baseline", ["train-baseline", "--rows", str(w / "rows.jsonl"), "--out",
                          str(w / "baseline.json"), "--metrics", str(w / "baseline_metrics.tsv")],
       (EXIT_OK,), lambda: checks.check_regression_metrics(w / "baseline_metrics.tsv"))
    op("analyze", ["analyze", "--rows", str(w / "rows.jsonl"), "--out-dir", str(analysis)],
       (EXIT_OK, EXIT_DEGRADED),
       lambda: checks.check_labels(analysis / "labels.jsonl", truth_tests, NOISE_STD)
       + checks.check_history_verdicts(analysis / "commit_rollup.tsv", truth_commits))
    op("train-risk", ["train-risk", "--rows", str(w / "rows.jsonl"), "--labels",
                      str(analysis / "labels.jsonl"), "--out", str(w / "risk.json"),
                      "--metrics", str(w / "risk_metrics.tsv"), "--estimators", "100"],
       (EXIT_OK,), lambda: checks.check_classifier_metrics(w / "risk_metrics.tsv"))
    op("score", ["score", "--model", str(w / "risk.json"), "--features", str(w / "features.jsonl"),
                 "--out", str(w / "scores.tsv")], (EXIT_OK,),
       lambda: checks.check_scores(w / "scores.tsv", [c["hash"] for c in truth_commits]))
    op("report", ["report", "--labels", str(analysis / "labels.jsonl"),
                  "--out-dir", str(w / "report")], (EXIT_OK,),
       lambda: checks.check_report(w / "report" / "summary.txt", analysis / "commit_rollup.tsv"))
    digests: dict = {}
    _digest(_outputs(w), digests, work)
    out.n_tests = len(truth_tests)

    g = work / "gate"
    for release in corpus.releases:
        out.attempted += 1
        r_tests = checks.read_jsonl(release.truth_tests_file, "truth_test")
        (r_commit,) = checks.read_jsonl(release.truth_commits_file, "truth_commit")
        gate = [
            ["ingest", "--dataset", str(release.dataset_dir), "--commits",
             str(release.commits_file), "--out", str(g / "records.jsonl")],
            ["categorize", "--commits", str(release.commits_file),
             "--out", str(g / "features.jsonl"), *categorize],
            ["assemble", "--records", str(g / "records.jsonl"), "--features",
             str(g / "features.jsonl"), "--commits", str(release.commits_file),
             "--out", str(g / "rows.jsonl")],
            ["analyze", "--rows", str(g / "rows.jsonl"), "--out-dir", str(g / "analysis"),
             "--model", str(w / "baseline.json")],
            ["score", "--model", str(w / "risk.json"), "--features", str(g / "features.jsonl"),
             "--out", str(g / "scores.tsv")],
        ]
        codes, seconds, problems = [], 0.0, []
        try:
            for argv in gate:
                code, elapsed, log = _stage(argv, tracer)
                codes.append(code)
                seconds += elapsed
                if argv[0] == "ingest":
                    out.ingest_s += elapsed
                if code not in ((EXIT_OK, EXIT_DEGRADED) if argv[0] == "analyze" else (EXIT_OK,)):
                    problems.append(f"{argv[0]} exit code {code}: {log.strip()[-300:]}")
                    break
        except Exception as exc:
            problems.append(f"raised {exc!r}")
        if not problems:
            problems = (
                checks.check_records(g / "records.jsonl", r_tests)
                + checks.check_features(g / "features.jsonl", [r_commit])
                + checks.check_labels(g / "analysis" / "labels.jsonl", r_tests, None)
                + checks.check_release_verdict(g / "analysis" / "commit_rollup.tsv", codes[3], r_commit)
                + checks.check_scores(g / "scores.tsv", [r_commit["hash"]])
            )
        if problems:
            out.failed += 1
            out.problems.extend(f"release {r_commit['hash'][:12]}: {p}" for p in problems[:5])
        else:  # only releases whose gate time is in busy_s count towards tests_per_s
            out.gate_s.append(seconds)
            out.n_tests += len(r_tests)
            _digest(_outputs(g), digests, work)
    out.hashes = {name: h.hexdigest() for name, h in sorted(digests.items())}
    return out
