"""Command line pipeline driver.

Subcommands mirror the pipeline stages: synth, ingest, categorize,
assemble, decompose, train-baseline, analyze, train-risk, score, report.
Every stage reads and writes files, never global state, so stages can be
re-run individually and reruns with identical inputs produce identical
bytes. This module only parses flags and config files, reads a stage's
inputs, calls the library modules that compute the stage, writes what
they return and prints a summary.

Exit codes: 0 success, 1 unusable input data, 2 bad configuration or
usage, 3 analysis completed and found at least one degraded commit.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

from . import assemble as assemble_mod
from . import baseline as baseline_mod
from . import commitcat
from . import ingest as ingest_mod
from . import refine
from . import residual as residual_mod
from . import risk as risk_mod
from . import synthgen
from .errors import ConfigError, DataError, RanwatchError
from .store import load_commits, load_records, write_records
from .trees import ensemble_hash, save_ensemble

EXIT_OK = 0
EXIT_DATA = 1
EXIT_CONFIG = 2
EXIT_DEGRADED = 3


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _write_tsv(path: Path, header: tuple[str, ...], rows: list[tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["\t".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError("tsv row width does not match header")
        lines.append("\t".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_records_tsv(path: Path, cls, records, key: str | None = None) -> None:
    """One row per dataclass record, one column per field of ``cls`` in
    field order. With ``key``, ``records`` holds ``(value, record)`` pairs
    and a leading column of that name holds the values."""
    header = tuple(f.name for f in dataclasses.fields(cls))
    if key is None:
        _write_tsv(path, header, [dataclasses.astuple(r) for r in records])
    else:
        rows = [(value, *dataclasses.astuple(r)) for value, r in records]
        _write_tsv(path, (key, *header), rows)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{p}: config must be a JSON object")
    return cfg


# Defaults of the options that feed no parameter dataclass. Any other option
# defaults to None: its dataclass default, or for target_rate each CSV name's rate.
_DEFAULTS = {
    "seed": 0, "test_fraction": 0.2, "retries": 2, "concurrency": 4,
    "refine": "none", "max_bins": 5, "threshold": 0.5, "min_degraded": 2,
    "floors": (0.8, 0.85, 0.9, 0.95, 0.98),
}


def _add_option(p: argparse.ArgumentParser, flag: str, **kwargs) -> None:
    """Add a flag whose value a config file may also set, under its dest."""
    action = p.add_argument(flag, **kwargs)
    p.set_defaults(options=(*(p.get_default("options") or ()), action))


def _from_config(action: argparse.Action, value):
    """A config value converted by its flag's ``type``, as if typed after it."""
    try:
        if action.nargs is None:
            return action.type(str(value))
        if not isinstance(value, list) or not value:
            raise ValueError(f"expected a non-empty list, got {value!r}")
        return [action.type(str(v)) for v in value]
    except ValueError as exc:
        raise ConfigError(f"{action.dest}: {exc}") from exc


def _set_options(args: argparse.Namespace) -> None:
    """Give each option of the stage its value: the flag if typed, else the
    config file's key of the same name, else the default."""
    cfg = _load_config(getattr(args, "config", None))
    for action in getattr(args, "options", ()):
        name = action.dest
        if getattr(args, name) is None and name in cfg:
            setattr(args, name, _from_config(action, cfg[name]))
        if getattr(args, name) is None:
            setattr(args, name, _DEFAULTS.get(name))


def _params(cls, args: argparse.Namespace, options: dict[str, str]):
    """A parameter dataclass from the options that are set.

    ``options`` maps a field of ``cls`` to its option. A field no flag or
    config key sets keeps its dataclass default, the one place hyperparameter
    defaults live.
    """
    kwargs = {name: getattr(args, option) for name, option in options.items()}
    return cls(**{name: value for name, value in kwargs.items() if value is not None})


# parameter field -> option
_BASELINE_OPTIONS = {"n_trees": "trees", "max_depth": "depth"}
_RISK_OPTIONS = {
    "n_estimators": "estimators",
    "max_depth": "depth",
    "learning_rate": "learning_rate",
    "min_samples_leaf": "min_samples_leaf",
    "smote_k": "smote_k",
}
_THRESHOLD_OPTIONS = {"ratio_floor": "ratio_floor", "min_expected_efficiency": "min_expected"}


# the built-in demo scenario, shipped with the package as a template for custom ones
_DEMO_SCENARIO = Path(__file__).parent / "defaults" / "scenario_demo.json"


def _make_refine_client(mode: str, retries: int) -> refine.RefinementClient | None:
    if mode == "none":
        return None
    if mode == "stub":
        return refine.RefinementClient(refine.EchoStubTransport(), retries=retries)
    if "://" in mode:
        return refine.RefinementClient(refine.HttpTextTransport(mode), retries=retries)
    raise ConfigError(f"refine must be 'stub', 'none', or a URL, got {mode!r}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = synthgen.load_scenario(args.scenario or _DEMO_SCENARIO)
    corpus = synthgen.generate(spec, args.out)
    print(f"dataset: {corpus.dataset_dir}")
    print(f"commits: {corpus.commits_file}")
    print(f"truth: {corpus.truth_tests_file} {corpus.truth_commits_file}")
    return EXIT_OK


def _cmd_ingest(args: argparse.Namespace) -> int:
    if args.target_rate is not None and not 0.0 < args.target_rate < math.inf:
        raise ConfigError(f"target_rate: must be finite and positive, got {args.target_rate}")
    rules = (
        ingest_mod.load_log_rules(args.log_rules)
        if args.log_rules
        else ingest_mod.default_log_rules()
    )
    commits = load_commits(args.commits) if args.commits else []
    entries, warnings = ingest_mod.scan_dataset(args.dataset)
    for warning in warnings:
        print(f"warning: {warning.path}: {warning.reason}", file=sys.stderr)
    records = []
    rejected = 0
    for entry in entries:
        assigned = ingest_mod.assign_commit(entry.test_id, commits)
        commit_hash = assigned.hash if assigned else None
        try:
            record = ingest_mod.build_test_record(
                entry.test_id,
                entry,
                rules,
                commit_hash,
                target_rate=args.target_rate,
            )
        except DataError as exc:
            rejected += 1
            print(f"warning: {entry.test_id}: {exc}", file=sys.stderr)
            continue
        records.append(record.encode())
    if not records:
        raise DataError("no usable test records in dataset")
    write_records(args.out, records)
    print(f"ingested {len(records)} tests, rejected {rejected}, warnings {len(warnings)}")
    return EXIT_OK


def _cmd_categorize(args: argparse.Namespace) -> int:
    config = (
        commitcat.load_rule_config(args.rules)
        if args.rules
        else commitcat.default_rule_config()
    )
    outcomes = commitcat.categorize_commits(
        load_commits(args.commits),
        config,
        client=_make_refine_client(args.refine, args.retries),
        concurrency=args.concurrency,
    )
    records = []
    status_counts: dict[str, int] = {}
    for commit, result, status in outcomes:
        status_counts[status] = status_counts.get(status, 0) + 1
        features = commitcat.build_feature_vector(commit, result)
        record = features.encode()
        record["affected"] = sorted(result.affected)
        record["confidence"] = result.confidence
        record["change_type"] = result.change_type
        record["status"] = status
        records.append(record)
    degraded_mode = status_counts.get("fallback_unreachable", 0) > 0
    records.append(
        {
            "kind": "categorize_status",
            "n_commits": len(outcomes),
            "counts": dict(sorted(status_counts.items())),
            "degraded_mode": degraded_mode,
        }
    )
    write_records(args.out, records)
    if degraded_mode:
        print(
            "warning: refinement endpoint unreachable, keyword drafts used as-is",
            file=sys.stderr,
        )
    summary = ", ".join(f"{k}={v}" for k, v in sorted(status_counts.items()))
    print(f"categorized {len(outcomes)} commits ({summary})")
    return EXIT_OK


def _cmd_assemble(args: argparse.Namespace) -> int:
    test_records = load_records(args.records, ingest_mod.TestRecord)
    features = {f.commit_hash: f for f in load_records(args.features, commitcat.CommitFeatures)}
    commits = load_commits(args.commits)
    rows, skipped = assemble_mod.assemble_rows(test_records, features, commits)
    for test_id, reason in skipped:
        print(f"warning: skipped {test_id}: {reason}", file=sys.stderr)
    write_records(args.out, [row.encode() for row in rows])
    print(f"assembled {len(rows)} rows, skipped {len(skipped)}")
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    if args.max_bins < 2:
        raise ConfigError("max_bins must be >= 2")
    shares = residual_mod.decompose(assemble_mod.load_rows(args.rows), args.max_bins)
    _write_records_tsv(Path(args.out), residual_mod.VarianceShare, shares)
    for s in shares:
        print(f"{s.factor:>8} -> {s.target}: {s.score:.4f}")
    return EXIT_OK


def _cmd_train_baseline(args: argparse.Namespace) -> int:
    params = _params(baseline_mod.BaselineParams, args, _BASELINE_OPTIONS)
    model, metrics = baseline_mod.train_on_rows(
        assemble_mod.load_rows(args.rows), params, args.seed, args.test_fraction
    )
    save_ensemble(model, args.out)
    if args.metrics:
        _write_records_tsv(
            Path(args.metrics), baseline_mod.RegressionMetrics, metrics.items(), key="unit"
        )
    print(f"model: {args.out} (hash {ensemble_hash(model)[:12]})")
    for unit, m in metrics.items():
        print(f"held-out {unit}: r2={m.r2:.4f} mae={m.mae:.4g} rmse={m.rmse:.4g} n={m.n}")
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    thresholds = _params(residual_mod.Thresholds, args, _THRESHOLD_OPTIONS)
    rows = assemble_mod.load_rows(args.rows)
    out_dir = Path(args.out_dir)
    if args.model:
        model = baseline_mod.load_model(args.model)
        rows = baseline_mod.with_expectations(rows, baseline_mod.predict_rows(model, rows))
    else:
        params = _params(baseline_mod.BaselineParams, args, _BASELINE_OPTIONS)
        rows, oob = baseline_mod.out_of_bag_rows(rows, params, args.seed)
        _write_records_tsv(out_dir / "baseline_quality.tsv",
                           baseline_mod.RegressionMetrics, [("efficiency", oob.fit)], key="unit")
        print(f"out-of-bag efficiency: r2={oob.fit.r2:.4f} mae={oob.fit.mae:.4g} "
              f"rmse={oob.fit.rmse:.4g} n={oob.fit.n}, trees per row: "
              f"min {oob.min_trees} median {oob.median_trees:g}")

    labels = residual_mod.label_rows(rows, thresholds)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_records(out_dir / "labels.jsonl", [l.encode() for l in labels])

    summary = residual_mod.summarize(labels, thresholds)
    _write_tsv(
        out_dir / "residual_summary.tsv",
        ("metric", "value"),
        [(k, getattr(summary, k)) for k in summary.__dataclass_fields__],
    )
    layers = residual_mod.layer_impact_table(labels)
    _write_records_tsv(out_dir / "layer_impact.tsv", residual_mod.LayerImpact, layers)
    rollups = residual_mod.commit_rollup(labels, min_degraded=args.min_degraded)
    _write_records_tsv(out_dir / "commit_rollup.tsv", residual_mod.CommitRollup, rollups)
    _write_tsv(
        out_dir / "residual_hist.tsv",
        ("bin_lo", "bin_hi", "count"),
        residual_mod.ratio_histogram(labels),
    )
    temporal = {t.commit_hash: t for t in residual_mod.temporal_scores(labels, thresholds)}
    _write_tsv(
        out_dir / "temporal_comparison.tsv",
        ("commit_hash", "residual_verdict", "temporal_score", "temporal_flag"),
        [
            (
                r.commit_hash,
                r.verdict,
                temporal[r.commit_hash].score,
                temporal[r.commit_hash].flagged,
            )
            for r in rollups
        ],
    )
    n_bad = sum(1 for r in rollups if r.verdict == "degraded")
    print(
        f"labeled {len(labels)} tests: {summary.n_degraded} degraded, "
        f"{n_bad} commits rolled up as degraded"
    )
    return EXIT_DEGRADED if n_bad else EXIT_OK


def _cmd_train_risk(args: argparse.Namespace) -> int:
    params = _params(risk_mod.RiskParams, args, _RISK_OPTIONS)
    rows = assemble_mod.load_rows(args.rows)
    labels = load_records(args.labels, residual_mod.DegradationLabel)
    model, metrics, n_train = risk_mod.train_on_rows(rows, labels, params, args.seed,
                                                     args.test_fraction)
    save_ensemble(model, args.out)
    lines = [
        f"model: {args.out} (hash {ensemble_hash(model)[:12]})",
        f"train: {n_train} rows ({model.meta['n_synthetic']} synthetic added), "
        f"test: {sum(metrics.confusion.values())} rows",
        f"held-out accuracy {metrics.accuracy:.4f}, confusion {metrics.confusion}",
    ]
    if metrics.positive.recall is not None:
        lines.append(
            f"degraded class: precision={_fmt(metrics.positive.precision)} "
            f"recall={_fmt(metrics.positive.recall)} f1={_fmt(metrics.positive.f1)}"
        )
    if metrics.auc is not None:
        lines.append(f"held-out auc {metrics.auc:.4f}")
    if args.metrics:
        _write_records_tsv(
            Path(args.metrics),
            risk_mod.ClassReport,
            [("degraded", metrics.positive), ("clean", metrics.negative)],
            key="class",
        )
    print("\n".join(lines))
    return EXIT_OK


def _cmd_score(args: argparse.Namespace) -> int:
    model = risk_mod.load_model(args.model)
    features = load_records(args.features, commitcat.CommitFeatures)
    if not features:
        raise DataError(f"no commit features in {args.features}")
    out_rows = risk_mod.score_commits(model, features, args.threshold)
    _write_tsv(Path(args.out), ("commit_hash", "risk", "flagged"), out_rows)
    flagged = sum(1 for r in out_rows if r[2])
    print(f"scored {len(out_rows)} commits, {flagged} above {args.threshold:g}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    thresholds = _params(residual_mod.Thresholds, args, _THRESHOLD_OPTIONS)
    labels = load_records(args.labels, residual_mod.DegradationLabel)
    if not labels:
        raise DataError(f"no labels in {args.labels}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = residual_mod.summarize(labels, thresholds)
    rollups = residual_mod.commit_rollup(labels, min_degraded=args.min_degraded)
    tradeoff = residual_mod.coverage_tradeoff(labels, args.floors, thresholds)
    _write_tsv(
        out_dir / "floor_tradeoff.tsv",
        ("floor", "retained_fraction", "flagged_tests", "retained_std"),
        tradeoff,
    )
    lines = [
        "throughput attribution report",
        "",
        f"tests analyzed: {summary.n}",
        f"mean ratio: {summary.mean_ratio:.4f}  median: {summary.median_ratio:.4f}",
        f"below floor {thresholds.ratio_floor:g}: {summary.frac_below_floor:.1%}",
        f"degraded tests: {summary.n_degraded}",
    ]
    if summary.welch_p is not None:
        lines.append(
            f"degraded vs rest: t={summary.welch_t:.3f} p={summary.welch_p:.3g} "
            f"d={summary.cohens_d:.3f}"
        )
    degraded_commits = [r for r in rollups if r.verdict == "degraded"]
    lines.append(f"commits degraded: {len(degraded_commits)} of {len(rollups)}")
    for r in degraded_commits:
        lines.append(
            f"  {r.commit_hash[:12]}  {r.n_degraded}/{r.n_tests} tests, "
            f"min ratio {r.min_ratio:.3f}"
        )
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process; parsing
    leaves it unchanged, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="ranwatch",
        description="attribute throughput changes to code or environment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset with ground truth")
    p.add_argument("--scenario", help="scenario JSON (omit for the built-in demo)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="parse raw test artifacts into records")
    p.add_argument("--dataset", required=True)
    p.add_argument("--commits")
    p.add_argument("--out", required=True)
    p.add_argument("--log-rules")
    _add_option(p, "--target-rate", type=float)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("categorize", help="map commit messages to categories")
    p.add_argument("--commits", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rules")
    _add_option(p, "--refine", type=str, help="stub, none, or a refiner URL")
    _add_option(p, "--retries", type=int)
    _add_option(p, "--concurrency", type=int)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_categorize)

    p = sub.add_parser("assemble", help="join tests with commit features")
    p.add_argument("--records", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--commits", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_assemble)

    p = sub.add_parser("decompose", help="variance shares of channel, load, code")
    p.add_argument("--rows", required=True)
    p.add_argument("--out", required=True)
    _add_option(p, "--max-bins", type=int)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("train-baseline", help="fit the environment-only model")
    p.add_argument("--rows", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--metrics")
    _add_option(p, "--seed", type=int)
    _add_option(p, "--trees", type=int)
    _add_option(p, "--depth", type=int)
    _add_option(p, "--test-fraction", type=float)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_train_baseline)

    p = sub.add_parser("analyze", help="label tests and roll up commit verdicts")
    p.add_argument("--rows", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--model", help="baseline model file (omit for out-of-bag expectations)")
    _add_option(p, "--ratio-floor", type=float)
    _add_option(p, "--min-expected", type=float)
    _add_option(p, "--min-degraded", type=int)
    _add_option(p, "--seed", type=int)
    _add_option(p, "--trees", type=int)
    _add_option(p, "--depth", type=int)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("train-risk", help="fit the commit risk classifier")
    p.add_argument("--rows", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--metrics")
    _add_option(p, "--seed", type=int)
    _add_option(p, "--estimators", type=int)
    _add_option(p, "--depth", type=int)
    _add_option(p, "--learning-rate", type=float)
    _add_option(p, "--min-samples-leaf", type=int)
    _add_option(p, "--smote-k", type=int)
    _add_option(p, "--test-fraction", type=float)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_train_risk)

    p = sub.add_parser("score", help="score commits with a trained risk model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    _add_option(p, "--threshold", type=float)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("report", help="summarize analysis output")
    p.add_argument("--labels", required=True)
    p.add_argument("--out-dir", required=True)
    _add_option(p, "--ratio-floor", type=float)
    _add_option(p, "--min-expected", type=float)
    _add_option(p, "--min-degraded", type=int)
    _add_option(p, "--floors", nargs="+", type=float)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _set_options(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except RanwatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
