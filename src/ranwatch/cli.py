"""Command line pipeline driver.

Subcommands mirror the pipeline stages: synth, ingest, categorize,
assemble, decompose, train-baseline, analyze, train-risk, score, report.
Every stage reads and writes files, never global state, so stages can be
re-run individually and reruns with identical inputs produce identical
bytes.

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

import numpy as np

from . import assemble as assemble_mod
from . import baseline as baseline_mod
from . import commitcat
from . import ingest as ingest_mod
from . import refine
from . import residual as residual_mod
from . import risk as risk_mod
from . import stats
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
        assigned = ingest_mod.assign_commit(entry.test_id, commits) if commits else None
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


_DECOMP_TARGETS = ("efficiency", "packet_loss", "jitter")
_CHANNEL_COLUMNS = ("rsrp", "sinr", "dl_bler", "ul_bler")
_LOAD_COLUMNS = ("target_rate",)


def _discretize_column(values: np.ndarray, n_bins: int, name: str) -> np.ndarray:
    """Quantile-bin numeric columns; small vocabularies pass through."""
    distinct = np.unique(values)
    if distinct.size <= n_bins:
        return np.searchsorted(distinct, values)
    return stats.discretize(values, n_bins=n_bins, name=name).labels


def _decomposition_groups(rows: list) -> dict[str, list[tuple[str, np.ndarray]]]:
    """Raw factor columns per group, median-imputed where measurements gap."""
    groups: dict[str, list[tuple[str, np.ndarray]]] = {
        "channel": [],
        "load": [],
        "code": [],
    }
    env = baseline_mod.build_feature_matrix(
        _CHANNEL_COLUMNS + _LOAD_COLUMNS, [row.env for row in rows]
    )
    for j, col in enumerate(env.vectorizer.columns):
        group = "load" if col in _LOAD_COLUMNS else "channel"
        groups[group].append((col, env.values[:, j]))
    for name in commitcat.FEATURE_NAMES[: len(commitcat.CATEGORIES)]:
        values = np.array([row.commit[name] for row in rows], dtype=float)
        groups["code"].append((name, values))
    return groups


def _cmd_decompose(args: argparse.Namespace) -> int:
    if args.max_bins < 2:
        raise ConfigError("max_bins must be >= 2")
    rows = assemble_mod.load_rows(args.rows)
    raw_groups = _decomposition_groups(rows)
    out_rows = []
    for target in _DECOMP_TARGETS:
        values = [getattr(row, target) for row in rows]
        keep = [i for i, v in enumerate(values) if v is not None]
        if len(keep) < 2:
            continue
        y = np.array([values[i] for i in keep], dtype=float)
        if float(np.var(y)) == 0.0:
            continue
        binned: dict[str, list[np.ndarray]] = {}
        for group, columns in raw_groups.items():
            binned[group] = [
                _discretize_column(vals[keep], args.max_bins, name) for name, vals in columns
            ]
        for group in ("channel", "load", "code"):
            conditioning = [
                col
                for other in ("channel", "load", "code")
                if other != group
                for col in binned[other]
            ]
            report = stats.variance_explained(y, binned[group], conditioning)
            out_rows.append(
                (group, target, report.score, report.n_rows, report.n_groups)
            )
    if not out_rows:
        raise DataError("no decomposable targets with variance in the rows")
    _write_tsv(
        Path(args.out),
        ("factor", "target", "score", "n_rows", "n_groups"),
        out_rows,
    )
    for group, target, score, _, _ in out_rows:
        print(f"{group:>8} -> {target}: {score:.4f}")
    return EXIT_OK


def _env_matrix(rows: list) -> baseline_mod.FeatureMatrix:
    return baseline_mod.build_feature_matrix(
        assemble_mod.ENV_FEATURES, [row.env for row in rows]
    )


def _cmd_train_baseline(args: argparse.Namespace) -> int:
    params = _params(baseline_mod.BaselineParams, args, _BASELINE_OPTIONS)
    rows = assemble_mod.load_rows(args.rows)
    train_idx, test_idx = baseline_mod.chronological_split(len(rows), args.test_fraction)
    train_rows = [rows[i] for i in train_idx]
    test_rows = [rows[i] for i in test_idx]
    matrix = _env_matrix(train_rows)
    y_train = np.array([r.efficiency for r in train_rows], dtype=float)
    model = baseline_mod.train_baseline(matrix, y_train, params, args.seed)

    X_test = model.vectorizer.transform([r.env for r in test_rows])
    y_test = np.array([r.efficiency for r in test_rows], dtype=float)
    pred = baseline_mod.predict_matrix(model, X_test)
    rates = np.array([r.target_rate for r in test_rows], dtype=float)
    metrics = {
        "efficiency": baseline_mod.regression_metrics(y_test, pred),
        "mbps": baseline_mod.regression_metrics(y_test * rates, pred * rates),
    }

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

    if args.model:
        model = baseline_mod.load_model(args.model)
        X = model.vectorizer.transform([r.env for r in rows])
        expected = baseline_mod.predict_matrix(model, X)
    else:
        y = np.array([r.efficiency for r in rows], dtype=float)
        params = _params(baseline_mod.BaselineParams, args, _BASELINE_OPTIONS)
        expected, n_oob = baseline_mod.out_of_bag_predictions(
            _env_matrix(rows), y, [r.commit_hash for r in rows], params, args.seed
        )
        quality = baseline_mod.regression_metrics(y, expected)
        _write_records_tsv(Path(args.out_dir) / "baseline_quality.tsv",
                           baseline_mod.RegressionMetrics, [("efficiency", quality)], key="unit")
        print(f"out-of-bag efficiency: r2={quality.r2:.4f} mae={quality.mae:.4g} "
              f"rmse={quality.rmse:.4g} n={quality.n}, trees per row: "
              f"min {n_oob.min()} median {np.median(n_oob):g}")

    rows = [
        dataclasses.replace(row, expected_efficiency=float(e))
        for row, e in zip(rows, expected)
    ]
    labels = residual_mod.label_rows(rows, thresholds)
    out_dir = Path(args.out_dir)
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


_RISK_COLUMNS = tuple(assemble_mod.ENV_FEATURES) + commitcat.FEATURE_NAMES


def _risk_binary_slots() -> tuple[int, ...]:
    offset = len(assemble_mod.ENV_FEATURES)
    index = {name: i for i, name in enumerate(commitcat.FEATURE_NAMES)}
    return tuple(offset + index[name] for name in commitcat.BINARY_FEATURE_NAMES)


def _cmd_train_risk(args: argparse.Namespace) -> int:
    params = _params(risk_mod.RiskParams, args, _RISK_OPTIONS)
    rows = assemble_mod.load_rows(args.rows)
    labels = load_records(args.labels, residual_mod.DegradationLabel)
    degraded_by_test = {(label.day, label.time): label.degraded for label in labels}
    y_all = []
    for row in rows:
        key = (row.day, row.time)
        if key not in degraded_by_test:
            raise DataError(f"no label for test {row.day}/{row.time}")
        y_all.append(1 if degraded_by_test[key] else 0)
    y_all = np.array(y_all, dtype=int)

    train_idx, test_idx = baseline_mod.chronological_split(len(rows), args.test_fraction)
    train_rows = [rows[i] for i in train_idx]
    matrix = baseline_mod.build_feature_matrix(
        _RISK_COLUMNS, [{**r.env, **r.commit} for r in train_rows]
    )
    y_train = y_all[train_idx]
    X_bal, y_bal, synthetic = risk_mod.balance_training_set(
        matrix.values, y_train, params, args.seed, _risk_binary_slots()
    )
    model = risk_mod.train_risk(X_bal, y_bal, params, args.seed, matrix.vectorizer)
    model.meta["n_synthetic"] = int(synthetic.sum())
    save_ensemble(model, args.out)

    test_rows = [rows[i] for i in test_idx]
    X_test = model.vectorizer.transform([{**r.env, **r.commit} for r in test_rows])
    y_test = y_all[test_idx]
    metrics = risk_mod.evaluate_classifier(model, X_test, y_test)
    lines = [
        f"model: {args.out} (hash {ensemble_hash(model)[:12]})",
        f"train: {len(train_rows)} rows ({int(synthetic.sum())} synthetic added), "
        f"test: {len(test_rows)} rows",
        f"held-out accuracy {metrics.accuracy:.4f}, confusion {metrics.confusion}",
    ]
    if metrics.positive.recall is not None:
        lines.append(
            f"degraded class: precision={_fmt(metrics.positive.precision)} "
            f"recall={_fmt(metrics.positive.recall)} f1={_fmt(metrics.positive.f1)}"
        )
    if len(set(y_test.tolist())) == 2:
        auc = risk_mod.roc_auc(y_test, risk_mod.predict_proba(model, X_test))
        lines.append(f"held-out auc {auc:.4f}")
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
    X = model.vectorizer.transform([f.as_dict() for f in features])
    proba = risk_mod.predict_proba(model, X).tolist()
    out_rows = [(f.commit_hash, p, p >= args.threshold) for f, p in zip(features, proba)]
    out_rows.sort(key=lambda r: (-r[1], r[0]))
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
