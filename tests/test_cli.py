"""End-to-end runs of the command line, exercising every subcommand."""

from __future__ import annotations

import base64
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ranwatch.baseline import regression_metrics
from ranwatch.cli import EXIT_CONFIG, EXIT_DATA, EXIT_DEGRADED, EXIT_OK, build_parser, main
from ranwatch.store import read_records


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_tsv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    return header, [line.split("\t") for line in lines[1:]]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole chain once on the built-in demo scenario."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = {
        "corpus": root / "corpus",
        "records": root / "records.jsonl",
        "features": root / "features.jsonl",
        "rows": root / "rows.jsonl",
        "decomp": root / "decomposition.tsv",
        "baseline": root / "baseline.json",
        "baseline_metrics": root / "baseline_metrics.tsv",
        "analysis": root / "analysis",
        "risk": root / "risk.json",
        "risk_metrics": root / "risk_metrics.tsv",
        "scores": root / "scores.tsv",
        "report": root / "report",
    }
    codes = {}
    codes["synth"] = main(["synth", "--out", str(paths["corpus"])])
    dataset = paths["corpus"] / "dataset"
    commits = paths["corpus"] / "commits.jsonl"
    codes["ingest"] = main(
        ["ingest", "--dataset", str(dataset), "--commits", str(commits), "--out", str(paths["records"])]
    )
    codes["categorize"] = main(
        ["categorize", "--commits", str(commits), "--out", str(paths["features"])]
    )
    codes["assemble"] = main(
        [
            "assemble",
            "--records", str(paths["records"]),
            "--features", str(paths["features"]),
            "--commits", str(commits),
            "--out", str(paths["rows"]),
        ]
    )
    codes["decompose"] = main(["decompose", "--rows", str(paths["rows"]), "--out", str(paths["decomp"])])
    codes["train-baseline"] = main(
        [
            "train-baseline",
            "--rows", str(paths["rows"]),
            "--out", str(paths["baseline"]),
            "--metrics", str(paths["baseline_metrics"]),
        ]
    )
    codes["analyze"] = main(
        ["analyze", "--rows", str(paths["rows"]), "--out-dir", str(paths["analysis"])]
    )
    codes["train-risk"] = main(
        [
            "train-risk",
            "--rows", str(paths["rows"]),
            "--labels", str(paths["analysis"] / "labels.jsonl"),
            "--out", str(paths["risk"]),
            "--metrics", str(paths["risk_metrics"]),
        ]
    )
    codes["score"] = main(
        [
            "score",
            "--model", str(paths["risk"]),
            "--features", str(paths["features"]),
            "--out", str(paths["scores"]),
        ]
    )
    codes["report"] = main(
        ["report", "--labels", str(paths["analysis"] / "labels.jsonl"), "--out-dir", str(paths["report"])]
    )
    return {"paths": paths, "codes": codes, "root": root}


def test_stage_exit_codes(pipeline):
    codes = pipeline["codes"]
    for stage, code in codes.items():
        if stage == "analyze":
            continue
        assert code == EXIT_OK, stage
    # the demo scenario plants two regressions, so analyze must signal them
    assert codes["analyze"] == EXIT_DEGRADED


def test_rollup_flags_exactly_the_planted_commits(pipeline):
    header, rows = _read_tsv(pipeline["paths"]["analysis"] / "commit_rollup.tsv")
    verdicts = {row[header.index("commit_hash")]: row[header.index("verdict")] for row in rows}
    assert sorted(verdicts.values()).count("degraded") == 2
    marks = read_records(pipeline["paths"]["corpus"] / "truth_commits.jsonl", kind="truth_commit")
    injected = {m["hash"] for m in marks if m["injected"]}
    assert {h for h, v in verdicts.items() if v == "degraded"} == injected


def test_categorize_output_shape(pipeline):
    features = read_records(pipeline["paths"]["features"], kind="commit_features")
    assert len(features) == 12
    for record in features:
        # without a refiner the only statuses are the keyword short-circuit
        # for high confidence and the explicit no-client marker
        assert record["status"] in ("keyword_high", "not_refined")
        assert record["confidence"] in ("high", "medium", "low")
    status = read_records(pipeline["paths"]["features"], kind="categorize_status")
    assert len(status) == 1
    assert status[0]["n_commits"] == 12
    assert not status[0]["degraded_mode"]


def test_decompose_table_is_sane(pipeline):
    header, rows = _read_tsv(pipeline["paths"]["decomp"])
    assert header[:3] == ["factor", "target", "score"]
    shares = {}
    for row in rows:
        entry = dict(zip(header, row))
        shares[(entry["factor"], entry["target"])] = float(entry["score"])
    assert set(f for f, _ in shares) == {"channel", "load", "code"}
    assert set(t for _, t in shares) == {"efficiency", "packet_loss", "jitter"}
    for value in shares.values():
        assert -0.5 <= value <= 1.0 + 1e-9
    # the planted regressions leave a visible code share on efficiency
    assert shares[("code", "efficiency")] > 0.1


def test_score_table_sorted_by_risk(pipeline):
    header, rows = _read_tsv(pipeline["paths"]["scores"])
    risk_col = header.index("risk")
    risks = [float(row[risk_col]) for row in rows]
    assert len(risks) == 12
    assert risks == sorted(risks, reverse=True)
    assert all(0.0 <= r <= 1.0 for r in risks)


def test_report_files(pipeline):
    report_dir = pipeline["paths"]["report"]
    summary = (report_dir / "summary.txt").read_text(encoding="utf-8")
    assert "degraded" in summary
    header, rows = _read_tsv(report_dir / "floor_tradeoff.tsv")
    assert rows and "floor" in header


def test_reruns_are_byte_identical(pipeline, tmp_path):
    paths = pipeline["paths"]
    corpus2 = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus2)]) == EXIT_OK
    assert _digest(corpus2 / "commits.jsonl") == _digest(paths["corpus"] / "commits.jsonl")

    records2 = tmp_path / "records.jsonl"
    code = main(
        [
            "ingest",
            "--dataset", str(paths["corpus"] / "dataset"),
            "--commits", str(paths["corpus"] / "commits.jsonl"),
            "--out", str(records2),
        ]
    )
    assert code == EXIT_OK
    assert _digest(records2) == _digest(paths["records"])

    analysis2 = tmp_path / "analysis"
    code = main(["analyze", "--rows", str(paths["rows"]), "--out-dir", str(analysis2)])
    assert code == EXIT_DEGRADED
    for name in (
        "labels.jsonl",
        "residual_summary.tsv",
        "layer_impact.tsv",
        "commit_rollup.tsv",
        "residual_hist.tsv",
        "temporal_comparison.tsv",
    ):
        assert _digest(analysis2 / name) == _digest(paths["analysis"] / name), name


def test_analyze_is_quiet_on_clean_data(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            {"seed": 5, "n_commits": 12, "tests_per_commit": 6, "sinr_range": [8.0, 30.0]}
        ),
        encoding="utf-8",
    )
    corpus = tmp_path / "corpus"
    assert main(["synth", "--scenario", str(scenario), "--out", str(corpus)]) == EXIT_OK
    records = tmp_path / "records.jsonl"
    features = tmp_path / "features.jsonl"
    rows = tmp_path / "rows.jsonl"
    commits = corpus / "commits.jsonl"
    assert main(["ingest", "--dataset", str(corpus / "dataset"), "--commits", str(commits), "--out", str(records)]) == EXIT_OK
    assert main(["categorize", "--commits", str(commits), "--out", str(features)]) == EXIT_OK
    assert main(["assemble", "--records", str(records), "--features", str(features), "--commits", str(commits), "--out", str(rows)]) == EXIT_OK
    code = main(["analyze", "--rows", str(rows), "--out-dir", str(tmp_path / "analysis")])
    assert code == EXIT_OK


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main([]) == EXIT_CONFIG
    assert main(["no-such-command"]) == EXIT_CONFIG
    assert main(["ingest", "--dataset", str(tmp_path)]) == EXIT_CONFIG  # --out missing
    commits = tmp_path / "commits.jsonl"
    commits.write_text(
        json.dumps(
            {
                "kind": "commit",
                "schema_version": 1,
                "hash": "a" * 40,
                "deploy_time": "2025-01-06T06:00:00",
                "message": "fix mutex in scheduler",
                "files_changed": 1,
                "lines_added": 2,
                "lines_deleted": 0,
            }
        )
        + "\n",
        encoding="utf-8",
    )
    code = main(
        ["categorize", "--commits", str(commits), "--out", str(tmp_path / "f.jsonl"), "--refine", "bogus"]
    )
    assert code == EXIT_CONFIG
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["analyze", "--help"]) == 0
    capsys.readouterr()


def test_missing_input_exits_1(tmp_path):
    code = main(["ingest", "--dataset", str(tmp_path / "nope"), "--out", str(tmp_path / "r.jsonl")])
    assert code == EXIT_DATA
    code = main(["analyze", "--rows", str(tmp_path / "nope.jsonl"), "--out-dir", str(tmp_path / "a")])
    assert code == EXIT_DATA


def test_config_file_versus_flag_precedence(pipeline, tmp_path):
    rows = pipeline["paths"]["rows"]
    config = tmp_path / "config.json"
    # a rollup needing 99 degraded tests can never fire on 72 rows
    config.write_text(json.dumps({"min_degraded": 99}), encoding="utf-8")
    code = main(
        ["analyze", "--rows", str(rows), "--out-dir", str(tmp_path / "a1"), "--config", str(config)]
    )
    assert code == EXIT_OK
    code = main(
        [
            "analyze",
            "--rows", str(rows),
            "--out-dir", str(tmp_path / "a2"),
            "--config", str(config),
            "--min-degraded", "2",
        ]
    )
    assert code == EXIT_DEGRADED


def _degraded_commits(analysis: Path) -> tuple[int, int]:
    header, rows = _read_tsv(analysis / "commit_rollup.tsv")
    return sum(row[header.index("verdict")] == "degraded" for row in rows), len(rows)


def test_consecutive_main_calls_leak_no_state(pipeline, tmp_path):
    rows = str(pipeline["paths"]["rows"])
    # at a 0.95 floor two demo commits have a single degraded test
    first = ["analyze", "--rows", rows, "--ratio-floor", "0.95"]
    assert main(first + ["--out-dir", str(tmp_path / "a1"), "--min-degraded", "1"]) == EXIT_DEGRADED
    assert main(first + ["--out-dir", str(tmp_path / "a2")]) == EXIT_DEGRADED
    assert _degraded_commits(tmp_path / "a1") == (4, 12)
    assert _degraded_commits(tmp_path / "a2") == (2, 12)  # the default of 2 again
    assert main(["analyze", "--rows", rows, "--out-dir", str(tmp_path / "a3")]) == EXIT_DEGRADED
    name = "commit_rollup.tsv"
    assert _digest(tmp_path / "a3" / name) == _digest(pipeline["paths"]["analysis"] / name)
    assert build_parser() is build_parser()


def test_report_counts_the_degraded_commits_analyze_found(pipeline, tmp_path, capsys):
    rows = str(pipeline["paths"]["rows"])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"min_degraded": 1}), encoding="utf-8")
    counts = {}
    for label, option in (("1", ["--min-degraded", "1"]), ("2", []),
                          ("config", ["--config", str(config)])):
        analysis, report = tmp_path / f"analysis_{label}", tmp_path / f"report_{label}"
        assert main(["analyze", "--rows", rows, "--out-dir", str(analysis),
                     "--ratio-floor", "0.95"] + option) == EXIT_DEGRADED
        assert main(["report", "--labels", str(analysis / "labels.jsonl"),
                     "--out-dir", str(report)] + option) == EXIT_OK
        counts[label] = n_degraded, n_commits = _degraded_commits(analysis)
        summary = (report / "summary.txt").read_text(encoding="utf-8")
        assert f"commits degraded: {n_degraded} of {n_commits}" in summary
    assert counts["1"] == counts["config"] == (4, 12)
    assert counts["2"] == (2, 12)
    capsys.readouterr()


def test_out_of_bag_analyze_reports_its_baseline_quality(pipeline, tmp_path, capsys):
    rows = str(pipeline["paths"]["rows"])
    out = tmp_path / "oob"
    assert main(["analyze", "--rows", rows, "--out-dir", str(out)]) == EXIT_DEGRADED
    assert "trees per row: min " in capsys.readouterr().out
    labels = read_records(out / "labels.jsonl", kind="label")
    m = regression_metrics(np.array([l["measured_efficiency"] for l in labels]),
                           np.array([l["expected_efficiency"] for l in labels]))
    assert _read_tsv(out / "baseline_quality.tsv") == (
        ["unit", "r2", "mae", "rmse", "n"],
        [["efficiency", f"{m.r2:.6g}", f"{m.mae:.6g}", f"{m.rmse:.6g}", "72"]],
    )
    model = ["--model", str(pipeline["paths"]["baseline"])]
    assert main(["analyze", "--rows", rows, "--out-dir", str(tmp_path / "m")] + model) == EXIT_DEGRADED
    assert "out-of-bag" not in capsys.readouterr().out
    assert not (tmp_path / "m" / "baseline_quality.tsv").exists()


def test_scenario_that_is_not_an_object_exits_2(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text('"demo"', encoding="utf-8")
    assert main(["synth", "--scenario", str(scenario), "--out", str(tmp_path / "c")]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("layers", ["PDCP", ["PDCP", "LTE"]])
def test_injection_with_unknown_layers_exits_2(tmp_path, capsys, layers):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "seed": 1, "n_commits": 2, "tests_per_commit": 2,
        "injections": [{"commit_index": 1, "layers": layers, "drop": 0.4}],
    }), encoding="utf-8")
    assert main(["synth", "--scenario", str(scenario), "--out", str(tmp_path / "c")]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


# one JSON value of the wrong type for each field of a scenario and of an
# injection, then values of the right type out of range
_BAD_SCENARIO_VALUES = [("scenario", key, value) for key, value in {
    "seed": "7", "n_commits": 2.5, "tests_per_commit": True, "test_interval_hours": "16",
    "start_time": 5, "loads": [10.0, True], "sinr_range": [8.0], "rsrp_base": None,
    "rsrp_per_sinr_db": "1", "rsrp_jitter": [], "bler_scale": {}, "bler_decay": True,
    "sigmoid_a": "x", "sigmoid_b": None, "link_capacity": "90", "noise_std": True,
    "kpm_reports": 2.5, "injections": {},
}.items()] + [("injection", key, value) for key, value in {
    "commit_index": 1.0, "layers": {"PDCP": 1}, "drop": "0.4", "onset_delay": 0.5,
}.items()] + [("scenario", key, value) for key, value in [
    ("seed", -1), ("start_time", "x"), ("rsrp_jitter", -1.0), ("bler_decay", 0.0),
    ("kpm_reports", 0), ("test_interval_hours", 1e308), ("start_time", "9999-12-31T00:00:00"),
    ("loads", [1e308]),
]]


@pytest.mark.parametrize(
    "where,key,value", _BAD_SCENARIO_VALUES,
    ids=[f"{where}-{key}-{json.dumps(value)}" for where, key, value in _BAD_SCENARIO_VALUES],
)
def test_scenario_value_of_the_wrong_type_or_range_exits_2(tmp_path, capsys, where, key, value):
    scenario = {"seed": 1, "n_commits": 2, "tests_per_commit": 2,
                "injections": [{"commit_index": 1, "layers": ["PDCP"], "drop": 0.4}]}
    (scenario if where == "scenario" else scenario["injections"][0])[key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    assert main(["synth", "--scenario", str(path), "--out", str(tmp_path / "c")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and key in err
    assert not (tmp_path / "c").exists()


_BASELINE_KEYS = [
    ("hyperparameters", "n_trees"),
    ("hyperparameters", "max_depth"),
    ("hyperparameters", "seed"),
    ("columns",),
    ("imputation",),
    ("forest",),
    ("target_floor",),
    ("target_ceiling",),
]
_RISK_KEYS = [
    ("hyperparameters", "n_estimators"),
    ("hyperparameters", "max_depth"),
    ("hyperparameters", "learning_rate"),
    ("hyperparameters", "min_samples_leaf"),
    ("hyperparameters", "smote_k"),
    ("hyperparameters", "seed"),
    ("columns",),
    ("imputation",),
    ("forest",),
    ("f0",),
]


def _b64(dtype: str, values: list) -> str:
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


def _forest(feature: list[int], left: list[int], sizes: tuple[int, ...] = (3,)) -> dict:
    """A packed forest of three nodes, as a model file stores it."""
    return {"sizes": list(sizes), "feature": _b64("<i4", feature), "left": _b64("<i4", left),
            "right": _b64("<i4", [2, 1, 2]), "threshold": _b64("<f8", [0.5, 0.0, 0.0]),
            "value": _b64("<f8", [0.0, 0.0, 1.0])}


# (model, key path, bad value): wrong types, out-of-range values, unwalkable trees
_BAD_VALUES = [(model, key, value) for key, value in [
    (("hyperparameters", "max_depth"), "8"),
    (("hyperparameters", "max_depth"), 0),
    (("hyperparameters", "max_depth"), 2.5),
    (("hyperparameters", "seed"), None),
    (("hyperparameters",), []),
    (("columns",), ["rsrp", 3]),
    (("imputation", "rsrp"), "median"),
    (("forest",), _forest(feature=[], left=[], sizes=())),  # no trees
    (("forest", "left"), _b64("<i4", [0])),  # arrays of unequal length
    (("forest",), _forest(feature=[0, -1, -1], left=[0, 1, 2])),  # loops at the root
    (("forest",), _forest(feature=[99, -1, -1], left=[1, 1, 2])),  # no such column
    (("forest", "value"), "not base64!"),
    (("forest", "threshold"), _b64("<i4", [0])),  # 4 bytes, not a multiple of 8
    (("forest", "sizes"), [1]),  # do not sum to the node count
    (("forest",), _forest(feature=[0, -1, -1], left=[1, 1, 2], sizes=(0, 3))),
    (("forest",), _forest(feature=[0, -1, -1], left=[1, 1, 2], sizes=(-1, 4))),
] for model in ("baseline", "risk")] + [("risk", ("hyperparameters", "min_samples_leaf"), True)]


def _model_stage(pipeline, model: str, path: Path, tmp_path: Path) -> list[str]:
    paths = pipeline["paths"]
    if model == "baseline":
        return ["analyze", "--rows", str(paths["rows"]), "--out-dir", str(tmp_path / "a"),
                "--model", str(path)]
    return ["score", "--model", str(path), "--features", str(paths["features"]),
            "--out", str(tmp_path / "scores.tsv")]


def _corrupt(pipeline, model: str, key: tuple, tmp_path: Path, value=None, delete=True) -> Path:
    record = json.loads(pipeline["paths"][model].read_text(encoding="utf-8"))
    holder = record
    for part in key[:-1]:
        holder = holder[part]
    if delete:
        del holder[key[-1]]
    else:
        holder[key[-1]] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "model,key",
    [("baseline", k) for k in _BASELINE_KEYS] + [("risk", k) for k in _RISK_KEYS],
    ids=lambda v: v if isinstance(v, str) else ".".join(v),
)
def test_model_file_missing_a_key_exits_1(pipeline, tmp_path, capsys, model, key):
    path = _corrupt(pipeline, model, key, tmp_path)
    assert main(_model_stage(pipeline, model, path, tmp_path)) == EXIT_DATA
    assert "data error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model,key,value", _BAD_VALUES,
    ids=[f"{repr(key)[:30]}-{repr(value)[:30]}-{model}" for model, key, value in _BAD_VALUES],
)
def test_model_file_with_a_bad_value_exits_1(pipeline, tmp_path, capsys, model, key, value):
    path = _corrupt(pipeline, model, key, tmp_path, value, delete=False)
    assert main(_model_stage(pipeline, model, path, tmp_path)) == EXIT_DATA
    assert "data error:" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["baseline", "risk"])
@pytest.mark.parametrize("left", [[1, 0, 2], [1, 99, 2]], ids=["to-root", "past-end"])
def test_model_file_with_a_leaf_not_pointing_at_itself_exits_1(
    pipeline, tmp_path, capsys, model, left
):
    forest = _forest(feature=[0, -1, -1], left=left)
    path = _corrupt(pipeline, model, ("forest",), tmp_path, forest, delete=False)
    assert main(_model_stage(pipeline, model, path, tmp_path)) == EXIT_DATA
    assert "data error:" in capsys.readouterr().err


# hyperparameters older model files carry, with the only values they were written with
_RETIRED_HYPERPARAMETERS = {
    "baseline": {"min_samples_leaf": 1, "feature_fraction": None},
    "risk": {"class_weight": "balanced"},
}


@pytest.mark.parametrize("model", ["baseline", "risk"])
def test_model_file_with_retired_hyperparameters_gives_the_same_outputs(
    pipeline, tmp_path, capsys, model
):
    record = json.loads(pipeline["paths"][model].read_text(encoding="utf-8"))
    assert not set(_RETIRED_HYPERPARAMETERS[model]) & set(record["hyperparameters"])
    record["hyperparameters"].update(_RETIRED_HYPERPARAMETERS[model])
    old = tmp_path / "old_model.json"
    old.write_text(json.dumps(record), encoding="utf-8")
    outputs = {}
    for name, path in (("current", pipeline["paths"][model]), ("old", old)):
        workdir = tmp_path / name
        workdir.mkdir()
        code = main(_model_stage(pipeline, model, path, workdir))
        files = sorted(f for f in workdir.rglob("*") if f.is_file())
        outputs[name] = code, {f.relative_to(workdir): f.read_bytes() for f in files}
    capsys.readouterr()
    assert outputs["current"][0] in (EXIT_OK, EXIT_DEGRADED) and outputs["current"][1]
    assert outputs["old"] == outputs["current"]


def test_model_files_share_one_layout(pipeline, tmp_path, capsys):
    baseline = json.loads(pipeline["paths"]["baseline"].read_text(encoding="utf-8"))
    risk = json.loads(pipeline["paths"]["risk"].read_text(encoding="utf-8"))
    shared = {"kind", "schema_version", "columns", "imputation", "hyperparameters", "meta", "forest"}
    assert set(baseline) == shared | {"target_floor", "target_ceiling"}
    assert set(risk) == shared | {"f0"}
    assert "imputation" not in risk["meta"]
    assert set(risk["imputation"]) == set(risk["columns"])
    # a risk model written with the fill values inside meta must be retrained
    old = dict(risk, meta={**risk["meta"], "imputation": risk["imputation"]})
    del old["imputation"]
    path = tmp_path / "old_risk.json"
    path.write_text(json.dumps(old), encoding="utf-8")
    assert main(_model_stage(pipeline, "risk", path, tmp_path)) == EXIT_DATA
    assert "retrain" in capsys.readouterr().err
    # so must a model written with a list of per-tree node lists, not a packed forest
    for model, record in (("baseline", baseline), ("risk", risk)):
        old = {key: value for key, value in record.items() if key != "forest"}
        old["trees"] = [{"feature": [-1], "threshold": [0.0], "left": [0], "right": [0],
                         "value": [0.5]}]
        path.write_text(json.dumps(old), encoding="utf-8")
        assert main(_model_stage(pipeline, model, path, tmp_path)) == EXIT_DATA
        assert "retrain" in capsys.readouterr().err


def _inputs(pipeline) -> dict[str, Path]:
    """The pipeline file of each record kind a stage reads."""
    paths = pipeline["paths"]
    return {
        "analysis_row": paths["rows"],
        "label": paths["analysis"] / "labels.jsonl",
        "test_record": paths["records"],
        "commit_features": paths["features"],
        "commit": paths["corpus"] / "commits.jsonl",
    }


def _stage_argv(pipeline, stage: str, tmp_path: Path, **replaced: Path) -> list[str]:
    """The argv of ``stage`` on the pipeline's files, with the input file of
    each record kind in ``replaced`` swapped for the path given."""
    inputs = {k: str(v) for k, v in {**_inputs(pipeline), **replaced}.items()}
    corpus = pipeline["paths"]["corpus"]
    commits = inputs["commit"]
    out = str(tmp_path / "out")
    return {
        "ingest": ["ingest", "--dataset", str(corpus / "dataset"), "--commits", commits,
                   "--out", out],
        "categorize": ["categorize", "--commits", commits, "--out", out],
        "decompose": ["decompose", "--rows", inputs["analysis_row"], "--out", out],
        "train-baseline": ["train-baseline", "--rows", inputs["analysis_row"], "--out", out],
        "analyze": ["analyze", "--rows", inputs["analysis_row"], "--out-dir", out],
        "report": ["report", "--labels", inputs["label"], "--out-dir", out],
        "train-risk": ["train-risk", "--rows", inputs["analysis_row"],
                       "--labels", inputs["label"], "--out", out],
        "assemble": ["assemble", "--records", inputs["test_record"],
                     "--features", inputs["commit_features"], "--commits", commits, "--out", out],
        "score": ["score", "--model", str(pipeline["paths"]["risk"]),
                  "--features", inputs["commit_features"], "--out", out],
    }[stage]


@pytest.mark.parametrize(
    "kind,field,stage",
    [
        ("analysis_row", "efficiency", "analyze"),
        ("label", "ratio", "report"),
        ("label", "day", "train-risk"),
        ("test_record", "traffic", "assemble"),
        ("commit_features", ("features", "cat_phy"), "assemble"),
        ("commit_features", ("features", "cat_phy"), "score"),
    ],
    ids=lambda v: v if isinstance(v, str) else ".".join(v),
)
def test_record_missing_a_field_exits_1(pipeline, tmp_path, capsys, kind, field, stage):
    records = read_records(_inputs(pipeline)[kind], kind=kind)
    holder = records[0]
    *parents, name = (field,) if isinstance(field, str) else field
    for part in parents:
        holder = holder[part]
    del holder[name]
    path = tmp_path / "in.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert main(_stage_argv(pipeline, stage, tmp_path, **{kind: path})) == EXIT_DATA
    assert "data error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind,stage",
    [("analysis_row", "analyze"), ("label", "train-risk"), ("test_record", "assemble"),
     ("commit_features", "score")],
)
def test_record_that_is_not_an_object_exits_1(pipeline, tmp_path, capsys, kind, stage):
    path = tmp_path / "in.jsonl"
    path.write_text("[1]\n", encoding="utf-8")
    assert main(_stage_argv(pipeline, stage, tmp_path, **{kind: path})) == EXIT_DATA
    assert "not a JSON object" in capsys.readouterr().err


# (kind, key path, value, stage): a value of the wrong JSON type that used to
# be coerced (a truthy string, a string split into letters, a truncated
# float, a string passed through, a boolean read as 1.0)
_MISTYPED_VALUES = [
    ("label", ("degraded",), "false", "report"),
    ("label", ("attributed_layers",), "PHY", "report"),
    ("commit", ("files_changed",), 5.7, "categorize"),
    ("test_record", ("traffic", "throughput_efficiency"), "0.9", "assemble"),
    ("commit_features", ("features", "cat_phy"), True, "score"),
    ("analysis_row", ("env", "sinr"), True, "analyze"),
]


@pytest.mark.parametrize(
    "kind,field,value,stage", _MISTYPED_VALUES,
    ids=[f"{kind}-{'.'.join(field)}-{stage}" for kind, field, _, stage in _MISTYPED_VALUES],
)
def test_record_value_of_the_wrong_type_exits_1(pipeline, tmp_path, capsys, kind, field, value,
                                                stage):
    records = read_records(_inputs(pipeline)[kind])
    holder = next(r for r in records if r["kind"] == kind)
    for part in field[:-1]:
        holder = holder[part]
    holder[field[-1]] = value
    path = tmp_path / "in.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert main(_stage_argv(pipeline, stage, tmp_path, **{kind: path})) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error:" in err and ".".join(field) in err


def test_hyperparameter_of_the_wrong_type_exits_2(pipeline, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trees": "many"}), encoding="utf-8")
    code = main(["train-baseline", "--rows", str(pipeline["paths"]["rows"]),
                 "--out", str(tmp_path / "m.json"), "--config", str(config)])
    assert code == EXIT_CONFIG
    assert "config error: trees" in capsys.readouterr().err


def _run_with_config(pipeline, tmp_path, stage: str, config: dict, flags=()) -> int:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return main(_stage_argv(pipeline, stage, tmp_path) + list(flags) + ["--config", str(path)])


# (stage, config): the first key holds a value its flag would refuse; any
# other key makes the stage read that value, or keeps the run cheap
_BAD_CONFIGS = [
    ("ingest", {"target_rate": "x"}),
    ("ingest", {"target_rate": True}),
    ("ingest", {"target_rate": 0}),
    ("ingest", {"target_rate": float("inf")}),
    ("categorize", {"refine": 5}),
    ("categorize", {"concurrency": "x"}),
    ("categorize", {"retries": "x"}),
    ("categorize", {"concurrency": 1.7}),
    ("categorize", {"retries": -1, "refine": "stub"}),
    ("report", {"floors": 0.9}),
    ("report", {"floors": ["a"]}),
    ("report", {"floors": []}),
    ("decompose", {"max_bins": "x"}),
    ("decompose", {"max_bins": 2.9}),
    ("score", {"threshold": "x"}),
    ("train-baseline", {"trees": 2.7}),
    ("train-baseline", {"seed": 1.9, "trees": 2}),
    ("train-baseline", {"seed": -1, "trees": 2}),
    ("train-risk", {"seed": -1, "estimators": 3}),
]


@pytest.mark.parametrize(
    "stage,config", _BAD_CONFIGS,
    ids=[f"{stage}-{json.dumps(config)}" for stage, config in _BAD_CONFIGS],
)
def test_config_value_its_flag_would_refuse_exits_2(pipeline, tmp_path, capsys, stage, config):
    assert _run_with_config(pipeline, tmp_path, stage, config) == EXIT_CONFIG
    assert f"config error: {next(iter(config))}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rate,code",
    [("inf", EXIT_CONFIG), ("nan", EXIT_CONFIG), ("0", EXIT_CONFIG), ("-2", EXIT_CONFIG),
     ("5e-324", EXIT_DATA)],  # a rate so small that every efficiency overflows to infinity
)
def test_target_rate_no_record_can_hold_is_refused(pipeline, tmp_path, capsys, rate, code):
    argv = _stage_argv(pipeline, "ingest", tmp_path) + ["--target-rate", rate]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert ("config error: target_rate" if code == EXIT_CONFIG else "data error:") in err
    out = tmp_path / "out"
    assert not out.exists() or "Infinity" not in out.read_text(encoding="utf-8")


def test_failed_stage_keeps_the_previous_output(pipeline, tmp_path, capsys):
    out = tmp_path / "out"
    out.write_bytes(b"previous good output\n")
    argv = _stage_argv(pipeline, "ingest", tmp_path) + ["--target-rate", "5e-324"]
    assert main(argv) == EXIT_DATA
    assert "data error:" in capsys.readouterr().err
    assert out.read_bytes() == b"previous good output\n"
    assert [f.name for f in tmp_path.iterdir()] == ["out"]


def test_decompose_refuses_a_variance_that_overflows(pipeline, tmp_path, capsys):
    records = read_records(pipeline["paths"]["rows"])
    records[0]["efficiency"] = 1e308
    rows = tmp_path / "rows.jsonl"
    rows.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    out = tmp_path / "out"
    out.write_bytes(b"previous good output\n")
    argv = _stage_argv(pipeline, "decompose", tmp_path, analysis_row=rows)
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error:" in err and "efficiency" in err
    assert out.read_bytes() == b"previous good output\n"


def test_report_floors_flag_beats_the_config_file(pipeline, tmp_path, capsys):
    assert _run_with_config(pipeline, tmp_path, "report", {"floors": [0.8]}) == EXIT_OK
    _, rows = _read_tsv(tmp_path / "out" / "floor_tradeoff.tsv")
    assert [row[0] for row in rows] == ["0.8"]
    flags = ["--floors", "0.7", "0.9"]
    assert _run_with_config(pipeline, tmp_path, "report", {"floors": [0.8]}, flags) == EXIT_OK
    _, rows = _read_tsv(tmp_path / "out" / "floor_tradeoff.tsv")
    assert [row[0] for row in rows] == ["0.7", "0.9"]
    capsys.readouterr()


# every key a config file may set, per stage that reads it
_STAGE_OPTIONS = {
    "ingest": ("target_rate",),
    "categorize": ("refine", "retries", "concurrency"),
    "decompose": ("max_bins",),
    "train-baseline": ("seed", "trees", "depth", "test_fraction"),
    "analyze": ("ratio_floor", "min_expected", "min_degraded", "seed", "trees", "depth"),
    "train-risk": ("seed", "estimators", "depth", "learning_rate", "min_samples_leaf",
                   "smote_k", "test_fraction"),
    "score": ("threshold",),
    "report": ("ratio_floor", "min_expected", "min_degraded", "floors"),
}


def test_each_config_key_is_a_flag_of_the_stages_that_read_it(pipeline, tmp_path):
    for stage, keys in _STAGE_OPTIONS.items():
        args = build_parser().parse_args(_stage_argv(pipeline, stage, tmp_path))
        assert tuple(action.dest for action in args.options) == keys, stage
    assert len({key for keys in _STAGE_OPTIONS.values() for key in keys}) == 18


# Strings hold no digit, so none reads as a big count, and no "://", so none
# names a refiner to dial; integers stay in [-3, 3] for the same reason.
_TEXT = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6).filter(
    lambda text: "://" not in text
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers(-3, 3).map(str)
    | st.floats(allow_nan=False, allow_infinity=False) | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=2),
    max_leaves=4,
)
# flags that keep a stage's run short, unless the key drawn is theirs
_CHEAP_FLAGS = {
    "categorize": {"refine": "stub"},
    "train-baseline": {"trees": "2"},
    "analyze": {"trees": "20"},  # enough that every demo row has an out-of-bag tree
    "train-risk": {"estimators": "3"},
}


@pytest.mark.parametrize(
    "stage,key", [(stage, key) for stage, keys in _STAGE_OPTIONS.items() for key in keys]
)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=_JSON_VALUES)
def test_any_config_value_ends_in_an_exit_code(pipeline, tmp_path, stage, key, value):
    flags = [
        arg
        for name, flag_value in _CHEAP_FLAGS.get(stage, {}).items()
        if name != key
        for arg in (f"--{name.replace('_', '-')}", flag_value)
    ]
    code = _run_with_config(pipeline, tmp_path, stage, {key: value}, flags)
    assert code in (EXIT_OK, EXIT_DATA, EXIT_CONFIG, EXIT_DEGRADED)


def _leaf_paths(value, path=()):
    """Key paths to every value of a record that is not a dict or a non-empty list."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaf_paths(item, path + (key,))
    elif isinstance(value, list) and value:
        for i, item in enumerate(value):
            yield from _leaf_paths(item, path + (i,))
    else:
        yield path


@pytest.mark.parametrize(
    "kind,stage",
    [("test_record", "assemble"), ("analysis_row", "analyze"), ("analysis_row", "decompose"),
     ("analysis_row", "train-baseline"), ("label", "train-risk"), ("label", "report"),
     ("commit_features", "score"), ("commit", "categorize"), ("commit", "ingest"),
     ("commit", "assemble")],
)
@pytest.mark.parametrize("value", [None, "x", [], {}, 1e308, -1], ids=repr)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_mutated_input_ends_in_an_exit_code(pipeline, tmp_path, kind, stage, value, data):
    records = read_records(_inputs(pipeline)[kind])
    record = records[data.draw(st.integers(0, len(records) - 1), label="record")]
    *parents, name = data.draw(st.sampled_from(list(_leaf_paths(record))), label="leaf")
    holder = record
    for part in parents:
        holder = holder[part]
    holder[name] = value
    path = tmp_path / "in.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    flags = [arg for option, flag_value in _CHEAP_FLAGS.get(stage, {}).items()
             for arg in (f"--{option}", flag_value)]
    code = main(_stage_argv(pipeline, stage, tmp_path, **{kind: path}) + flags)
    assert code in (EXIT_OK, EXIT_DATA, EXIT_CONFIG, EXIT_DEGRADED)
