"""Synthetic corpus generation: determinism, truth recovery, plant quality."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from ranwatch.commitcat import categorize_commits, default_rule_config
from ranwatch.errors import ConfigError
from ranwatch.ingest import build_test_record, default_log_rules, scan_dataset
from ranwatch.store import load_commits, read_records
from ranwatch.synthgen import Injection, ScenarioSpec, generate, load_scenario

SMALL = ScenarioSpec(
    seed=11,
    n_commits=4,
    tests_per_commit=3,
    loads=(10.0, 20.0),
    sinr_range=(8.0, 30.0),
    injections=(Injection(commit_index=2, layers=("PDCP",), drop=0.5, onset_delay=1),),
)


def _tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_same_seed_yields_byte_identical_output(tmp_path):
    a = generate(SMALL, tmp_path / "a")
    b = generate(SMALL, tmp_path / "b")
    assert _tree_digest(a.dataset_dir.parent) == _tree_digest(b.dataset_dir.parent)
    c = generate(
        ScenarioSpec(seed=12, n_commits=4, tests_per_commit=3, loads=(10.0, 20.0)),
        tmp_path / "c",
    )
    assert _tree_digest(a.dataset_dir) != _tree_digest(c.dataset_dir)


def test_truth_values_are_recoverable_from_the_artifacts(tmp_path):
    corpus = generate(SMALL, tmp_path)
    truths = {
        (t["day"].replace("-", ""), t["time"].replace(":", "")): t
        for t in read_records(corpus.truth_tests_file, kind="truth_test")
    }
    entries, warnings = scan_dataset(corpus.dataset_dir)
    assert not warnings
    assert len(entries) == len(truths) == 12
    rules = default_log_rules()
    for entry in entries:
        truth = truths[(entry.test_id.day_name, entry.test_id.time_name)]
        record = build_test_record(entry.test_id, entry, rules, truth["commit_hash"])
        # parsed floats are the same floats the generator wrote down
        assert record.traffic.target_rate == truth["target_rate"]
        assert record.traffic.throughput_efficiency == truth["measured_efficiency"]
        assert record.traffic.packet_loss == truth["packet_loss"]
        assert record.traffic.jitter == truth["jitter"]
        assert record.radio.rsrp == truth["rsrp"]
        assert record.radio.sinr == truth["sinr"]
        assert record.radio.dl_bler == truth["dl_bler"]
        assert record.radio.ul_bler == truth["ul_bler"]
        assert record.radio.cqi_mean == truth["cqi_mean"]
        assert record.radio.harq_retx_round1 == truth["harq_retx_round1"]
        assert record.radio.harq_retx_total == truth["harq_retx_total"]
        for name, value in truth["events"].items():
            assert record.events[name] == value, name


def test_injection_applies_from_onset_onward(tmp_path):
    corpus = generate(SMALL, tmp_path)
    truths = list(read_records(corpus.truth_tests_file, kind="truth_test"))
    injected = [t for t in truths if t["commit_index"] == 2]
    clean = [t for t in truths if t["commit_index"] != 2]
    assert [t["injected_multiplier"] for t in injected] == [1.0, 0.5, 0.5]
    assert [t["degraded"] for t in injected] == [False, True, True]
    assert all(t["injected_multiplier"] == 1.0 and not t["degraded"] for t in clean)
    marks = {t["hash"]: t for t in read_records(corpus.truth_commits_file, kind="truth_commit")}
    flagged = [m for m in marks.values() if m["injected"]]
    assert len(flagged) == 1
    assert flagged[0]["categories"] == ["PDCP"]
    assert flagged[0]["drop"] == 0.5 and flagged[0]["onset_delay"] == 1


def test_deployments_precede_their_tests_and_sort_cleanly(tmp_path):
    corpus = generate(SMALL, tmp_path)
    commits = load_commits(corpus.commits_file)
    assert len(commits) == 4
    epochs = [c.deploy_epoch for c in commits]
    assert epochs == sorted(epochs)
    entries, _ = scan_dataset(corpus.dataset_dir)
    first_test = min(e.test_id.epoch for e in entries)
    assert commits[0].deploy_epoch == first_test - 300.0


def test_planted_categories_survive_keyword_categorization(tmp_path):
    corpus = generate(ScenarioSpec(seed=23, n_commits=30, tests_per_commit=1), tmp_path)
    marks = {t["hash"]: t for t in read_records(corpus.truth_commits_file, kind="truth_commit")}
    results = categorize_commits(load_commits(corpus.commits_file), default_rule_config())
    for commit, result, _status in results:
        planted = set(marks[commit.hash]["categories"])
        assert planted <= set(result.affected), commit.message


def test_scenario_validation():
    with pytest.raises(ConfigError):
        ScenarioSpec(seed=0, n_commits=0, tests_per_commit=1)
    with pytest.raises(ConfigError):
        ScenarioSpec(seed=0, n_commits=1, tests_per_commit=1, loads=())
    with pytest.raises(ConfigError):
        ScenarioSpec(seed=0, n_commits=1, tests_per_commit=1, test_interval_hours=0.0)
    with pytest.raises(ConfigError):
        Injection(commit_index=0, layers=("PHY",), drop=1.5)
    with pytest.raises(ConfigError):
        Injection(commit_index=0, layers=(), drop=0.5)
    with pytest.raises(ConfigError):
        Injection(commit_index=0, layers=("PHY",), drop=0.5, onset_delay=-1)
    with pytest.raises(ConfigError):
        # injection points past the last commit
        ScenarioSpec(
            seed=0,
            n_commits=2,
            tests_per_commit=1,
            injections=(Injection(commit_index=2, layers=("PHY",), drop=0.5),),
        )
    with pytest.raises(ConfigError):
        ScenarioSpec(
            seed=0,
            n_commits=2,
            tests_per_commit=1,
            injections=(
                Injection(commit_index=0, layers=("PHY",), drop=0.5),
                Injection(commit_index=0, layers=("MAC",), drop=0.2),
            ),
        )


def test_load_scenario_round_trip_and_unknown_field(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "seed": 11,
                "n_commits": 4,
                "tests_per_commit": 3,
                "loads": [10.0, 20.0],
                "sinr_range": [8.0, 30.0],
                "injections": [
                    {"commit_index": 2, "layers": ["PDCP"], "drop": 0.5, "onset_delay": 1}
                ],
            }
        ),
        encoding="utf-8",
    )
    assert load_scenario(path) == SMALL
    path.write_text('{"seed": 1, "n_commits": 2, "tests_per_commit": 1, "bogus": 3}')
    with pytest.raises(ConfigError):
        load_scenario(path)
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_scenario(path)
    with pytest.raises(ConfigError):
        load_scenario(tmp_path / "missing.json")
