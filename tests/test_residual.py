"""Residual gating, temporal comparison baseline, and commit rollups."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranwatch.assemble import AnalysisRow
from ranwatch.errors import ConfigError, DataError
from ranwatch.residual import (
    DegradationLabel,
    Thresholds,
    classify,
    commit_layers,
    commit_rollup,
    coverage_tradeoff,
    label_rows,
    layer_impact_table,
    ratio_histogram,
    residual_ratio,
    summarize,
    temporal_scores,
)


def _row(measured, expected, commit=None, **overrides):
    fields = dict(
        day="20250106",
        time="060000",
        commit_hash="a" * 40,
        test_epoch=1_736_000_000.0,
        deploy_epoch=1_735_999_000.0,
        target_rate=10.0,
        efficiency=measured,
        packet_loss=0.0,
        jitter=1.0,
        env={},
        commit=commit or {},
        expected_efficiency=expected,
    )
    fields.update(overrides)
    return AnalysisRow(**fields)


def _label(ratio, expected=0.8, commit_hash="a" * 40, dt_s=600.0, degraded=None, layers=()):
    if degraded is None:
        degraded = ratio < 0.9 and expected >= 0.6
    return DegradationLabel(
        day="20250106",
        time="060000",
        commit_hash=commit_hash,
        test_epoch=1_736_000_000.0 + dt_s,
        deploy_epoch=1_736_000_000.0,
        ratio=ratio,
        expected_efficiency=expected,
        measured_efficiency=ratio * expected,
        degraded=degraded,
        gating="degraded" if degraded else "normal",
        attributed_layers=tuple(layers),
    )


# ---------------------------------------------------------------------------
# gating


def test_three_way_gate_truth_table():
    t = Thresholds()
    assert classify(0.7, 0.8, t) == "degraded"  # low ratio, good conditions
    assert classify(0.7, 0.3, t) == "environmental_limit"  # low ratio, bad conditions
    assert classify(0.95, 0.8, t) == "normal"
    assert classify(0.95, 0.3, t) == "normal"  # high ratio is never flagged


def test_gate_boundary_semantics():
    t = Thresholds()
    # ratio exactly at the floor is not below it
    assert classify(0.9, 0.8, t) == "normal"
    # expected efficiency exactly at the minimum still gates in
    assert classify(0.7, 0.6, t) == "degraded"
    assert classify(0.7, 0.6 - 1e-9, t) == "environmental_limit"


def test_ratio_guard_rejects_vanishing_expectation():
    assert residual_ratio(0.5, 0.625) == pytest.approx(0.8)
    with pytest.raises(DataError):
        residual_ratio(0.5, 0.0)
    with pytest.raises(DataError):
        residual_ratio(0.5, 1e-7)


def test_threshold_validation():
    with pytest.raises(ConfigError):
        Thresholds(ratio_floor=0.0)
    with pytest.raises(ConfigError):
        Thresholds(min_expected_efficiency=1.5)


@given(
    ratio=st.floats(0.0, 2.0),
    expected=st.floats(0.01, 1.0),
    floor=st.floats(0.05, 1.0),
    min_exp=st.floats(0.05, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_gate_returns_exactly_one_state(ratio, expected, floor, min_exp):
    t = Thresholds(ratio_floor=floor, min_expected_efficiency=min_exp)
    state = classify(ratio, expected, t)
    assert state in ("degraded", "environmental_limit", "normal")
    assert (state == "degraded") == (ratio < floor and expected >= min_exp)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_lowering_the_floor_never_adds_flags(data):
    ratio = data.draw(st.floats(0.0, 2.0))
    expected = data.draw(st.floats(0.01, 1.0))
    hi = data.draw(st.floats(0.1, 1.0))
    lo = data.draw(st.floats(0.05, hi))
    strict = Thresholds(ratio_floor=lo)
    loose = Thresholds(ratio_floor=hi)
    if classify(ratio, expected, strict) == "degraded":
        assert classify(ratio, expected, loose) == "degraded"


# ---------------------------------------------------------------------------
# labeling


def test_label_rows_attributes_layers_only_when_degraded():
    commit = {"cat_pdcp": 1.0, "cat_mac": 1.0, "cat_memory": 1.0}
    rows = [
        _row(0.4, 0.8, commit=commit),
        _row(0.78, 0.8, commit=commit),
    ]
    labels = label_rows(rows, Thresholds())
    assert labels[0].degraded and labels[0].gating == "degraded"
    assert labels[0].attributed_layers == ("MAC", "PDCP")
    assert not labels[1].degraded and labels[1].gating == "normal"
    assert labels[1].attributed_layers == ()


def test_label_rows_requires_expected_efficiency():
    with pytest.raises(DataError):
        label_rows([_row(0.5, None)], Thresholds())


def test_commit_layers_reads_indicator_slots():
    features = {"cat_phy": 1.0, "cat_rrc": 0.4, "cat_nas": 0.5, "cat_memory": 1.0}
    assert commit_layers(features) == ("PHY", "NAS")


def test_label_round_trips_through_record():
    label = _label(0.5, layers=("PDCP",))
    clone = DegradationLabel.decode(label.encode())
    assert clone == label
    with pytest.raises(DataError):
        DegradationLabel.decode({"kind": "other"})


# ---------------------------------------------------------------------------
# summaries


def test_summary_hand_values():
    labels = [_label(0.5), _label(0.7), _label(1.0), _label(1.1)]
    s = summarize(labels, Thresholds())
    assert s.n == 4 and s.n_degraded == 2
    assert s.mean_ratio == pytest.approx(0.825)
    assert s.frac_below_floor == pytest.approx(0.5)
    assert s.degraded_mean == pytest.approx(0.6)
    assert s.normal_mean == pytest.approx(1.05)
    assert s.welch_t is not None and s.welch_t < 0
    assert s.cohens_d is not None and s.cohens_d < 0
    assert 0.0 <= s.welch_p <= 1.0


def test_summary_single_sided_population_leaves_contrast_empty():
    labels = [_label(1.0), _label(1.1), _label(0.5)]
    s = summarize(labels, Thresholds())
    assert s.n_degraded == 1
    assert s.degraded_mean == pytest.approx(0.5)
    assert s.degraded_std is None  # one sample has no spread
    assert s.welch_t is None and s.welch_p is None and s.cohens_d is None
    with pytest.raises(DataError):
        summarize([], Thresholds())


def test_layer_impact_counts_multi_attribution_once_per_layer():
    labels = [
        _label(0.5, layers=("MAC", "PHY")),
        _label(0.7, layers=("MAC",)),
        _label(1.0),
    ]
    table = layer_impact_table(labels)
    assert [(r.layer, r.degraded_cases) for r in table] == [("PHY", 1), ("MAC", 2)]
    assert table[0].mean_ratio == pytest.approx(0.5)
    assert table[1].mean_ratio == pytest.approx(0.6)
    assert table[0].std_ratio is None
    assert table[1].std_ratio == pytest.approx(0.1414213562, abs=1e-9)


# ---------------------------------------------------------------------------
# temporal comparison


def test_temporal_score_matches_independent_decay_formula():
    # One faulty test 1800 s after deployment. Every window is long
    # enough to see it; each contributes 2^(-2 dt / W).
    labels = [_label(0.5, dt_s=1800.0)]
    (score,) = temporal_scores(labels)
    oracle = sum(2.0 ** (-2.0 * 1800.0 / w) for w in (3600.0, 86400.0, 604800.0))
    assert score.score == pytest.approx(oracle, abs=1e-12)
    assert score.score == pytest.approx(0.5 + 2 ** (-1 / 24) + 2 ** (-1 / 168), abs=1e-12)
    assert score.flagged  # 0.5 + ~0.97 + ~0.996 is comfortably above 1


def test_temporal_window_membership():
    # 2 h after deployment the hour window no longer applies.
    labels = [_label(0.5, dt_s=7200.0)]
    (score,) = temporal_scores(labels)
    oracle = sum(2.0 ** (-2.0 * 7200.0 / w) for w in (86400.0, 604800.0))
    assert score.score == pytest.approx(oracle, abs=1e-12)


def test_temporal_ignores_healthy_tests_and_keeps_commit_order():
    labels = [
        _label(1.0, commit_hash="b" * 40, dt_s=100.0),
        _label(0.5, commit_hash="a" * 40, dt_s=100.0),
        _label(1.05, commit_hash="a" * 40, dt_s=200.0),
    ]
    scores = temporal_scores(labels)
    assert [s.commit_hash for s in scores] == ["b" * 40, "a" * 40]
    assert scores[0].score == 0.0 and not scores[0].flagged
    assert scores[1].score > 0.0


def test_temporal_rejects_tests_before_deployment():
    with pytest.raises(DataError):
        temporal_scores([_label(1.0, dt_s=-5.0)])


def test_default_windows_halve_at_their_midpoint():
    # 1800 s is the hour window's midpoint, so it contributes exactly half;
    # the day and week windows decay at rates that halve at 12 h and 3.5 days.
    (score,) = temporal_scores([_label(0.5, dt_s=1800.0)])
    d_day, d_week = (2.0 * math.log(2.0) / length for length in (86400.0, 604800.0))
    want = 0.5 + math.exp(-d_day * 1800.0) + math.exp(-d_week * 1800.0)
    assert score.score == pytest.approx(want, abs=1e-12)
    # halfway through the day, the hour window has closed and the day's gives half
    (score,) = temporal_scores([_label(0.5, dt_s=43200.0)])
    assert score.score == pytest.approx(0.5 + 2.0 ** (-1.0 / 7.0), abs=1e-12)
    # halfway through the week, only the week's window is open
    (score,) = temporal_scores([_label(0.5, dt_s=302400.0)])
    assert score.score == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# rollup and reporting helpers


def test_rollup_needs_repeated_evidence():
    one = [_label(0.5), _label(1.0), _label(1.0)]
    (roll,) = commit_rollup(one)
    assert roll.verdict == "clean" and roll.n_degraded == 1
    assert roll.min_ratio == pytest.approx(0.5)
    two = [_label(0.5), _label(0.6), _label(1.0)]
    (roll,) = commit_rollup(two)
    assert roll.verdict == "degraded" and roll.n_degraded == 2
    (roll,) = commit_rollup(one, min_degraded=1)
    assert roll.verdict == "degraded"
    with pytest.raises(ConfigError):
        commit_rollup(one, min_degraded=0)


def test_rollup_groups_by_commit_in_first_test_order():
    labels = [
        _label(1.0, commit_hash="b" * 40),
        _label(0.5, commit_hash="a" * 40),
        _label(0.6, commit_hash="a" * 40),
    ]
    rolls = commit_rollup(labels)
    assert [r.commit_hash for r in rolls] == ["b" * 40, "a" * 40]
    assert [r.verdict for r in rolls] == ["clean", "degraded"]
    assert rolls[1].n_tests == 2


def test_coverage_tradeoff_monotone_in_floor():
    labels = [_label(r) for r in (0.3, 0.5, 0.7, 0.95, 1.0, 1.1)]
    table = coverage_tradeoff(labels, floors=(0.4, 0.6, 0.8, 0.99))
    retained = [row[1] for row in table]
    assert retained == sorted(retained, reverse=True)
    flags = [row[2] for row in table]
    assert flags == sorted(flags)
    with pytest.raises(ConfigError):
        coverage_tradeoff(labels, floors=(1.2,))
    with pytest.raises(DataError):
        coverage_tradeoff([], floors=(0.9,))


def test_histogram_counts_and_display_cap():
    labels = [_label(r) for r in (0.0, 0.01, 0.05, 0.74, 0.75, 1.25, 2.0, 2.0001, 50.0)]
    rows = ratio_histogram(labels)
    assert len(rows) == 40
    assert [(lo, hi) for lo, hi, _ in rows[:2]] == [(0.0, 0.05), (0.05, 0.1)]
    assert rows[-1][1] == 2.0
    counts = {i: count for i, (_, _, count) in enumerate(rows) if count}
    # the right edge of the last bin is closed; ratios above 2 are not counted
    assert counts == {0: 2, 1: 1, 14: 1, 15: 1, 25: 1, 39: 1}
    assert ratio_histogram([]) == [(lo, hi, 0) for lo, hi, _ in rows]
