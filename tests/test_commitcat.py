"""Keyword categorization against known commit messages."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranwatch.commitcat import (
    BINARY_FEATURE_NAMES,
    CATEGORIES,
    FEATURE_NAMES,
    CommitFeatures,
    ConfidenceTable,
    build_feature_vector,
    categorize_commits,
    categorize_keywords,
    complexity_score,
    confidence_rule,
    default_rule_config,
    detect_change_type,
    load_rule_config,
    refine_draft,
)
from ranwatch.errors import ConfigError
from ranwatch.refine import EchoStubTransport, RefinementClient, ScriptedTransport
from ranwatch.store import CommitMeta


def commit(message: str, hash: str = "ab" * 20, files=3, added=40, deleted=10) -> CommitMeta:
    return CommitMeta(
        hash=hash, deploy_time="2025-01-06T06:00:00", message=message, files_changed=files,
        lines_added=added, lines_deleted=deleted,
    )


CFG = default_rule_config()


# messages from a public RAN project's merge history, with the layer sets a
# reviewer assigned by hand
KNOWN_MAPPINGS = [
    ("fix duplicate call of RCconfig_NR_L1", {"PHY"}),
    ('Support RC SM aperiodic subscription for "UE RRC State Change"', {"RRC"}),
    ("use pointer to structure instead of module_id inside MAC", {"MAC"}),
    ("NR UE MSG3 buffer", {"MAC"}),
    ("Sidelink configuration passed from RRC->MAC", {"RRC", "MAC"}),
    ("reworking configuration of LogicalChannelConfig at MAC UE", {"MAC"}),
    ("L1 tx thread", {"PHY"}),
]


def test_known_messages_map_to_expected_layers():
    for message, layers in KNOWN_MAPPINGS:
        result = categorize_keywords(commit(message), CFG)
        assert set(result.layers) == layers, message


def test_thread_message_also_flags_threading_component():
    result = categorize_keywords(commit("L1 tx thread"), CFG)
    assert "threading" in result.affected
    assert set(result.affected) >= {"PHY", "threading"}


def test_known_messages_are_high_confidence():
    for message, _layers in KNOWN_MAPPINGS:
        result = categorize_keywords(commit(message), CFG)
        assert result.confidence == "high", message


def test_weak_buffer_cue_marks_memory_with_low_confidence():
    message = (
        "remove a useless copy and specific buffer for all UE UL payload. "
        "Remove hardcoding of 5G-S-TMSI on nrUE"
    )
    result = categorize_keywords(commit(message), CFG)
    assert result.affected == ("memory",)
    assert result.confidence == "low"
    assert result.change_type == "refactoring"
    assert result.evidence_total == pytest.approx(0.5)


def _score(message: str, category: str) -> float:
    return categorize_keywords(commit(message), CFG).scores[category]


def test_distinct_keyword_counted_once_per_commit():
    once = _score("RRC here", "RRC")
    thrice = _score("RRC RRC RRC", "RRC")
    assert once == thrice == 2.0


def test_matching_is_case_insensitive():
    assert _score("fixed the rrc path", "RRC") == 2.0
    assert _score("PDCP and pdcp", "PDCP") == 2.0


def test_threshold_override_for_memory():
    # one weak cue (0.5) meets the shipped memory threshold of 0.5
    result = categorize_keywords(commit("shrink buffer"), CFG)
    assert "memory" in result.affected
    # but a weak cue alone does not affect a category with threshold 1.0
    result = categorize_keywords(commit("mcs table tweak"), CFG)
    assert "MAC" not in result.affected


def test_change_type_priority_order():
    rules = CFG.change_type_rules
    assert detect_change_type("fix and optimize the path", rules) == "bugfix"
    assert detect_change_type("optimize and add support", rules) == "optimization"
    assert detect_change_type("add the new menu", rules) == "feature"
    assert detect_change_type("rework everything", rules) == "refactoring"
    assert detect_change_type("touch nothing relevant", rules) == "refactoring"


def test_confidence_rule_boundaries():
    # high needs a strong match, evidence >= 2, and narrow scope
    assert confidence_rule(2, 2, 2.0, 1) == "high"
    assert confidence_rule(3, 2, 2.0, 1) == "medium"  # too many layers
    assert confidence_rule(2, 3, 2.0, 1) == "medium"  # too many components
    assert confidence_rule(2, 2, 1.5, 1) == "medium"  # not enough evidence
    assert confidence_rule(2, 2, 2.0, 0) == "medium"  # no strong match
    assert confidence_rule(0, 0, 0.5, 0) == "low"


def test_keywords_only_rule_file_gets_shipped_change_types_and_default_confidence(tmp_path):
    rules = tmp_path / "rules.txt"
    rules.write_text("[keywords]\nPHY, strong, L1\n", encoding="utf-8")
    loaded = load_rule_config(rules)
    assert [(r.category, r.strength, r.keyword) for r in loaded.keywords] == [
        ("PHY", "strong", "L1")
    ]
    assert loaded.thresholds == {}
    assert loaded.change_type_rules and loaded.change_type_rules == CFG.change_type_rules
    assert loaded.confidence == ConfidenceTable()


def test_rule_file_confidence_keeps_field_types(tmp_path):
    rules = tmp_path / "rules.txt"
    rules.write_text(
        "[keywords]\nPHY, strong, L1\n[confidence]\nhigh_layer_max = 3\n"
        "medium_evidence_min = 1.5\n",
        encoding="utf-8",
    )
    table = load_rule_config(rules).confidence
    assert table == ConfidenceTable(high_layer_max=3, medium_evidence_min=1.5)
    assert type(table.high_layer_max) is int
    rules.write_text(
        "[keywords]\nPHY, strong, L1\n[confidence]\nhigh_layer_max = 2.5\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError):
        load_rule_config(rules)


def test_rule_file_rejects_unknown_category(tmp_path):
    bad = tmp_path / "rules.txt"
    bad.write_text("[keywords]\nFTL, strong, warp\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_rule_config(bad)


# ---------------------------------------------------------------------------
# refinement integration


def test_high_confidence_draft_is_never_refined():
    draft = categorize_keywords(commit("fix RRC reconfiguration"), CFG)
    assert draft.confidence == "high"
    client = RefinementClient(EchoStubTransport())
    with pytest.raises(ValueError):
        refine_draft(commit("fix RRC reconfiguration"), draft, client)


def test_stub_refinement_echoes_draft():
    text = commit("shrink buffer")
    draft = categorize_keywords(text, CFG)
    assert draft.confidence == "low"
    client = RefinementClient(EchoStubTransport())
    refined, status = refine_draft(text, draft, client)
    assert status == "refined"
    assert refined.refined_by_llm is True
    assert set(refined.affected) == set(draft.affected)
    assert refined.rationale


def test_invalid_responses_exhaust_retries_then_fall_back():
    text = commit("shrink buffer")
    draft = categorize_keywords(text, CFG)
    transport = ScriptedTransport(["garbage", "also garbage", "still garbage"])
    client = RefinementClient(transport, retries=2)
    result, status = refine_draft(text, draft, client)
    assert status == "fallback_invalid"
    assert result.refined_by_llm is False
    assert result.affected == draft.affected
    assert len(transport.requests) == 3  # initial try plus two retries


def test_unreachable_transport_falls_back_immediately():
    text = commit("shrink buffer")
    draft = categorize_keywords(text, CFG)
    transport = ScriptedTransport([])  # raises TransportError on first use
    client = RefinementClient(transport, retries=2)
    result, status = refine_draft(text, draft, client)
    assert status == "fallback_unreachable"
    assert result.refined_by_llm is False
    assert len(transport.requests) == 1


def test_batch_statuses_and_order():
    texts = [
        commit(m, hash=f"{i:02x}" * 20, files=1, added=1, deleted=0)
        for i, m in enumerate(["fix RRC setup", "shrink buffer", "fix PDCP reorder"])
    ]
    outcomes = categorize_commits(texts, CFG, client=RefinementClient(EchoStubTransport()))
    assert [t.hash for t, _, _ in outcomes] == [t.hash for t in texts]
    statuses = [s for _, _, s in outcomes]
    assert statuses[0] == "keyword_high"
    assert statuses[1] == "refined"
    assert statuses[2] == "keyword_high"


def test_batch_without_client_marks_not_refined():
    outcomes = categorize_commits([commit("shrink buffer")], CFG)
    assert outcomes[0][2] == "not_refined"


# ---------------------------------------------------------------------------
# feature vector


def test_feature_layout_is_stable():
    assert len(FEATURE_NAMES) == 34
    assert FEATURE_NAMES[0] == "cat_phy"
    assert FEATURE_NAMES[-1] == "merge_ref_count"
    assert len(set(FEATURE_NAMES)) == 34
    assert set(BINARY_FEATURE_NAMES) <= set(FEATURE_NAMES)


def test_complexity_score_hand_value():
    # 0.4 * 500/1000 + 0.3 * 3/15 + 0.3 * 10/50
    assert complexity_score(
        total_churn=500, category_count=3, files_changed=10
    ) == pytest.approx(0.32)


def test_complexity_score_saturates():
    assert complexity_score(
        total_churn=20_000, category_count=15, files_changed=500
    ) == pytest.approx(1.0)


def test_feature_vector_contents():
    text = commit("fix RRC->MAC handover !123 !45", hash="cd" * 20, files=5, added=100, deleted=50)
    result = categorize_keywords(text, CFG)
    features = build_feature_vector(text, result)
    d = features.as_dict()
    assert d["cat_rrc"] == 1.0 and d["cat_mac"] == 1.0
    assert d["type_bugfix"] == 1.0
    assert sum(d[f"type_{t}"] for t in ("bugfix", "optimization", "feature", "refactoring")) == 1.0
    assert sum(d[f"conf_{c}"] for c in ("high", "medium", "low")) == 1.0
    assert d["layer_count"] == 2.0
    assert d["files_changed"] == 5.0
    assert d["total_churn"] == 150.0
    assert d["merge_ref_count"] == 2.0
    assert d["message_length"] == float(len(text.message))
    assert d["refined_by_llm"] == 0.0


def test_feature_encode_decode_identity():
    text = commit("fix PDCP integrity check")
    features = build_feature_vector(text, categorize_keywords(text, CFG))
    clone = CommitFeatures.decode(features.encode())
    assert clone == features


@given(
    message=st.text(
        alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd", "Zs")),
        max_size=80,
    ),
    category=st.sampled_from(CATEGORIES),
)
@settings(max_examples=80, deadline=None)
def test_appending_keyword_never_lowers_category_score(message, category):
    keyword = next(r.keyword for r in CFG.keywords if r.category == category)
    base = _score(message, category)
    extended = _score(message + " " + keyword, category)
    assert extended >= base


@given(
    files=st.integers(0, 500),
    added=st.integers(0, 5000),
    deleted=st.integers(0, 5000),
)
@settings(max_examples=60, deadline=None)
def test_feature_vector_matches_layout(files, added, deleted):
    text = commit("fix RRC timer", hash="ee" * 20, files=files, added=added, deleted=deleted)
    features = build_feature_vector(text, categorize_keywords(text, CFG))
    assert len(features.values) == len(FEATURE_NAMES)
    d = features.as_dict()
    assert d["total_churn"] == float(added + deleted)
    assert 0.0 <= d["complexity_score"] <= 1.0
    for name in BINARY_FEATURE_NAMES:
        assert d[name] in (0.0, 1.0)
