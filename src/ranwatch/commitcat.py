"""Commit categorization into protocol layers and functional components.

A commit message is scored against a weighted keyword rule set: strong
keywords count 2.0, medium 1.0, weak 0.5, each distinct keyword at most
once per commit, matching case-insensitive substrings. A category is
affected when its score reaches the category threshold (default 1.0, so
one medium keyword or two weak ones suffice). A decision table maps the
evidence summary (layer count, component count, total evidence, strong
matches) to a confidence grade; only medium- and low-confidence drafts are
sent to the optional refinement service.

The built-in keywords, thresholds, change-type rules and decision table
are defined in one place, the rule file ``defaults/keyword_rules.txt``
shipped inside the package; ``default_rule_config`` reads it with the same
parser as a user's ``--rules`` file.

The categorization result is flattened into a fixed 34-slot feature
vector consumed by the risk model. The slot order is a stable contract:
changing it requires a new store schema version.
"""

from __future__ import annotations

import concurrent.futures
import re
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Mapping, Sequence

from .errors import ConfigError
from .refine import (
    MAX_REFINED_LAYERS,
    RefineRequest,
    RefinementClient,
)
from .store import CommitMeta, Record, decode

LAYERS: tuple[str, ...] = (
    "PHY",
    "MAC",
    "RLC",
    "PDCP",
    "RRC",
    "NAS",
    "NGAP",
    "F1AP",
    "E1AP",
)

COMPONENTS: tuple[str, ...] = (
    "memory",
    "threading",
    "radio",
    "scheduler",
    "timer",
    "queue",
)

CATEGORIES: tuple[str, ...] = LAYERS + COMPONENTS

CHANGE_TYPES: tuple[str, ...] = ("bugfix", "optimization", "feature", "refactoring")
DEFAULT_CHANGE_TYPE = "refactoring"

CONFIDENCE_GRADES: tuple[str, ...] = ("high", "medium", "low")

STRENGTH_WEIGHTS: dict[str, float] = {"strong": 2.0, "medium": 1.0, "weak": 0.5}

_MERGE_REF_RE = re.compile(r"!\d+")


@dataclass(frozen=True)
class KeywordRule:
    category: str
    keyword: str
    strength: str

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise ConfigError(f"unknown category {self.category!r}")
        if self.strength not in STRENGTH_WEIGHTS:
            raise ConfigError(f"unknown keyword strength {self.strength!r}")
        if not self.keyword:
            raise ConfigError("keyword must be non-empty")

    @property
    def weight(self) -> float:
        return STRENGTH_WEIGHTS[self.strength]


@dataclass(frozen=True)
class ConfidenceTable:
    """Thresholds of the confidence decision table.

    high requires at least one strong match, total evidence at or above
    ``high_evidence_min``, and a small affected set; medium requires
    total evidence of at least ``medium_evidence_min``.
    """

    high_strong_min: int = 1
    high_evidence_min: float = 2.0
    high_layer_max: int = 2
    high_component_max: int = 2
    medium_evidence_min: float = 1.0


@dataclass(frozen=True)
class RuleConfig:
    keywords: tuple[KeywordRule, ...]
    thresholds: Mapping[str, float]  # per-category affectedness threshold
    change_type_rules: tuple[tuple[str, str], ...]  # (change_type, keyword)
    confidence: ConfidenceTable = ConfidenceTable()

    def threshold(self, category: str) -> float:
        return float(self.thresholds.get(category, 1.0))


@dataclass(frozen=True)
class CategorizationResult:
    affected: tuple[str, ...]  # subset of CATEGORIES in canonical order
    scores: Mapping[str, float]
    layer_count: int
    component_count: int
    evidence_total: float  # sum of all matched keyword weights
    strong_matches: int  # matched strong rules
    confidence: str
    change_type: str
    refined_by_llm: bool
    rationale: str = ""

    @property
    def layers(self) -> tuple[str, ...]:
        return tuple(c for c in self.affected if c in LAYERS)

    @property
    def components(self) -> tuple[str, ...]:
        return tuple(c for c in self.affected if c in COMPONENTS)


# ---------------------------------------------------------------------------
# rule file parsing

_DEFAULT_RULES = Path(__file__).parent / "defaults" / "keyword_rules.txt"


def default_rule_config() -> RuleConfig:
    """The built-in rule set, read from the rule file shipped in the package."""
    return load_rule_config(_DEFAULT_RULES)


_SECTION_RE = re.compile(r"^\[(?P<name>[a-z_]+)\]$")


def load_rule_config(path: str | Path) -> RuleConfig:
    """Parse a keyword rule file.

    Sections: [keywords] with ``category, strength, keyword`` entries (the
    keyword is everything after the second comma, so it may itself contain
    commas), [thresholds] with ``category = value`` overrides,
    [change_types] with ``type, keyword`` entries, and [confidence] with
    ``name = value`` overrides of the decision table. A file without
    [change_types] gets the built-in change-type rules; a decision-table
    field the file does not set keeps its ``ConfidenceTable`` default.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"rule file not found: {path}")
    keywords: list[KeywordRule] = []
    thresholds: dict[str, float] = {}
    change_rules: list[tuple[str, str]] = []
    confidence: dict[str, int | float] = {}
    section = None
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SECTION_RE.match(line)
        if match:
            section = match.group("name")
            if section not in ("keywords", "thresholds", "change_types", "confidence"):
                raise ConfigError(f"{path}:{lineno}: unknown section [{section}]")
            continue
        if section == "keywords":
            parts = line.split(",", 2)
            if len(parts) != 3:
                raise ConfigError(f"{path}:{lineno}: expected 'category, strength, keyword'")
            category, strength, keyword = (p.strip() for p in parts)
            try:
                keywords.append(KeywordRule(category, strength=strength, keyword=keyword))
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        elif section == "thresholds":
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'category = value'")
            category, raw_value = (p.strip() for p in line.split("=", 1))
            if category not in CATEGORIES:
                raise ConfigError(f"{path}:{lineno}: unknown category {category!r}")
            try:
                thresholds[category] = float(raw_value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad threshold: {raw_value!r}") from exc
        elif section == "change_types":
            parts = line.split(",", 1)
            if len(parts) != 2:
                raise ConfigError(f"{path}:{lineno}: expected 'type, keyword'")
            change_type, keyword = (p.strip() for p in parts)
            if change_type not in CHANGE_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown change type {change_type!r}")
            if not keyword:
                raise ConfigError(f"{path}:{lineno}: empty change-type keyword")
            change_rules.append((change_type, keyword))
        elif section == "confidence":
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'name = value'")
            name, raw_value = (p.strip() for p in line.split("=", 1))
            table_field = ConfidenceTable.__dataclass_fields__.get(name)
            if table_field is None:
                raise ConfigError(f"{path}:{lineno}: unknown confidence field {name!r}")
            try:
                confidence[name] = type(table_field.default)(raw_value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value: {raw_value!r}") from exc
        else:
            raise ConfigError(f"{path}:{lineno}: entry outside any section")
    if not keywords:
        raise ConfigError(f"{path}: no keyword rules defined")
    return RuleConfig(
        keywords=tuple(keywords),
        thresholds=thresholds,
        change_type_rules=(
            tuple(change_rules) if change_rules else default_rule_config().change_type_rules
        ),
        confidence=ConfidenceTable(**confidence),
    )


# ---------------------------------------------------------------------------
# scoring


def detect_change_type(message: str, rules: Sequence[tuple[str, str]]) -> str:
    """First change type in priority order with any keyword evidence."""
    text = message.lower()
    matched = {ct for ct, keyword in rules if keyword.lower() in text}
    for change_type in CHANGE_TYPES:
        if change_type in matched:
            return change_type
    return DEFAULT_CHANGE_TYPE


def confidence_rule(
    layer_count: int,
    component_count: int,
    evidence_total: float,
    strong_matches: int,
    table: ConfidenceTable = ConfidenceTable(),
) -> str:
    if (
        strong_matches >= table.high_strong_min
        and evidence_total >= table.high_evidence_min
        and layer_count <= table.high_layer_max
        and component_count <= table.high_component_max
    ):
        return "high"
    if evidence_total >= table.medium_evidence_min:
        return "medium"
    return "low"


def categorize_keywords(commit: CommitMeta, config: RuleConfig) -> CategorizationResult:
    """Pure keyword-stage categorization of one commit."""
    text = commit.message.lower()
    scores: dict[str, float] = {}
    evidence_total = 0.0
    strong_matches = 0
    for category in CATEGORIES:
        matched_keys: set[str] = set()
        score = 0.0
        for rule in config.keywords:
            if rule.category != category:
                continue
            key = rule.keyword.lower()
            if key in matched_keys or key not in text:
                continue
            matched_keys.add(key)
            score += rule.weight
            evidence_total += rule.weight
            if rule.strength == "strong":
                strong_matches += 1
        scores[category] = score
    affected = tuple(c for c in CATEGORIES if scores[c] >= config.threshold(c))
    layer_count = sum(1 for c in affected if c in LAYERS)
    component_count = len(affected) - layer_count
    confidence = confidence_rule(
        layer_count, component_count, evidence_total, strong_matches, config.confidence
    )
    return CategorizationResult(
        affected=affected,
        scores=scores,
        layer_count=layer_count,
        component_count=component_count,
        evidence_total=evidence_total,
        strong_matches=strong_matches,
        confidence=confidence,
        change_type=detect_change_type(commit.message, config.change_type_rules),
        refined_by_llm=False,
    )


def refine_draft(
    commit: CommitMeta,
    draft: CategorizationResult,
    client: RefinementClient,
) -> tuple[CategorizationResult, str]:
    """Send a medium- or low-confidence draft to the refinement service.

    Returns the refined result (or the draft on fallback) and the outcome
    status. High-confidence drafts must not be sent here.
    """
    if draft.confidence == "high":
        raise ValueError("high-confidence drafts are not refined")
    request = RefineRequest(
        commit_hash=commit.hash,
        message=commit.message,
        draft_layers=draft.layers,
        draft_components=draft.components,
        draft_change_type=draft.change_type,
        layer_vocabulary=LAYERS,
        component_vocabulary=COMPONENTS,
        change_types=CHANGE_TYPES,
    )
    outcome = client.refine(request)
    if outcome.response is None:
        return draft, outcome.status
    response = outcome.response
    affected = tuple(
        c for c in CATEGORIES if c in set(response.layers) | set(response.components)
    )
    layer_count = sum(1 for c in affected if c in LAYERS)
    assert layer_count <= MAX_REFINED_LAYERS
    refined = CategorizationResult(
        affected=affected,
        scores=draft.scores,
        layer_count=layer_count,
        component_count=len(affected) - layer_count,
        evidence_total=draft.evidence_total,
        strong_matches=draft.strong_matches,
        confidence=draft.confidence,
        change_type=response.change_type,
        refined_by_llm=True,
        rationale=response.rationale,
    )
    return refined, outcome.status


def categorize_commits(
    commits: Sequence[CommitMeta],
    config: RuleConfig,
    client: RefinementClient | None = None,
    concurrency: int = 4,
) -> list[tuple[CommitMeta, CategorizationResult, str]]:
    """Categorize a batch, refining medium- and low-confidence drafts.

    Refinement requests run on a small thread pool; results are merged
    back by commit hash so output order matches input order regardless of
    completion order.
    """
    if concurrency < 1:
        raise ConfigError("concurrency must be >= 1")
    drafts = {c.hash: categorize_keywords(c, config) for c in commits}
    statuses = {c.hash: "keyword_high" if drafts[c.hash].confidence == "high" else "not_refined"
                for c in commits}
    if client is not None:
        pending = [c for c in commits if drafts[c.hash].confidence != "high"]
        if pending:
            with concurrent.futures.ThreadPoolExecutor(max_workers=concurrency) as pool:
                futures = {
                    pool.submit(refine_draft, commit, drafts[commit.hash], client): commit.hash
                    for commit in pending
                }
                for future in concurrent.futures.as_completed(futures):
                    commit_hash = futures[future]
                    result, status = future.result()
                    drafts[commit_hash] = result
                    statuses[commit_hash] = status
    return [(c, drafts[c.hash], statuses[c.hash]) for c in commits]


# ---------------------------------------------------------------------------
# feature vector


FEATURE_NAMES: tuple[str, ...] = (
    tuple(f"cat_{c.lower()}" for c in CATEGORIES)
    + tuple(f"type_{t}" for t in CHANGE_TYPES)
    + ("layer_count", "component_count")
    + ("files_changed", "lines_added", "lines_deleted", "total_churn", "complexity_score")
    + tuple(f"conf_{g}" for g in CONFIDENCE_GRADES)
    + ("refined_by_llm", "keyword_evidence", "strong_matches", "message_length", "merge_ref_count")
)

assert len(FEATURE_NAMES) == 34


@dataclass(frozen=True)
class CommitFeatures(Record):
    """Fixed 34-slot numeric encoding of a categorized commit."""

    KIND: ClassVar[str] = "commit_features"

    commit_hash: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(FEATURE_NAMES):
            raise ValueError(f"expected {len(FEATURE_NAMES)} features, got {len(self.values)}")

    def as_dict(self) -> dict[str, float]:
        return dict(zip(FEATURE_NAMES, self.values))

    def encode(self) -> dict:
        return {"kind": self.KIND, "hash": self.commit_hash, "features": self.as_dict()}

    @classmethod
    def decode(cls, record: dict) -> "CommitFeatures":
        features = decode(dict[str, float], record.get("features"), "features")
        return super().decode({"kind": record.get("kind"), "commit_hash": record.get("hash"),
                               "values": [features[name] for name in FEATURE_NAMES]})


def complexity_score(total_churn: float, category_count: int, files_changed: float) -> float:
    """Churn (saturating at 1000 lines), category spread and file count
    (saturating at 50 files), weighted 0.4 / 0.3 / 0.3 into [0, 1]."""
    return (
        0.4 * min(1.0, total_churn / 1000.0)
        + 0.3 * (category_count / len(CATEGORIES))
        + 0.3 * min(1.0, files_changed / 50.0)
    )


def build_feature_vector(commit: CommitMeta, result: CategorizationResult) -> CommitFeatures:
    affected = set(result.affected)
    total_churn = float(commit.lines_added + commit.lines_deleted)
    values: list[float] = []
    values.extend(1.0 if c in affected else 0.0 for c in CATEGORIES)
    values.extend(1.0 if result.change_type == t else 0.0 for t in CHANGE_TYPES)
    values.append(float(result.layer_count))
    values.append(float(result.component_count))
    values.append(float(commit.files_changed))
    values.append(float(commit.lines_added))
    values.append(float(commit.lines_deleted))
    values.append(total_churn)
    n_categories = result.layer_count + result.component_count
    values.append(complexity_score(total_churn, n_categories, float(commit.files_changed)))
    values.extend(1.0 if result.confidence == g else 0.0 for g in CONFIDENCE_GRADES)
    values.append(1.0 if result.refined_by_llm else 0.0)
    values.append(float(result.evidence_total))
    values.append(float(result.strong_matches))
    values.append(float(len(commit.message)))
    values.append(float(len(_MERGE_REF_RE.findall(commit.message))))
    return CommitFeatures(commit_hash=commit.hash, values=tuple(values))


# slots that are one-hot or boolean by construction; the oversampler rounds
# these after interpolation
BINARY_FEATURE_NAMES: tuple[str, ...] = (
    tuple(f"cat_{c.lower()}" for c in CATEGORIES)
    + tuple(f"type_{t}" for t in CHANGE_TYPES)
    + tuple(f"conf_{g}" for g in CONFIDENCE_GRADES)
    + ("refined_by_llm",)
)
