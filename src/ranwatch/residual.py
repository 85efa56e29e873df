"""Separate code-caused throughput loss from environment-caused loss.

The unit of analysis is the ratio of measured to expected efficiency,
where the expectation comes from an environment-only model. A test is
flagged as code-degraded only when two things hold at once: the ratio
falls below a floor, and the environment was good enough that the model
expected solid throughput. Poor radio conditions produce low absolute
throughput with a ratio near one; those tests are labeled as
environment-limited, not blamed on code.

Also here: a time-decay scoring baseline that credits a commit for
faults occurring shortly after its deployment, over an hour, a day and a
week, used as a comparison point, per-commit rollups that need repeated
evidence before calling a commit degraded, and the decomposition of each
target's variance into the shares of channel, load and code.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import ClassVar

import numpy as np

from .assemble import AnalysisRow
from .baseline import build_feature_matrix
from .commitcat import CATEGORIES, FEATURE_NAMES, LAYERS
from .errors import ConfigError, DataError
from .stats import cohens_d, discretize, variance_explained, welch_t
from .store import Record

RATIO_EPS = 1e-6


@dataclass(frozen=True)
class Thresholds:
    ratio_floor: float = 0.9
    min_expected_efficiency: float = 0.6

    def __post_init__(self) -> None:
        for name in ("ratio_floor", "min_expected_efficiency"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise ConfigError(f"{name} must be in (0, 1], got {v}")


def residual_ratio(measured: float, expected: float) -> float:
    if expected <= RATIO_EPS:
        raise DataError(
            f"expected efficiency {expected} is at or below the guard value {RATIO_EPS}"
        )
    return measured / expected


@dataclass(frozen=True)
class DegradationLabel(Record):
    KIND: ClassVar[str] = "label"

    day: str
    time: str
    commit_hash: str
    test_epoch: float
    deploy_epoch: float
    ratio: float
    expected_efficiency: float
    measured_efficiency: float
    degraded: bool
    gating: str  # degraded | environmental_limit | normal
    attributed_layers: tuple[str, ...]


def classify(ratio: float, expected: float, thresholds: Thresholds) -> str:
    """Three-way gate on (ratio, expected efficiency)."""
    if ratio < thresholds.ratio_floor:
        if expected >= thresholds.min_expected_efficiency:
            return "degraded"
        return "environmental_limit"
    return "normal"


def commit_layers(commit_features: dict[str, float]) -> tuple[str, ...]:
    return tuple(
        layer for layer in LAYERS if commit_features.get(f"cat_{layer.lower()}", 0.0) >= 0.5
    )


def label_rows(rows: list[AnalysisRow], thresholds: Thresholds) -> list[DegradationLabel]:
    labels = []
    for row in rows:
        if row.expected_efficiency is None:
            raise DataError(
                f"row {row.day}/{row.time} has no expected efficiency; run the baseline first"
            )
        ratio = residual_ratio(row.efficiency, row.expected_efficiency)
        gating = classify(ratio, row.expected_efficiency, thresholds)
        degraded = gating == "degraded"
        labels.append(
            DegradationLabel(
                day=row.day,
                time=row.time,
                commit_hash=row.commit_hash,
                test_epoch=row.test_epoch,
                deploy_epoch=row.deploy_epoch,
                ratio=ratio,
                expected_efficiency=row.expected_efficiency,
                measured_efficiency=row.efficiency,
                degraded=degraded,
                gating=gating,
                attributed_layers=commit_layers(row.commit) if degraded else (),
            )
        )
    return labels


# ---------------------------------------------------------------------------
# summaries


@dataclass(frozen=True)
class ResidualSummary:
    n: int
    mean_ratio: float
    median_ratio: float
    frac_below_floor: float
    n_degraded: int
    degraded_mean: float | None
    degraded_std: float | None
    normal_mean: float | None
    normal_std: float | None
    welch_t: float | None
    welch_p: float | None
    cohens_d: float | None


def summarize(labels: list[DegradationLabel], thresholds: Thresholds) -> ResidualSummary:
    if not labels:
        raise DataError("no labels to summarize")
    ratios = np.array([l.ratio for l in labels], dtype=float)
    degraded = np.array([l.degraded for l in labels], dtype=bool)
    deg = ratios[degraded]
    rest = ratios[~degraded]
    t = p = d = None
    deg_mean = deg_std = rest_mean = rest_std = None
    if deg.size:
        deg_mean = float(deg.mean())
        deg_std = float(deg.std(ddof=1)) if deg.size > 1 else None
    if rest.size:
        rest_mean = float(rest.mean())
        rest_std = float(rest.std(ddof=1)) if rest.size > 1 else None
    # the two-sample contrast needs spread on both sides
    if deg.size >= 2 and rest.size >= 2 and deg.std(ddof=1) > 0 and rest.std(ddof=1) > 0:
        wt = welch_t(deg, rest)
        t, p = wt.t, wt.p
        d = cohens_d(deg, rest)
    return ResidualSummary(
        n=len(labels),
        mean_ratio=float(ratios.mean()),
        median_ratio=float(np.median(ratios)),
        frac_below_floor=float(np.mean(ratios < thresholds.ratio_floor)),
        n_degraded=int(degraded.sum()),
        degraded_mean=deg_mean,
        degraded_std=deg_std,
        normal_mean=rest_mean,
        normal_std=rest_std,
        welch_t=t,
        welch_p=p,
        cohens_d=d,
    )


@dataclass(frozen=True)
class LayerImpact:
    layer: str
    degraded_cases: int
    mean_ratio: float
    median_ratio: float
    std_ratio: float | None


def layer_impact_table(labels: list[DegradationLabel]) -> list[LayerImpact]:
    """Per-layer spread of degraded-test ratios.

    A test attributed to several layers counts once per layer. Layers
    with no degraded case are omitted. Sorted worst (lowest mean) first.
    """
    per_layer: dict[str, list[float]] = {}
    for lab in labels:
        if not lab.degraded:
            continue
        for layer in lab.attributed_layers:
            per_layer.setdefault(layer, []).append(lab.ratio)
    out = []
    for layer, values in per_layer.items():
        arr = np.array(values, dtype=float)
        out.append(
            LayerImpact(
                layer=layer,
                degraded_cases=len(values),
                mean_ratio=float(arr.mean()),
                median_ratio=float(np.median(arr)),
                std_ratio=float(arr.std(ddof=1)) if arr.size > 1 else None,
            )
        )
    out.sort(key=lambda r: (r.mean_ratio, r.layer))
    return out


# ---------------------------------------------------------------------------
# time-decay comparison baseline


# window lengths in seconds: an hour, a day, a week
TEMPORAL_WINDOWS_S = (3600.0, 86400.0, 604800.0)


@dataclass(frozen=True)
class TemporalScore:
    commit_hash: str
    score: float
    flagged: bool


def temporal_scores(
    labels: list[DegradationLabel], thresholds: Thresholds = Thresholds()
) -> list[TemporalScore]:
    """Score commits by decayed proximity of faulty tests to deployment.

    A faulty test here is any test with ratio below the floor of
    ``thresholds``, with no environment gate: this baseline has no
    environment model, that is the point of comparing against it. Each
    window of ``TEMPORAL_WINDOWS_S`` contributes exp(-decay * dt) for every
    faulty test within its length, with a decay that halves at half the
    length. A commit scoring 1.0 or more is flagged.
    """
    by_hash: dict[str, float] = {}  # in first-test order
    for lab in labels:
        by_hash.setdefault(lab.commit_hash, 0.0)
        dt_s = lab.test_epoch - lab.deploy_epoch
        if dt_s < 0:
            raise DataError(
                f"test {lab.day}/{lab.time} predates its commit deployment"
            )
        if lab.ratio >= thresholds.ratio_floor:
            continue
        for length_s in TEMPORAL_WINDOWS_S:
            if dt_s <= length_s:
                by_hash[lab.commit_hash] += math.exp(-(2.0 * math.log(2.0) / length_s) * dt_s)
    return [
        TemporalScore(commit_hash=h, score=score, flagged=score >= 1.0)
        for h, score in by_hash.items()
    ]


# ---------------------------------------------------------------------------
# per-commit rollup


@dataclass(frozen=True)
class CommitRollup:
    commit_hash: str
    n_tests: int
    n_degraded: int
    min_ratio: float
    mean_ratio: float
    verdict: str  # degraded | clean


def commit_rollup(
    labels: list[DegradationLabel], min_degraded: int = 2
) -> list[CommitRollup]:
    """Verdict per commit: degraded only on repeated evidence.

    A single flagged test can be one bad measurement; the default asks
    for two before blaming the commit. Commits appear in first-test
    order.
    """
    if min_degraded < 1:
        raise ConfigError("min_degraded must be >= 1")
    grouped: dict[str, list[DegradationLabel]] = {}
    for lab in labels:
        grouped.setdefault(lab.commit_hash, []).append(lab)
    out = []
    for h, group in grouped.items():
        ratios = np.array([l.ratio for l in group], dtype=float)
        n_degraded = sum(1 for l in group if l.degraded)
        out.append(
            CommitRollup(
                commit_hash=h,
                n_tests=len(group),
                n_degraded=n_degraded,
                min_ratio=float(ratios.min()),
                mean_ratio=float(ratios.mean()),
                verdict="degraded" if n_degraded >= min_degraded else "clean",
            )
        )
    return out


# ---------------------------------------------------------------------------
# reporting helpers


def coverage_tradeoff(
    labels: list[DegradationLabel],
    floors: tuple[float, ...],
    thresholds: Thresholds = Thresholds(),
) -> list[tuple[float, float, int, float | None]]:
    """For each candidate floor: retained fraction, flags, retained spread.

    Retained means ratio at or above the floor; a flag needs the usual
    environment gate, the minimum expected efficiency of ``thresholds``.
    Shows how aggressive a floor can get before it starts eating the
    normal population.
    """
    if not labels:
        raise DataError("no labels for the tradeoff table")
    ratios = np.array([l.ratio for l in labels], dtype=float)
    expected = np.array([l.expected_efficiency for l in labels], dtype=float)
    gated = expected >= thresholds.min_expected_efficiency
    out = []
    for floor in floors:
        if not (0.0 < floor <= 1.0):
            raise ConfigError(f"floor {floor} out of range")
        retained = ratios >= floor
        flagged = int(np.sum(~retained & gated))
        spread = (
            float(ratios[retained].std(ddof=1)) if int(retained.sum()) > 1 else None
        )
        out.append((floor, float(np.mean(retained)), flagged, spread))
    return out


def ratio_histogram(labels: list[DegradationLabel]) -> list[tuple[float, float, int]]:
    """Histogram rows (bin_lo, bin_hi, count): 40 bins over ratios 0 to 2.

    A ratio above 2 is not counted.
    """
    ratios = np.array([l.ratio for l in labels], dtype=float)
    counts, edges = np.histogram(ratios, bins=40, range=(0.0, 2.0))
    return [(float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(40)]


# ---------------------------------------------------------------------------
# variance decomposition


_TARGETS = ("efficiency", "packet_loss", "jitter")
_CHANNEL_COLUMNS = ("rsrp", "sinr", "dl_bler", "ul_bler")
_LOAD_COLUMNS = ("target_rate",)


@dataclass(frozen=True)
class VarianceShare:
    factor: str  # channel | load | code
    target: str
    score: float
    n_rows: int
    n_groups: int


def _bin_labels(values: np.ndarray, n_bins: int, name: str) -> np.ndarray:
    """Quantile-bin numeric columns; small vocabularies pass through."""
    distinct = np.unique(values)
    if distinct.size <= n_bins:
        return np.searchsorted(distinct, values)
    return discretize(values, n_bins=n_bins, name=name).labels


def decompose(rows: list[AnalysisRow], max_bins: int) -> list[VarianceShare]:
    """Share of each target's variance that channel, load and code each
    explain beyond the other two, from the environment columns, median-imputed
    where measurements gap, and the commit's category flags, each cut into at
    most ``max_bins`` bins. A target is scored on the rows that measured it,
    and left out if constant or measured by fewer than two; a variance that
    overflows a float is a DataError."""
    env = build_feature_matrix(_CHANNEL_COLUMNS + _LOAD_COLUMNS, [row.env for row in rows])
    factors: dict[str, list[tuple[str, np.ndarray]]] = {"channel": [], "load": [], "code": []}
    for j, col in enumerate(env.vectorizer.columns):
        factors["load" if col in _LOAD_COLUMNS else "channel"].append((col, env.values[:, j]))
    for name in FEATURE_NAMES[: len(CATEGORIES)]:
        factors["code"].append((name, np.array([row.commit[name] for row in rows], dtype=float)))
    shares = []
    for target in _TARGETS:
        values = [getattr(row, target) for row in rows]
        keep = [i for i, v in enumerate(values) if v is not None]
        if len(keep) < 2:
            continue
        y = np.array([values[i] for i in keep], dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            spread = float(np.var(y))
        if spread == 0.0:
            continue
        if not math.isfinite(spread):
            raise DataError(f"variance of {target} overflows a float; check its largest values")
        binned = {factor: [_bin_labels(vals[keep], max_bins, name) for name, vals in columns]
                  for factor, columns in factors.items()}
        for factor in binned:
            conditioning = [col for other in binned if other != factor for col in binned[other]]
            report = variance_explained(y, binned[factor], conditioning)
            shares.append(VarianceShare(factor, target, *astuple(report)))
    if not shares:
        raise DataError("no decomposable targets with variance in the rows")
    return shares
