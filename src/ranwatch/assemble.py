"""Join per-test measurements with per-commit features into analysis rows.

One row per test: the performance targets (efficiency, loss, jitter), the
environment snapshot taken from radio metrics and event counters, and the
feature vector of the commit that was deployed when the test ran. Rows
without a usable efficiency value are dropped, not imputed; the target of
every downstream model has to be a real measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from .commitcat import FEATURE_NAMES, CommitFeatures
from .errors import DataError
from .ingest import TestRecord
from .store import CommitMeta, Record, load_records

# environment signals a model may condition on; commit features never
# appear here, the decomposition depends on the two sets staying disjoint
ENV_FEATURES: tuple[str, ...] = (
    "rsrp",
    "sinr",
    "dl_bler",
    "ul_bler",
    "cqi_mean",
    "harq_retx_round1",
    "harq_retx_total",
    "target_rate",
    "msg2_failures",
    "scheduler_warnings",
    "error_lines",
)

_RADIO_ENV = ("rsrp", "sinr", "dl_bler", "ul_bler", "cqi_mean",
              "harq_retx_round1", "harq_retx_total")
_EVENT_ENV = ("msg2_failures", "scheduler_warnings", "error_lines")
_FEATURE_SET = frozenset(FEATURE_NAMES)


@dataclass(frozen=True)
class AnalysisRow(Record):
    KIND: ClassVar[str] = "analysis_row"

    day: str
    time: str
    commit_hash: str
    test_epoch: float
    deploy_epoch: float
    target_rate: float
    efficiency: float
    packet_loss: float | None
    jitter: float | None
    env: dict[str, float | None]
    commit: dict[str, float]  # FEATURE_NAMES exactly: train-risk merges it with env
    expected_efficiency: float | None = field(default=None)

    @classmethod
    def decode(cls, record: dict) -> "AnalysisRow":
        row = super().decode(record)
        if row.commit.keys() != _FEATURE_SET:
            raise ValueError(f"commit must hold the {len(FEATURE_NAMES)} commit features")
        return row


def env_snapshot(record: TestRecord) -> dict[str, float | None]:
    env: dict[str, float | None] = {}
    for name in _RADIO_ENV:
        env[name] = getattr(record.radio, name)
    env["target_rate"] = record.traffic.target_rate
    for name in _EVENT_ENV:
        value = record.events.get(name)
        env[name] = float(value) if value is not None else None
    return env


def assemble_rows(
    test_records: list[TestRecord],
    commit_features: dict[str, CommitFeatures],
    commits: list[CommitMeta],
) -> tuple[list[AnalysisRow], list[tuple[str, str]]]:
    """Build chronologically sorted analysis rows.

    Returns (rows, skipped) where skipped lists (test id, reason) pairs for
    tests that could not be joined. An empty join is a data error.
    """
    deploy_by_hash = {c.hash: c.deploy_epoch for c in commits}
    rows: list[AnalysisRow] = []
    skipped: list[tuple[str, str]] = []
    for record in test_records:
        test_id = str(record.test_id)
        if record.commit_hash is None:
            skipped.append((test_id, "no commit deployed at test time"))
            continue
        features = commit_features.get(record.commit_hash)
        if features is None:
            skipped.append((test_id, f"no features for commit {record.commit_hash}"))
            continue
        deploy_epoch = deploy_by_hash.get(record.commit_hash)
        if deploy_epoch is None:
            skipped.append((test_id, f"unknown commit {record.commit_hash}"))
            continue
        efficiency = record.traffic.throughput_efficiency
        target_rate = record.traffic.target_rate
        if efficiency is None or target_rate is None:
            skipped.append((test_id, "missing efficiency measurement"))
            continue
        rows.append(
            AnalysisRow(
                day=record.test_id.day.isoformat(),
                time=record.test_id.time_of_day.isoformat(),
                commit_hash=record.commit_hash,
                test_epoch=record.test_id.epoch,
                deploy_epoch=deploy_epoch,
                target_rate=target_rate,
                efficiency=efficiency,
                packet_loss=record.traffic.packet_loss,
                jitter=record.traffic.jitter,
                env=env_snapshot(record),
                commit=features.as_dict(),
            )
        )
    if not rows:
        raise DataError("no analysis rows could be assembled")
    rows.sort(key=lambda r: (r.test_epoch, r.commit_hash))
    return rows, skipped


def load_rows(path) -> list[AnalysisRow]:
    """Analysis rows of a file, sorted by (test epoch, commit hash)."""
    rows = load_records(path, AnalysisRow)
    if not rows:
        raise DataError(f"no analysis rows in {path}")
    rows.sort(key=lambda r: (r.test_epoch, r.commit_hash))
    return rows
