"""Join per-test measurements with per-commit features into analysis rows.

One row per test: the performance targets (efficiency, loss, jitter), the
environment snapshot taken from radio metrics and event counters, and the
feature vector of the commit that was deployed when the test ran. Rows
without a usable efficiency value are dropped, not imputed; the target of
every downstream model has to be a real measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .commitcat import FEATURE_NAMES, CommitFeatures
from .errors import DataError
from .ingest import TestRecord
from .store import CommitMeta, read_records, require_str

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


@dataclass(frozen=True)
class AnalysisRow:
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
    commit: dict[str, float]
    expected_efficiency: float | None = field(default=None)

    def encode(self) -> dict:
        return {
            "kind": "analysis_row",
            "day": self.day,
            "time": self.time,
            "commit_hash": self.commit_hash,
            "test_epoch": self.test_epoch,
            "deploy_epoch": self.deploy_epoch,
            "target_rate": self.target_rate,
            "efficiency": self.efficiency,
            "packet_loss": self.packet_loss,
            "jitter": self.jitter,
            "env": {k: self.env.get(k) for k in ENV_FEATURES},
            "commit": {k: self.commit[k] for k in FEATURE_NAMES},
            "expected_efficiency": self.expected_efficiency,
        }

    @classmethod
    def decode(cls, record: dict) -> "AnalysisRow":
        if record.get("kind") != "analysis_row":
            raise DataError(f"expected analysis_row record, got {record.get('kind')!r}")
        try:
            return cls(
                day=require_str(record["day"], "day"),
                time=require_str(record["time"], "time"),
                commit_hash=require_str(record["commit_hash"], "commit_hash"),
                test_epoch=float(record["test_epoch"]),
                deploy_epoch=float(record["deploy_epoch"]),
                target_rate=float(record["target_rate"]),
                efficiency=float(record["efficiency"]),
                packet_loss=record.get("packet_loss"),
                jitter=record.get("jitter"),
                env={k: record["env"].get(k) for k in ENV_FEATURES},
                commit={k: float(record["commit"][k]) for k in FEATURE_NAMES},
                expected_efficiency=record.get("expected_efficiency"),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise DataError(f"malformed analysis_row record: {exc!r}") from exc


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
    records = read_records(path, kind="analysis_row")
    rows = [AnalysisRow.decode(r) for r in records]
    if not rows:
        raise DataError(f"no analysis rows in {path}")
    rows.sort(key=lambda r: (r.test_epoch, r.commit_hash))
    return rows
