"""Synthetic test corpus generator with known ground truth.

Emits exactly the dataset layout the ingest stage consumes (day and time
directories with iPerf CSVs and gNB logs), a commit metadata file, and two
ground-truth files: per-test expected efficiency plus degradation flags,
and per-commit planted categories plus injected regressions.

The environment law is a logistic link-quality curve scaled by a capacity
term: eff = clamp(sigmoid(a*sinr + b) * min(1, link_capacity/load), 0, 1),
with additive Gaussian noise on the measured value. Injected regressions
multiply the true efficiency by (1 - drop) for every test of the target
commit from its onset delay onward.

All randomness flows through one seeded generator in a fixed draw order,
so the same scenario produces byte-identical output trees.
"""

from __future__ import annotations

import datetime as dt
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .store import decode, write_records

LOAD_HIGH_MBPS = 50.0  # loads at or above this emit scheduler warnings
DEPLOY_LEAD = dt.timedelta(seconds=300)  # a commit deploys this long before its first test
MAX_EFFICIENCY = 1.2  # measured efficiency is clamped to [0, this]
N_INTERVALS = 10  # iPerf report intervals per test
INTERVAL_SPREAD = 0.02  # each interval's bit rate is off the mean by up to this fraction

IPERF_HEADER = (
    "interval_start",
    "interval_end",
    "bytes",
    "bits_per_second",
    "jitter_ms",
    "lost_packets",
    "total_packets",
)

# message building blocks; every planted keyword must trigger exactly its
# own category against the default rule set, and distractors none at all
PLANT_KEYWORDS: dict[str, tuple[str, ...]] = {
    "PHY": ("L1", "NR_PHY", "PHY"),
    "MAC": ("MAC", "NR_MAC", "MSG3", "LogicalChannelConfig"),
    "RLC": ("RLC",),
    "PDCP": ("PDCP",),
    "RRC": ("RRC",),
    "NAS": ("NAS",),
    "NGAP": ("NGAP",),
    "F1AP": ("F1AP",),
    "E1AP": ("E1AP",),
    "memory": ("memory leak", "use-after-free", "memory"),
    "threading": ("pthread", "deadlock", "mutex"),
    "radio": ("usrp", "rfsimulator", "radio"),
    "scheduler": ("gNB_scheduler",),
    "timer": ("t_reordering", "timer", "timeout"),
    "queue": ("enqueue", "dequeue", "queue", "fifo"),
}

DISTRACTOR_WORDS = (
    "update",
    "minor",
    "internal",
    "adjust",
    "polish",
    "general",
    "misc",
    "handling",
    "logging",
    "consistency",
    "docs",
    "typo",
    "improve",
)

CHANGE_WORDS = ("fix", "add support for", "rework", "optimize", "correct")


@dataclass(frozen=True)
class Injection:
    commit_index: int
    layers: tuple[str, ...]
    drop: float  # multiply true efficiency by (1 - drop)
    onset_delay: int = 0  # tests of the commit before the drop appears

    def __post_init__(self) -> None:
        if not (0.0 < self.drop < 1.0):
            raise ConfigError(f"injection drop must be in (0, 1), got {self.drop}")
        if self.onset_delay < 0:
            raise ConfigError("injection onset delay must be >= 0")
        if not self.layers:
            raise ConfigError("injection needs at least one planted layer")
        unknown = sorted(set(self.layers) - set(PLANT_KEYWORDS))
        if unknown:
            raise ConfigError(f"injection names unknown layers: {unknown}")


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int
    n_commits: int
    tests_per_commit: int
    test_interval_hours: float = 16.0
    start_time: str = "2025-01-06T06:00:00"
    loads: tuple[float, ...] = (10.0, 20.0, 30.0, 80.0)
    sinr_range: tuple[float, float] = (0.0, 30.0)
    rsrp_base: float = -95.0
    rsrp_per_sinr_db: float = 1.0
    rsrp_jitter: float = 1.0
    bler_scale: float = 0.5
    bler_decay: float = 6.0
    sigmoid_a: float = 0.2
    sigmoid_b: float = -0.85
    link_capacity: float = 90.0
    noise_std: float = 0.03
    kpm_reports: int = 5
    injections: tuple[Injection, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        try:
            dt.datetime.fromisoformat(self.start_time)
        except ValueError:
            raise ConfigError(f"start_time is not an ISO timestamp: {self.start_time!r}") from None
        if self.n_commits < 1 or self.tests_per_commit < 1:
            raise ConfigError("scenario needs at least one commit and one test")
        if self.test_interval_hours <= 0:
            raise ConfigError("test interval must be positive")
        if not self.loads or not all(l > 0 for l in self.loads):
            raise ConfigError("loads must be positive")
        # the bit rates of one test's CSV, and their sum, must be floats
        if not math.isfinite(max(self.loads) * 1e6 * MAX_EFFICIENCY * (1 + INTERVAL_SPREAD)
                             * N_INTERVALS):
            raise ConfigError(f"loads: {max(self.loads)} Mbps overflows the bit rates written")
        if self.noise_std < 0 or self.rsrp_jitter < 0:
            raise ConfigError("noise_std and rsrp_jitter must be >= 0")
        if self.bler_decay <= 0 or self.kpm_reports < 1:
            raise ConfigError("bler_decay must be positive and kpm_reports at least 1")
        try:  # the first deployment and the last test must have dates
            start = dt.datetime.fromisoformat(self.start_time)
            last = (self.n_commits * self.tests_per_commit - 1) * dt.timedelta(
                hours=self.test_interval_hours)
            start - DEPLOY_LEAD, start + last
        except (OverflowError, ValueError):
            raise ConfigError(
                f"tests every {self.test_interval_hours} test_interval_hours from start_time "
                f"{self.start_time} run outside the years 1 to 9999") from None
        seen = set()
        for inj in self.injections:
            if not (0 <= inj.commit_index < self.n_commits):
                raise ConfigError(f"injection commit index {inj.commit_index} out of range")
            if inj.commit_index in seen:
                raise ConfigError(f"duplicate injection for commit {inj.commit_index}")
            seen.add(inj.commit_index)

    def expected_efficiency(self, sinr: float, load: float) -> float:
        link = 1.0 / (1.0 + math.exp(-(self.sigmoid_a * sinr + self.sigmoid_b)))
        capacity = min(1.0, self.link_capacity / load)
        return min(1.0, max(0.0, link * capacity))


def load_scenario(path: str | Path) -> ScenarioSpec:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"scenario file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    try:
        spec = decode(ScenarioSpec, raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad scenario: {exc}") from exc
    unknown = set(raw) - ScenarioSpec.__dataclass_fields__.keys()
    if unknown:
        raise ConfigError(f"{path}: unknown scenario fields: {sorted(unknown)}")
    return spec


@dataclass(frozen=True)
class GeneratedCorpus:
    dataset_dir: Path
    commits_file: Path
    truth_tests_file: Path
    truth_commits_file: Path


def _round_as_written(value: float, decimals: int) -> float:
    """The float a parser recovers from our fixed-precision text."""
    return float(f"{value:.{decimals}f}")


def _build_message(
    rng: np.random.Generator, categories: tuple[str, ...]
) -> tuple[str, int]:
    parts = [CHANGE_WORDS[int(rng.integers(0, len(CHANGE_WORDS)))]]
    for category in categories:
        pool = PLANT_KEYWORDS[category]
        parts.append(pool[int(rng.integers(0, len(pool)))])
    parts.append(DISTRACTOR_WORDS[int(rng.integers(0, len(DISTRACTOR_WORDS)))])
    parts.append(DISTRACTOR_WORDS[int(rng.integers(0, len(DISTRACTOR_WORDS)))])
    n_refs = int(rng.integers(0, 3))
    for _ in range(n_refs):
        parts.append(f"!{int(rng.integers(1000, 9999))}")
    return " ".join(parts), n_refs


def generate(spec: ScenarioSpec, out_dir: str | Path) -> GeneratedCorpus:
    out_dir = Path(out_dir)
    dataset_dir = out_dir / "dataset"
    dataset_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    start = dt.datetime.fromisoformat(spec.start_time)
    interval = dt.timedelta(hours=spec.test_interval_hours)
    injections = {inj.commit_index: inj for inj in spec.injections}
    categories = tuple(PLANT_KEYWORDS)

    commit_records: list[dict] = []
    truth_commits: list[dict] = []
    truth_tests: list[dict] = []

    for commit_index in range(spec.n_commits):
        commit_hash = bytes(rng.integers(0, 256, size=20, dtype=np.uint8)).hex()
        injection = injections.get(commit_index)
        if injection is not None:
            planted = injection.layers
        else:
            n_cats = int(rng.integers(1, 3))
            picks = rng.choice(len(categories), size=n_cats, replace=False)
            planted = tuple(categories[int(i)] for i in sorted(picks))
        message, _ = _build_message(rng, planted)
        files_changed = int(rng.integers(1, 25))
        lines_added = int(rng.integers(5, 400))
        lines_deleted = int(rng.integers(0, 200))

        first_test = start + (commit_index * spec.tests_per_commit) * interval
        deploy_time = first_test - DEPLOY_LEAD
        commit_records.append(
            {
                "kind": "commit",
                "hash": commit_hash,
                "deploy_time": deploy_time.isoformat(),
                "message": message,
                "files_changed": files_changed,
                "lines_added": lines_added,
                "lines_deleted": lines_deleted,
            }
        )
        truth_commits.append(
            {
                "kind": "truth_commit",
                "hash": commit_hash,
                "index": commit_index,
                "deploy_time": deploy_time.isoformat(),
                "categories": list(planted),
                "injected": injection is not None,
                "drop": injection.drop if injection else 0.0,
                "onset_delay": injection.onset_delay if injection else 0,
            }
        )

        for test_index in range(spec.tests_per_commit):
            global_index = commit_index * spec.tests_per_commit + test_index
            stamp = start + global_index * interval
            load = float(spec.loads[global_index % len(spec.loads)])

            sinr = float(rng.uniform(*spec.sinr_range))
            rsrp = spec.rsrp_base + spec.rsrp_per_sinr_db * sinr + float(
                rng.normal(0.0, spec.rsrp_jitter)
            )
            dl_bler = min(1.0, spec.bler_scale * math.exp(-sinr / spec.bler_decay))
            ul_bler = 0.6 * dl_bler
            cqi = min(15.0, max(0.0, sinr / 2.0))
            expected = spec.expected_efficiency(sinr, load)
            degraded = injection is not None and test_index >= injection.onset_delay
            multiplier = (1.0 - injection.drop) if degraded else 1.0
            measured_eff = expected * multiplier + float(rng.normal(0.0, spec.noise_std))
            measured_eff = min(MAX_EFFICIENCY, max(0.0, measured_eff))

            test_dir = dataset_dir / stamp.strftime("%Y%m%d") / stamp.strftime("%H%M%S")
            test_dir.mkdir(parents=True, exist_ok=True)

            # ---- iPerf CSV -------------------------------------------------
            bps = [
                measured_eff * load * 1e6
                * (1.0 + float(rng.uniform(-INTERVAL_SPREAD, INTERVAL_SPREAD)))
                for _ in range(N_INTERVALS)
            ]
            byte_counts = [int(b / 8.0) for b in bps]
            jitters = [
                _round_as_written(
                    max(0.05, float(rng.normal(1.5 * (1.0 + load / 200.0), 0.2))), 3
                )
                for _ in range(N_INTERVALS)
            ]
            loss_frac = min(1.0, 0.5 * dl_bler + float(rng.uniform(0.0, 0.01)))
            totals = [max(1, int(b / 1200)) for b in byte_counts]
            losses = [int(round(loss_frac * t)) for t in totals]
            csv_lines = [",".join(IPERF_HEADER)]
            for i in range(N_INTERVALS):
                csv_lines.append(
                    f"{float(i)!r},{float(i + 1)!r},{byte_counts[i]},{bps[i]!r},"
                    f"{jitters[i]!r},{losses[i]},{totals[i]}"
                )
            csv_path = test_dir / f"iperf_dl_{load:g}mbps.csv"
            csv_path.write_text("\n".join(csv_lines) + "\n", encoding="utf-8")

            measured_throughput = sum(bps) / len(bps) / 1e6
            efficiency = measured_throughput / load
            packet_loss = sum(losses) / sum(totals)
            jitter_mean = sum(jitters) / len(jitters)

            # ---- gNB log ---------------------------------------------------
            rsrp_reports = [
                _round_as_written(rsrp + float(rng.normal(0.0, 0.5)), 2)
                for _ in range(spec.kpm_reports)
            ]
            sinr_reports = [
                _round_as_written(sinr + float(rng.normal(0.0, 0.3)), 2)
                for _ in range(spec.kpm_reports)
            ]
            dl_reports = [
                _round_as_written(
                    min(1.0, max(0.0, dl_bler * (1.0 + float(rng.uniform(-0.1, 0.1))))), 4
                )
                for _ in range(spec.kpm_reports)
            ]
            ul_reports = [
                _round_as_written(
                    min(1.0, max(0.0, ul_bler * (1.0 + float(rng.uniform(-0.1, 0.1))))), 4
                )
                for _ in range(spec.kpm_reports)
            ]
            cqi_reports = [
                _round_as_written(min(15.0, max(0.0, cqi + float(rng.normal(0.0, 0.3)))), 1)
                for _ in range(spec.kpm_reports)
            ]
            harq1 = int(rng.integers(0, 3)) + int(60.0 * dl_bler)
            harq2 = int(harq1 * 0.4)
            pdu_established = 1 + int(rng.integers(0, 2))
            msg2_failures = int(rng.random() < dl_bler)
            rrc_release = int(rng.random() < 0.3)
            sched_warnings = int(rng.integers(0, 3)) if load >= LOAD_HIGH_MBPS else 0
            error_lines = int(rng.random() < 0.2)

            log_lines = ["[SYS] gnb runtime log start"]
            log_lines.append("[RRC] RRC setup complete ue=0")
            for k in range(pdu_established):
                log_lines.append(f"[NGAP] PDU session established id={k}")
            for k in range(spec.kpm_reports):
                log_lines.append(f"[PHY] RSRP {rsrp_reports[k]} dBm")
                log_lines.append(f"[PHY] SINR {sinr_reports[k]} dB")
                log_lines.append(f"[MAC] DL_BLER {dl_reports[k]:.4f}")
                log_lines.append(f"[MAC] UL_BLER {ul_reports[k]:.4f}")
                log_lines.append(f"[MAC] CQI {cqi_reports[k]:.1f}")
                log_lines.append(f"[SYS] heartbeat ok seq={k}")
            for k in range(harq1):
                log_lines.append(f"[MAC] HARQ retx round=1 pid={k % 16}")
            for k in range(harq2):
                log_lines.append(f"[MAC] HARQ retx round=2 pid={k % 16}")
            for _ in range(msg2_failures):
                log_lines.append("[MAC] RA msg2 failure detected")
            for _ in range(sched_warnings):
                log_lines.append("[MAC] scheduler warning: backlog above watermark")
            for _ in range(rrc_release):
                log_lines.append("[RRC] RRC release ue=0")
            for _ in range(error_lines):
                log_lines.append("[SYS] ERROR recovered from transient fault")
            log_lines.append("[SYS] gnb runtime log end")
            (test_dir / "gnb.log").write_text("\n".join(log_lines) + "\n", encoding="utf-8")

            truth_tests.append(
                {
                    "kind": "truth_test",
                    "day": stamp.date().isoformat(),
                    "time": stamp.time().isoformat(),
                    "commit_hash": commit_hash,
                    "commit_index": commit_index,
                    "test_index": test_index,
                    "target_rate": load,
                    "true_expected_efficiency": expected,
                    "injected_multiplier": multiplier,
                    "degraded": degraded,
                    "measured_efficiency": efficiency,
                    "measured_throughput": measured_throughput,
                    "packet_loss": packet_loss,
                    "jitter": jitter_mean,
                    "rsrp": sum(rsrp_reports) / len(rsrp_reports),
                    "sinr": sum(sinr_reports) / len(sinr_reports),
                    "dl_bler": sum(dl_reports) / len(dl_reports),
                    "ul_bler": sum(ul_reports) / len(ul_reports),
                    "cqi_mean": sum(cqi_reports) / len(cqi_reports),
                    "harq_retx_round1": harq1,
                    "harq_retx_total": harq1 + harq2,
                    "events": {
                        "pdu_sessions_active": pdu_established,
                        "msg2_failures": msg2_failures,
                        "rrc_setup": 1,
                        "rrc_release": rrc_release,
                        "scheduler_warnings": sched_warnings,
                        "error_lines": error_lines,
                    },
                }
            )

    commits_file = out_dir / "commits.jsonl"
    truth_tests_file = out_dir / "truth_tests.jsonl"
    truth_commits_file = out_dir / "truth_commits.jsonl"
    write_records(commits_file, commit_records)
    write_records(truth_tests_file, truth_tests)
    write_records(truth_commits_file, truth_commits)
    return GeneratedCorpus(
        dataset_dir=dataset_dir,
        commits_file=commits_file,
        truth_tests_file=truth_tests_file,
        truth_commits_file=truth_commits_file,
    )
