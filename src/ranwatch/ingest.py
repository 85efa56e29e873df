"""Ingestion of end-to-end test artifacts into per-test records.

A dataset root contains one directory per day (yyyymmdd) with one
directory per test run (hhmmss), each holding iPerf CSV results and gNB
runtime logs. Traffic KPIs come from the CSV; radio KPMs and event counts
come from the logs via a configurable rule table, so new log formats only
need new rules, not code. The built-in table is defined in one place, the
rule file ``defaults/log_rules.txt`` shipped inside the package;
``default_log_rules`` reads it with the same parser as ``--log-rules``.

A record field either carries a value or appears in ``missing_fields``,
never both. Records survive partial artifact loss (CSV without logs and
vice versa); only a test where nothing parses is rejected.
"""

from __future__ import annotations

import bisect
import csv
import datetime as dt
import logging
import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import ClassVar, Sequence

from .errors import ConfigError, DataError
from .store import CommitMeta, Record, decode, naive_epoch

logger = logging.getLogger(__name__)

_DAY_RE = re.compile(r"^\d{8}$")
_TIME_RE = re.compile(r"^\d{6}$")
_RATE_RE = re.compile(r"(\d+(?:\.\d+)?)\s*mbps", re.IGNORECASE)

_HEX_RE = re.compile(r"^[0-9a-fA-F]+$")


@dataclass(frozen=True, order=True)
class TestId:
    day: dt.date
    time_of_day: dt.time

    @property
    def day_name(self) -> str:
        return self.day.strftime("%Y%m%d")

    @property
    def time_name(self) -> str:
        return self.time_of_day.strftime("%H%M%S")

    @property
    def epoch(self) -> float:
        return naive_epoch(dt.datetime.combine(self.day, self.time_of_day))

    def __str__(self) -> str:
        return f"{self.day_name}/{self.time_name}"


@dataclass(frozen=True)
class ScanEntry:
    test_id: TestId
    csv_paths: tuple[Path, ...]
    log_paths: tuple[Path, ...]


@dataclass(frozen=True)
class ScanWarning:
    path: str
    reason: str


@dataclass(frozen=True)
class TrafficKpi:
    target_rate: float | None = None
    measured_throughput: float | None = None  # Mbps
    packet_loss: float | None = None  # fraction of total packets
    jitter: float | None = None  # ms
    total_bytes: int | None = None
    total_packets: int | None = None
    throughput_efficiency: float | None = None  # measured / target


@dataclass(frozen=True)
class RadioKpm:
    rsrp: float | None = None  # dBm
    sinr: float | None = None  # dB
    dl_bler: float | None = None  # [0, 1]
    ul_bler: float | None = None  # [0, 1]
    harq_retx_round1: float | None = None
    harq_retx_total: float | None = None
    cqi_mean: float | None = None  # [0, 15]


# record keys of each measurement group, one per field of its dataclass
TRAFFIC_FIELDS = tuple(f.name for f in fields(TrafficKpi))
RADIO_FIELDS = tuple(f.name for f in fields(RadioKpm))


@dataclass(frozen=True)
class ParseRule:
    field_name: str
    pattern: str
    unit: str
    kind: str  # mean | count

    def compiled(self) -> re.Pattern:
        try:
            rx = re.compile(self.pattern)
        except re.error as exc:
            raise ConfigError(f"rule {self.field_name}: bad regex: {exc}") from exc
        if self.kind == "mean" and rx.groups != 1:
            raise ConfigError(
                f"rule {self.field_name}: mean rules need exactly one capture group"
            )
        return rx


@dataclass(frozen=True)
class TestRecord(Record):
    KIND: ClassVar[str] = "test_record"

    test_id: TestId
    commit_hash: str | None
    traffic: TrafficKpi
    radio: RadioKpm
    events: dict[str, int]
    missing_fields: frozenset[str] = field(default_factory=frozenset)

    def encode(self) -> dict:
        return {
            "kind": self.KIND,
            "day": self.test_id.day.isoformat(),
            "time": self.test_id.time_of_day.isoformat(),
            "commit_hash": self.commit_hash,
            "traffic": {k: v for k, v in vars(self.traffic).items() if v is not None},
            "radio": {k: v for k, v in vars(self.radio).items() if v is not None},
            "events": self.events,
            "missing_fields": sorted(self.missing_fields),
        }

    @classmethod
    def decode(cls, record: dict) -> "TestRecord":
        test_id = TestId(dt.date.fromisoformat(decode(str, record.get("day"), "day")),
                         dt.time.fromisoformat(decode(str, record.get("time"), "time")))
        return super().decode({**record, "test_id": test_id})


# ---------------------------------------------------------------------------
# scanning


def scan_dataset(root: str | Path) -> tuple[list[ScanEntry], list[ScanWarning]]:
    """Enumerate test directories chronologically.

    Directories whose names do not parse as dates or times are skipped
    with a structured warning instead of failing the whole scan.
    """
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"dataset root is not a readable directory: {root}")
    entries: list[ScanEntry] = []
    warnings: list[ScanWarning] = []
    for day_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        if not _DAY_RE.match(day_dir.name):
            warnings.append(ScanWarning(str(day_dir), "directory name is not yyyymmdd"))
            continue
        try:
            day = dt.datetime.strptime(day_dir.name, "%Y%m%d").date()
        except ValueError:
            warnings.append(ScanWarning(str(day_dir), "invalid calendar date"))
            continue
        for test_dir in sorted(p for p in day_dir.iterdir() if p.is_dir()):
            if not _TIME_RE.match(test_dir.name):
                warnings.append(ScanWarning(str(test_dir), "directory name is not hhmmss"))
                continue
            try:
                time_of_day = dt.datetime.strptime(test_dir.name, "%H%M%S").time()
            except ValueError:
                warnings.append(ScanWarning(str(test_dir), "invalid time of day"))
                continue
            csv_paths = tuple(sorted(test_dir.glob("*.csv")))
            log_paths = tuple(sorted(test_dir.glob("*.log")))
            if not csv_paths and not log_paths:
                warnings.append(ScanWarning(str(test_dir), "no recognized artifacts"))
                continue
            entries.append(ScanEntry(TestId(day, time_of_day), csv_paths, log_paths))
    entries.sort(key=lambda e: e.test_id)
    return entries, warnings


# ---------------------------------------------------------------------------
# iPerf CSV


def target_rate_from_name(path: str | Path) -> float | None:
    match = _RATE_RE.search(Path(path).name)
    return float(match.group(1)) if match else None


def parse_iperf_csv(path: str | Path, target_rate: float) -> tuple[TrafficKpi, set[str]]:
    """Aggregate per-interval iPerf rows into one traffic KPI set.

    Throughput is the mean of per-interval rates; loss is computed from
    packet totals. A missing column marks the dependent fields missing
    rather than failing the parse.
    """
    if target_rate is None or target_rate <= 0:
        raise DataError(f"{path}: target rate must be positive")
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8", errors="strict", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise DataError(f"{path}: empty measurement")
            headers = [h.strip() for h in reader.fieldnames]
            rows = list(reader)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: unreadable csv: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty measurement")

    present = set(headers)
    missing: set[str] = set()

    def column(name: str) -> list[float] | None:
        if name not in present:
            return None
        try:
            return [float(row[name]) for row in rows]
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: non-numeric value in column {name!r}") from exc

    bps = column("bits_per_second")
    jitter_ms = column("jitter_ms")
    bytes_col = column("bytes")
    lost_col = column("lost_packets")
    total_col = column("total_packets")

    measured = sum(bps) / len(bps) / 1e6 if bps else None
    if measured is None:
        missing.update({"measured_throughput", "throughput_efficiency"})
    jitter = sum(jitter_ms) / len(jitter_ms) if jitter_ms else None
    if jitter is None:
        missing.add("jitter")
    total_bytes = int(sum(bytes_col)) if bytes_col else None
    if total_bytes is None:
        missing.add("total_bytes")
    total_packets = int(sum(total_col)) if total_col else None
    if total_packets is None:
        missing.update({"total_packets", "packet_loss"})
    packet_loss = None
    if total_packets is not None:
        if lost_col is None:
            missing.add("packet_loss")
        else:
            lost = sum(lost_col)
            packet_loss = lost / total_packets if total_packets > 0 else 0.0

    kpi = TrafficKpi(
        target_rate=float(target_rate),
        measured_throughput=measured,
        packet_loss=packet_loss,
        jitter=jitter,
        total_bytes=total_bytes,
        total_packets=total_packets,
        throughput_efficiency=(measured / target_rate) if measured is not None else None,
    )
    return kpi, missing


# ---------------------------------------------------------------------------
# gNB logs


_DEFAULT_LOG_RULES = Path(__file__).parent / "defaults" / "log_rules.txt"


def default_log_rules() -> tuple[ParseRule, ...]:
    """The built-in rule table, read from the rule file shipped in the package."""
    return load_log_rules(_DEFAULT_LOG_RULES)


def load_log_rules(path: str | Path) -> tuple[ParseRule, ...]:
    """Parse a log rule file: ``field_name, regex, unit, kind`` per line.

    The regex is everything between the first comma and the last two, so
    patterns may contain commas. Malformed rules are configuration errors.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"log rule file not found: {path}")
    rules: list[ParseRule] = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) < 4:
            raise ConfigError(
                f"{path}:{lineno}: expected 'field_name, regex, unit, kind'"
            )
        field_name = parts[0].strip()
        kind = parts[-1].strip()
        unit = parts[-2].strip()
        pattern = ",".join(parts[1:-2]).strip()
        if kind not in ("mean", "count"):
            raise ConfigError(f"{path}:{lineno}: kind must be mean or count, got {kind!r}")
        if not field_name or not pattern:
            raise ConfigError(f"{path}:{lineno}: empty field name or pattern")
        rule = ParseRule(field_name, pattern, unit, kind)
        rule.compiled()  # malformed regexes fail at load time
        rules.append(rule)
    if not rules:
        raise ConfigError(f"{path}: no parse rules defined")
    return tuple(rules)


def _convert_unit(value: float, unit: str) -> float:
    if unit == "percent":
        return value / 100.0
    return value


_RADIO_RANGE_CHECKS = {
    "dl_bler": (0.0, 1.0),
    "ul_bler": (0.0, 1.0),
    "cqi_mean": (0.0, 15.0),
}


def parse_gnb_log(
    paths: Sequence[str | Path], rules: Sequence[ParseRule]
) -> tuple[RadioKpm, dict[str, int], set[str]]:
    """Extract radio KPMs and event counts from the log files of one test.

    Mean-kind fields average all matched captures over every file;
    count-kind fields count matches and report an explicit zero when
    nothing matched.
    """
    if not rules:
        raise ConfigError("parse rule set is empty")
    compiled = [(rule, rule.compiled()) for rule in rules]
    collected: dict[str, list[float] | int] = {
        rule.field_name: ([] if rule.kind == "mean" else 0) for rule in rules
    }
    for path in paths:
        try:
            text = Path(path).read_text(encoding="utf-8", errors="strict")
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"{path}: unreadable log: {exc}") from exc
        for rule, rx in compiled:
            if rule.kind == "mean":
                values: list[float] = collected[rule.field_name]  # type: ignore[assignment]
                for match in rx.finditer(text):
                    values.append(_convert_unit(float(match.group(1)), rule.unit))
            else:
                collected[rule.field_name] += sum(1 for _ in rx.finditer(text))  # type: ignore[operator]

    radio_values: dict[str, float] = {}
    events: dict[str, int] = {}
    missing: set[str] = set()
    for rule in rules:
        raw = collected[rule.field_name]
        if rule.kind == "mean":
            values = raw  # type: ignore[assignment]
            if not values:
                missing.add(rule.field_name)
                continue
            value = sum(values) / len(values)
        else:
            value = float(raw)  # type: ignore[arg-type]
        bounds = _RADIO_RANGE_CHECKS.get(rule.field_name)
        if bounds and not (bounds[0] <= value <= bounds[1]):
            raise DataError(
                f"{rule.field_name}={value} outside [{bounds[0]}, {bounds[1]}]"
            )
        if rule.field_name in RADIO_FIELDS:
            radio_values[rule.field_name] = value
        else:
            events[rule.field_name] = int(value)
    radio = RadioKpm(**{name: radio_values.get(name) for name in RADIO_FIELDS})
    return radio, events, missing


# ---------------------------------------------------------------------------
# record assembly


def build_test_record(
    test_id: TestId,
    entry: ScanEntry,
    rules: Sequence[ParseRule],
    commit_hash: str | None,
    target_rate: float | None = None,
) -> TestRecord:
    """Build the per-test record from whatever artifacts parsed.

    The target rate is taken from the CSV filename (``..._30mbps.csv``)
    unless given explicitly. A test where neither the CSV nor any log
    parses is rejected. ``commit_hash`` may be None for tests that ran
    before any known deployment; those records join to nothing later.
    """
    if commit_hash is not None and not _HEX_RE.match(commit_hash):
        raise DataError(f"{test_id}: commit hash {commit_hash!r} is not hex-like")
    missing: set[str] = set()
    traffic = TrafficKpi()
    traffic_ok = False
    if entry.csv_paths:
        if len(entry.csv_paths) > 1:
            logger.warning(
                "%s: %d csv artifacts, using %s",
                test_id,
                len(entry.csv_paths),
                entry.csv_paths[0].name,
            )
        csv_path = entry.csv_paths[0]
        rate = target_rate if target_rate is not None else target_rate_from_name(csv_path)
        if rate is None:
            logger.warning("%s: no target rate in %s", test_id, csv_path.name)
            missing.update(TRAFFIC_FIELDS)
        else:
            try:
                traffic, traffic_missing = parse_iperf_csv(csv_path, rate)
                missing.update(traffic_missing)
                traffic_ok = True
            except DataError as exc:
                logger.warning("%s: traffic parse failed: %s", test_id, exc)
                missing.update(TRAFFIC_FIELDS)
    else:
        missing.update(TRAFFIC_FIELDS)

    radio = RadioKpm()
    events: dict[str, int] = {}
    radio_ok = False
    if entry.log_paths:
        try:
            radio, events, log_missing = parse_gnb_log(entry.log_paths, rules)
            missing.update(log_missing)
            radio_ok = True
        except DataError as exc:
            logger.warning("%s: log parse failed: %s", test_id, exc)
            missing.update(RADIO_FIELDS)
            missing.update(r.field_name for r in rules if r.field_name not in RADIO_FIELDS)
    else:
        missing.update(RADIO_FIELDS)
        missing.update(r.field_name for r in rules if r.field_name not in RADIO_FIELDS)

    if not traffic_ok and not radio_ok:
        raise DataError(f"{test_id}: record rejected, no artifact parsed")
    return TestRecord(
        test_id=test_id,
        commit_hash=commit_hash,
        traffic=traffic,
        radio=radio,
        events=events,
        missing_fields=frozenset(missing),
    )


def assign_commit(test_id: TestId, commits: Sequence[CommitMeta]) -> CommitMeta | None:
    """Latest commit deployed at or before the test start, if any; of
    commits deployed at the same time, the last. ``commits`` are sorted by
    deploy time, as ``load_commits`` returns them."""
    i = bisect.bisect_right(commits, test_id.epoch, key=lambda meta: meta.deploy_epoch)
    return commits[i - 1] if i else None
