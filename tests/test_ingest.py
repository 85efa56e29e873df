"""Dataset scanning and artifact parsing on handcrafted fixtures."""

from __future__ import annotations

import datetime as dt
import random

import pytest

from ranwatch.errors import ConfigError, DataError
from ranwatch.ingest import (
    RADIO_FIELDS,
    TRAFFIC_FIELDS,
    TestId,
    TestRecord,
    assign_commit,
    build_test_record,
    default_log_rules,
    load_log_rules,
    parse_gnb_log,
    parse_iperf_csv,
    scan_dataset,
    target_rate_from_name,
)
from ranwatch import store
from ranwatch.store import CommitMeta

CSV_HEADER = "interval_start,interval_end,bytes,bits_per_second,jitter_ms,lost_packets,total_packets"


def write_csv(path, rows):
    lines = [CSV_HEADER] + rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# scanning


def test_scan_finds_tests_and_warns_on_junk(tmp_path):
    good = tmp_path / "20250106" / "120000"
    good.mkdir(parents=True)
    (good / "iperf_dl_20mbps.csv").write_text(CSV_HEADER + "\n")
    (tmp_path / "notaday").mkdir()
    (tmp_path / "20250106" / "25foo1").mkdir()
    (tmp_path / "20251399").mkdir()  # matches the pattern, not a real date
    empty = tmp_path / "20250107" / "130000"
    empty.mkdir(parents=True)

    entries, warnings = scan_dataset(tmp_path)
    assert len(entries) == 1
    assert entries[0].test_id == TestId(dt.date(2025, 1, 6), dt.time(12, 0, 0))
    reasons = sorted(w.reason for w in warnings)
    assert len(warnings) == 4
    assert any("yyyymmdd" in r for r in reasons)
    assert any("calendar" in r for r in reasons)
    assert any("artifacts" in r for r in reasons)


def test_scan_orders_chronologically(tmp_path):
    for day, time in (("20250107", "090000"), ("20250106", "220000"), ("20250106", "060000")):
        d = tmp_path / day / time
        d.mkdir(parents=True)
        (d / "gnb.log").write_text("x\n")
    entries, _ = scan_dataset(tmp_path)
    ids = [str(e.test_id) for e in entries]
    assert ids == ["20250106/060000", "20250106/220000", "20250107/090000"]


def test_scan_rejects_missing_root(tmp_path):
    with pytest.raises(DataError):
        scan_dataset(tmp_path / "absent")


# ---------------------------------------------------------------------------
# iperf


def test_target_rate_from_name():
    assert target_rate_from_name("iperf_dl_30mbps.csv") == 30.0
    assert target_rate_from_name("session_12.5Mbps.csv") == 12.5
    assert target_rate_from_name("iperf_dl_20 Mbps.csv") == 20.0
    assert target_rate_from_name("iperf.csv") is None


def test_parse_iperf_exact_values(tmp_path):
    path = tmp_path / "iperf_dl_10mbps.csv"
    write_csv(
        path,
        [
            "0.0,1.0,1250000,10000000,1.5,2,100",
            "1.0,2.0,1000000,8000000,2.5,3,100",
        ],
    )
    kpi, missing = parse_iperf_csv(path, target_rate=10.0)
    assert missing == set()
    assert kpi.measured_throughput == pytest.approx(9.0, abs=1e-12)
    assert kpi.throughput_efficiency == pytest.approx(0.9, abs=1e-12)
    assert kpi.packet_loss == pytest.approx(5 / 200, abs=1e-12)
    assert kpi.jitter == pytest.approx(2.0, abs=1e-12)
    assert kpi.total_bytes == 2250000
    assert kpi.total_packets == 200
    assert kpi.target_rate == 10.0


def test_parse_iperf_zero_packets_means_zero_loss(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ["0,1,100,800,0.1,0,0"])
    kpi, _ = parse_iperf_csv(path, target_rate=1.0)
    assert kpi.packet_loss == 0.0


def test_parse_iperf_missing_column_cascades(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text(
        "interval_start,interval_end,bytes,jitter_ms,lost_packets,total_packets\n"
        "0,1,100,0.1,1,10\n",
        encoding="utf-8",
    )
    kpi, missing = parse_iperf_csv(path, target_rate=5.0)
    assert "measured_throughput" in missing
    assert "throughput_efficiency" in missing
    assert kpi.measured_throughput is None
    assert kpi.packet_loss == pytest.approx(0.1)


def test_parse_iperf_rejects_garbage(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text(CSV_HEADER + "\n", encoding="utf-8")
    with pytest.raises(DataError):
        parse_iperf_csv(empty, target_rate=10.0)

    bad = tmp_path / "bad.csv"
    write_csv(bad, ["0,1,abc,xyz,0.1,0,1"])
    with pytest.raises(DataError):
        parse_iperf_csv(bad, target_rate=10.0)

    ok = tmp_path / "ok.csv"
    write_csv(ok, ["0,1,100,800,0.1,0,1"])
    with pytest.raises(DataError):
        parse_iperf_csv(ok, target_rate=0.0)


# ---------------------------------------------------------------------------
# gnb log


GNB_LOG = """\
[SYS] boot
[PHY] RSRP -80.50 dBm
[PHY] RSRP -81.50 dBm
[PHY] SINR 20.0 dB
[MAC] DL_BLER 0.1000
[MAC] DL_BLER 0.3000
[MAC] UL_BLER 0.0500
[MAC] CQI 12.0
[MAC] HARQ retx round=1 pid=1
[MAC] HARQ retx round=1 pid=2
[MAC] HARQ retx round=2 pid=1
[NGAP] PDU session established id=0
[MAC] RA msg2 failure detected
[RRC] RRC setup complete ue=0
[RRC] RRC release ue=0
[MAC] scheduler warning: backlog above watermark
[SYS] ERROR transient
"""


def test_parse_gnb_log_exact(tmp_path):
    path = tmp_path / "gnb.log"
    path.write_text(GNB_LOG, encoding="utf-8")
    radio, events, missing = parse_gnb_log([path], default_log_rules())
    assert radio.rsrp == pytest.approx(-81.0)
    assert radio.sinr == pytest.approx(20.0)
    assert radio.dl_bler == pytest.approx(0.2)
    assert radio.ul_bler == pytest.approx(0.05)
    assert radio.cqi_mean == pytest.approx(12.0)
    assert radio.harq_retx_round1 == 2
    assert radio.harq_retx_total == 3
    assert events == {
        "pdu_sessions_active": 1,
        "msg2_failures": 1,
        "rrc_setup": 1,
        "rrc_release": 1,
        "scheduler_warnings": 1,
        "error_lines": 1,
    }
    assert missing == set()


def test_parse_gnb_log_no_matches_marks_means_missing(tmp_path):
    path = tmp_path / "gnb.log"
    path.write_text("[SYS] nothing interesting\n", encoding="utf-8")
    radio, events, missing = parse_gnb_log([path], default_log_rules())
    assert radio.rsrp is None
    assert "rsrp" in missing and "sinr" in missing
    # count fields report explicit zeros, never missing
    assert events["error_lines"] == 0
    assert radio.harq_retx_total == 0


def test_parse_gnb_log_range_check(tmp_path):
    path = tmp_path / "gnb.log"
    path.write_text("[MAC] DL_BLER 7.5\n", encoding="utf-8")
    with pytest.raises(DataError):
        parse_gnb_log([path], default_log_rules())


def test_parse_gnb_log_needs_rules(tmp_path):
    path = tmp_path / "gnb.log"
    path.write_text("x\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_gnb_log([path], [])


def test_load_log_rules_rejects_junk(tmp_path):
    bad = tmp_path / "rules.txt"
    bad.write_text("only_two_fields, pattern\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_log_rules(bad)

    badkind = tmp_path / "rules2.txt"
    badkind.write_text("f, pat, raw, slidingmax\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_log_rules(badkind)

    badmean = tmp_path / "rules3.txt"
    badmean.write_text("f, nogroup, raw, mean\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_log_rules(badmean)


# ---------------------------------------------------------------------------
# record assembly


def make_entry(tmp_path, with_csv=True, with_log=True, csv_body=None):
    d = tmp_path / "20250106" / "060000"
    d.mkdir(parents=True, exist_ok=True)
    if with_csv:
        csv = d / "iperf_dl_10mbps.csv"
        write_csv(csv, csv_body or ["0,1,1250000,10000000,1.0,0,100"])
    if with_log:
        (d / "gnb.log").write_text(GNB_LOG, encoding="utf-8")
    entries, _ = scan_dataset(tmp_path)
    return entries[0]


def test_build_record_full(tmp_path):
    entry = make_entry(tmp_path)
    record = build_test_record(entry.test_id, entry, default_log_rules(), "ab12")
    assert record.traffic.throughput_efficiency == pytest.approx(1.0)
    assert record.radio.sinr == pytest.approx(20.0)
    assert record.commit_hash == "ab12"
    assert record.missing_fields == frozenset()


def test_build_record_log_only(tmp_path):
    entry = make_entry(tmp_path, with_csv=False)
    record = build_test_record(entry.test_id, entry, default_log_rules(), None)
    assert set(TRAFFIC_FIELDS) <= record.missing_fields
    assert record.traffic.throughput_efficiency is None
    assert record.radio.rsrp is not None


def test_build_record_csv_only(tmp_path):
    entry = make_entry(tmp_path, with_log=False)
    record = build_test_record(entry.test_id, entry, default_log_rules(), "ab12")
    assert set(RADIO_FIELDS) <= record.missing_fields
    assert record.traffic.throughput_efficiency == pytest.approx(1.0)


def test_build_record_rejects_when_nothing_parses(tmp_path):
    entry = make_entry(tmp_path, with_log=False, csv_body=["0,1,a,b,c,d,e"])
    with pytest.raises(DataError):
        build_test_record(entry.test_id, entry, default_log_rules(), "ab12")


def test_build_record_rejects_bad_hash(tmp_path):
    entry = make_entry(tmp_path)
    with pytest.raises(DataError):
        build_test_record(entry.test_id, entry, default_log_rules(), "not-hex!")


def test_record_encode_decode_round_trip(tmp_path):
    entry = make_entry(tmp_path)
    record = build_test_record(entry.test_id, entry, default_log_rules(), "ab12")
    clone = TestRecord.decode(record.encode())
    assert clone == record


def test_value_xor_missing_invariant(tmp_path):
    entry = make_entry(tmp_path, with_csv=False)
    record = build_test_record(entry.test_id, entry, default_log_rules(), None)
    encoded = record.encode()
    for name in TRAFFIC_FIELDS:
        present = name in encoded["traffic"]
        assert present != (name in encoded["missing_fields"])
    for name in RADIO_FIELDS:
        present = name in encoded["radio"]
        assert present != (name in encoded["missing_fields"])


# ---------------------------------------------------------------------------
# commit assignment


def _meta(hash_, iso):
    return CommitMeta(
        hash=hash_,
        deploy_time=iso,
        message="m",
        files_changed=1,
        lines_added=1,
        lines_deleted=0,
    )


def test_assign_commit_latest_at_or_before():
    commits = [
        _meta("aa", "2025-01-01T00:00:00"),
        _meta("bb", "2025-01-05T00:00:00"),
        _meta("cc", "2025-01-09T00:00:00"),
    ]
    tid = TestId(dt.date(2025, 1, 6), dt.time(12, 0, 0))
    assert assign_commit(tid, commits).hash == "bb"
    early = TestId(dt.date(2024, 12, 31), dt.time(0, 0, 0))
    assert assign_commit(early, commits) is None
    boundary = TestId(dt.date(2025, 1, 5), dt.time(0, 0, 0))
    assert assign_commit(boundary, commits).hash == "bb"


def _assign_linear(test_id, commits):
    """The rule assign_commit implements, as a scan from the first commit."""
    best = None
    for meta in commits:
        if meta.deploy_epoch > test_id.epoch:
            break
        best = meta
    return best


@pytest.mark.parametrize("seed", range(20))
def test_assign_commit_matches_a_linear_scan(seed):
    rng = random.Random(seed)
    start = dt.datetime(2025, 1, 1)
    # few distinct hours, so several commits often share a deploy time
    stamps = [start + dt.timedelta(hours=rng.randrange(12)) for _ in range(rng.randrange(1, 9))]
    stamps.append(stamps[0])
    commits = sorted(
        (_meta(f"{i:02x}", stamp.isoformat()) for i, stamp in enumerate(stamps)),
        key=lambda m: (m.deploy_epoch, m.hash),
    )
    for hours in [-1, *range(13)]:  # one test before the first commit
        stamp = start + dt.timedelta(hours=hours, minutes=rng.choice([0, 0, 30]))
        test_id = TestId(stamp.date(), stamp.time())
        assert assign_commit(test_id, commits) is _assign_linear(test_id, commits)


def test_assign_commit_reads_few_deploy_times(monkeypatch):
    start = dt.datetime(2025, 1, 1)
    commits = [_meta(f"{i:04x}", (start + dt.timedelta(hours=i)).isoformat()) for i in range(1024)]
    calls = []
    parse = store.naive_epoch
    monkeypatch.setattr(store, "naive_epoch", lambda value: calls.append(value) or parse(value))
    late = start + dt.timedelta(days=365)
    assert assign_commit(TestId(late.date(), late.time()), commits) is commits[-1]
    assert len(calls) <= 11  # a bisection's comparisons, not one per commit
