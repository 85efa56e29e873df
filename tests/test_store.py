"""Record persistence: canonical bytes, schema checks, typed decoding, commit loading."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import pytest

from ranwatch.errors import DataError
from ranwatch.store import (
    SCHEMA_VERSION,
    CommitMeta,
    decode,
    dumps_record,
    load_commits,
    naive_epoch,
    read_records,
    write_records,
)


def test_dumps_is_canonical_and_stamped():
    a = dumps_record({"b": 1, "a": 2, "kind": "x"})
    b = dumps_record({"a": 2, "kind": "x", "b": 1})
    assert a == b
    parsed = json.loads(a)
    assert parsed["schema_version"] == SCHEMA_VERSION
    assert ": " not in a and ", " not in a  # compact separators


def test_round_trip_and_kind_filter(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records(
        path,
        [{"kind": "alpha", "v": 1}, {"kind": "beta", "v": 2}, {"kind": "alpha", "v": 3}],
    )
    everything = read_records(path)
    assert [r["v"] for r in everything] == [1, 2, 3]
    alphas = read_records(path, kind="alpha")
    assert [r["v"] for r in alphas] == [1, 3]


def test_write_is_fresh_not_append(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records(path, [{"kind": "a", "v": 1}, {"kind": "a", "v": 2}])
    write_records(path, [{"kind": "a", "v": 9}])
    assert [r["v"] for r in read_records(path)] == [9]


def test_bad_schema_version_rejected(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"kind":"a","schema_version":999}\n', encoding="utf-8")
    with pytest.raises(DataError):
        read_records(path)


def test_bad_json_rejected(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text("{not json}\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_records(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(DataError):
        read_records(tmp_path / "nope.jsonl")


def test_naive_epoch_hand_values():
    assert naive_epoch("1970-01-01T00:00:00") == 0.0
    assert naive_epoch("1970-01-02T00:00:00") == 86400.0
    assert naive_epoch("2025-01-06T00:05:00") - naive_epoch("2025-01-06T00:00:00") == 300.0


def test_load_commits_sorted_by_deploy_time(tmp_path):
    path = tmp_path / "commits.jsonl"
    write_records(
        path,
        [
            {
                "kind": "commit",
                "hash": "b" * 40,
                "deploy_time": "2025-01-02T00:00:00",
                "message": "later",
                "files_changed": 1,
                "lines_added": 1,
                "lines_deleted": 0,
            },
            {
                "kind": "commit",
                "hash": "a" * 40,
                "deploy_time": "2025-01-01T00:00:00",
                "message": "earlier",
                "files_changed": 1,
                "lines_added": 1,
                "lines_deleted": 0,
            },
        ],
    )
    commits = load_commits(path)
    assert [c.message for c in commits] == ["earlier", "later"]
    assert isinstance(commits[0], CommitMeta)
    assert commits[0].deploy_epoch < commits[1].deploy_epoch


def test_load_commits_rejects_empty(tmp_path):
    path = tmp_path / "commits.jsonl"
    write_records(path, [{"kind": "other"}])
    with pytest.raises(DataError):
        load_commits(path)


@pytest.mark.parametrize("deploy_time", ["x", "2025-01-01T00:00:00+00:00"])
def test_load_commits_rejects_a_deploy_time_that_is_not_naive_iso(tmp_path, deploy_time):
    path = tmp_path / "commits.jsonl"
    write_records(path, [{"kind": "commit", "hash": "a" * 40, "deploy_time": deploy_time,
                          "message": "m", "files_changed": 1, "lines_added": 1,
                          "lines_deleted": 0}])
    with pytest.raises(DataError, match="deploy_time"):
        load_commits(path)


@dataclass(frozen=True)
class _Inner:
    x: float
    tags: tuple[str, ...] = ()


@dataclass(frozen=True)
class _Outer:
    inner: _Inner
    pair: tuple[int, int]
    table: dict[str, float | None]
    note: str | None


def test_decode_reads_declared_types_and_converts_ints_to_floats():
    value = decode(_Outer, {"inner": {"x": 1}, "pair": [1, 2], "table": {"a": 2, "b": None},
                            "unknown": "ignored"})
    assert value == _Outer(_Inner(1.0), (1, 2), {"a": 2.0, "b": None}, None)
    assert type(value.inner.x) is float and type(value.table["a"]) is float
    with pytest.raises(TypeError, match="^value must be an object"):
        decode(_Outer, [])


_GOOD = {"inner": {"x": 1.0}, "pair": [1, 2], "table": {}, "note": "n"}


@pytest.mark.parametrize(
    "replaced,message",
    [
        ({"inner": {"x": True}}, "inner.x must be a number, got True"),
        ({"inner": {"x": 1.0, "tags": ["a", 3]}}, "inner.tags.1 must be a string, got 3"),
        ({"inner": {}}, "inner.x must be present"),
        ({"pair": [1, 2, 3]}, "pair must be a list of 2"),
        ({"pair": [1, 2.0]}, "pair.1 must be an integer, got 2.0"),
        ({"table": {"a": "1"}}, "table.a must be a number, got '1'"),
        ({"note": 5}, "note must be a string, got 5"),
        ({"inner": [1.0]}, "inner must be an object"),
    ],
)
def test_decode_names_the_field_of_the_wrong_type(replaced, message):
    with pytest.raises(TypeError, match=re.escape(message)):
        decode(_Outer, {**_GOOD, **replaced})
