"""Line-delimited record store used between pipeline stages.

Records are self-describing JSON objects, one per line, each carrying a
``schema_version`` and a ``kind`` tag. Writers emit canonical JSON (sorted
keys, compact separators) so reruns with the same inputs produce identical
bytes. Readers filter by kind, which lets a single file carry both payload
records and status records.

``decode`` is the one way a JSON value read from a record, model or
scenario file becomes a typed value: it checks the value against the type
a dataclass field declares and refuses, naming the field, anything else.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import functools
import json
import types
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, ClassVar, Iterable

from .errors import DataError

SCHEMA_VERSION = 1

_EPOCH = dt.datetime(1970, 1, 1)


def naive_epoch(stamp: dt.datetime | str) -> float:
    """Seconds since 1970-01-01 for a timezone-naive datetime.

    Accepts an ISO string for convenience. Avoids ``datetime.timestamp()``
    which applies the host timezone.
    """
    if isinstance(stamp, str):
        stamp = dt.datetime.fromisoformat(stamp)
    return (stamp - _EPOCH).total_seconds()


def dumps_record(record: dict) -> str:
    payload = dict(record)
    payload.setdefault("schema_version", SCHEMA_VERSION)
    try:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:  # NaN or infinity, which JSON cannot hold
        raise DataError(f"cannot write a {payload.get('kind')} record: {exc}") from exc


def write_records(path: str | Path, records: Iterable[dict]) -> int:
    """Write records to a fresh file, one canonical JSON object per line.

    Every record is encoded before the file is opened, so a record that
    cannot be written leaves the previous file as it was. The file keeps
    its inode: renaming a temporary file over it instead cost a new inode
    per call, about 0.3 ms a write on ext4, swinging with the disk's load.
    """
    lines = [dumps_record(record) + "\n" for record in records]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return len(lines)


def read_records(path: str | Path, kind: str | None = None) -> list[dict]:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"record file not found: {path}")
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid record: {exc}") from exc
            if not isinstance(record, dict):
                raise DataError(f"{path}:{lineno}: record is not a JSON object")
            version = record.get("schema_version")
            if version != SCHEMA_VERSION:
                raise DataError(
                    f"{path}:{lineno}: unsupported schema_version {version!r}"
                )
            if kind is not None and record.get("kind") != kind:
                continue
            out.append(record)
    return out


# ---------------------------------------------------------------------------
# typed decoding

_TYPE_NAMES = {str: "a string", int: "an integer", bool: "true or false", dict: "an object"}
_ABSENT = object()  # no value given
_REQUIRED, _DEFAULT = object(), object()  # how an absent field reads, unless as None


def _refuse(where: tuple, expected: str, value=_ABSENT):
    """Raise the TypeError of a value that is not ``expected``, or is absent.

    ``where`` is the path to the value as nested (parent path, key) pairs,
    () at the top, so that building it costs no string until it is shown.
    """
    keys = []
    while where:
        where, key = where
        keys.append(str(key))
    got = "" if value is _ABSENT else f", got {value!r:.40}"
    raise TypeError(f"{'.'.join(reversed(keys)) or 'value'} must be {expected}{got}")


def _number(value, where: tuple) -> float:
    if type(value) is not int:  # never a bool, whose type is bool
        _refuse(where, "a number", value)
    try:
        return float(value)
    except OverflowError:
        _refuse(where, "a number a float can hold", value)


@functools.cache
def _checker(tp) -> tuple[frozenset, Callable]:
    """How a JSON value reads as a ``tp``, worked out once per type: the
    types that are a ``tp`` as they are, and ``check(value, where)``, which
    converts or refuses a value of any other type. Testing the type first
    keeps most values to one set lookup and no call."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (types.UnionType, typing.Union):
        (inner,) = set(args) - {type(None)}  # X | None only
        exact, check = _checker(inner)
        return exact | {type(None)}, check
    if tp is float:
        return frozenset({float}), _number
    if origin is dict:  # the keys of a JSON object are strings
        exact, check_item = _checker(args[1])

        def check(value, where):
            if type(value) is not dict:
                _refuse(where, "an object", value)
            if exact.issuperset(map(type, value.values())):
                return dict(value)
            return {key: item if type(item) in exact else check_item(item, (where, key))
                    for key, item in value.items()}

        return frozenset(), check
    if origin in (tuple, frozenset):
        items = [_checker(arg) for arg in args if arg is not Ellipsis]
        fixed = origin is tuple and Ellipsis not in args  # tuple[X, Y], not tuple[X, ...]

        def check(value, where):  # a tuple passes too, as ``encode`` leaves one
            if type(value) not in (list, tuple) or fixed and len(value) != len(items):
                _refuse(where, f"a list of {len(items)}" if fixed else "a list", value)
            if not fixed and items[0][0].issuperset(map(type, value)):
                return origin(value)
            return origin(item if type(item) in exact else check_item(item, (where, index))
                          for index, ((exact, check_item), item)
                          in enumerate(zip(items if fixed else items * len(value), value)))

        return frozenset(), check
    if dataclasses.is_dataclass(tp):
        hints, fields = typing.get_type_hints(tp), []
        for f in dataclasses.fields(tp):
            if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING:
                absent = _DEFAULT
            else:
                absent = None if type(None) in typing.get_args(hints[f.name]) else _REQUIRED
            fields.append((f.name, *_checker(hints[f.name]), absent))

        def check(value, where):
            if type(value) is not dict:
                if isinstance(value, tp):  # built already, as a model file's forest is
                    return value
                _refuse(where, "an object", value)
            kwargs = {}
            for name, exact, check_field, absent in fields:
                if name in value:
                    item = value[name]
                    kwargs[name] = item if type(item) in exact else check_field(item, (where, name))
                elif absent is _REQUIRED:
                    _refuse((where, name), "present")
                elif absent is not _DEFAULT:
                    kwargs[name] = absent
            return tp(**kwargs)

        return frozenset(), check
    expected = _TYPE_NAMES.get(tp, tp.__name__)
    return frozenset({tp}), lambda value, where: _refuse(where, expected, value)


def decode(tp, value, name: str | None = None):
    """``value``, as parsed from JSON, read as the type ``tp``.

    A field takes only its declared type: a float field also takes an int
    (as a float), a bool is never a number, a tuple comes from a list, and
    ``X | None`` takes null; dataclasses, ``dict[str, T]`` and ``tuple[T,
    ...]`` are checked all the way down. A dataclass ignores keys it does
    not declare; an absent field takes its default, or None if optional.
    A value of the wrong type is a TypeError naming the field, under
    ``name`` if given; the checks of a dataclass itself may raise anything.
    """
    exact, check = _checker(tp)
    return value if type(value) in exact else check(value, ((), name) if name else ())


class Record:
    """Base of a dataclass stored as records of kind ``KIND``, one key per
    field; a class with another layout overrides ``encode`` and ``decode``."""

    KIND: ClassVar[str]

    def encode(self) -> dict:
        return {"kind": self.KIND, **vars(self)}

    @classmethod
    def decode(cls, record: dict):
        """``record`` read by ``decode``; DataError if it is of another kind."""
        if record.get("kind") != cls.KIND:
            raise DataError(f"expected {cls.KIND} record, got {record.get('kind')!r}")
        return decode(cls, record)


def load_records(path: str | Path, cls: type) -> list:
    """The records of kind ``cls.KIND`` in a file, each read by ``cls.decode``;
    one that does not fit ``cls`` is a DataError naming the file."""
    records = read_records(path, kind=cls.KIND)
    try:
        return [cls.decode(record) for record in records]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed {cls.KIND} record: {exc!r}") from exc


@dataclass(frozen=True)
class CommitMeta(Record):
    """One deployed software revision as recorded by the CI system."""

    KIND: ClassVar[str] = "commit"

    hash: str
    deploy_time: str  # naive ISO timestamp
    message: str
    files_changed: int
    lines_added: int
    lines_deleted: int

    @property
    def deploy_epoch(self) -> float:
        return naive_epoch(self.deploy_time)


def load_commits(path: str | Path) -> list[CommitMeta]:
    """Read commit metadata records sorted by deploy time."""
    metas = load_records(path, CommitMeta)
    if not metas:
        raise DataError(f"{path}: no commit records")
    try:
        metas.sort(key=lambda m: (m.deploy_epoch, m.hash))
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: deploy_time is not a naive ISO timestamp: {exc}") from exc
    return metas
