"""Stream persistence: CSV and JSONL trace files, and replay.

Traces are sequences of ``(time, value)`` (optionally with a stream key for
keyed traces). CSV uses a header ``time,value[,key]``; JSONL uses one
object per line with the same fields. Readers validate types, ordering is
*not* required on disk (replay unordered files under a buffered
:class:`~repro.core.timeorder.OutOfOrderPolicy`, or pass ``sort=True`` to
sort on load).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, TypeVar

from repro.core.batching import BatchEngine, ingest_trace
from repro.core.errors import InvalidParameterError
from repro.core.timeorder import OutOfOrderPolicy
from repro.streams.generators import StreamItem

E = TypeVar("E", bound=BatchEngine)

__all__ = [
    "write_csv",
    "read_csv",
    "write_jsonl",
    "read_jsonl",
    "replay",
    "KeyedItem",
]


class KeyedItem:
    """A stream item tagged with the stream it belongs to (keyed traces).

    Every outside input (HTTP, WS, the NDJSON feed, the readers here)
    passes through this type, so it is where a weight that is negative,
    NaN or infinite is rejected, before it can reach any engine.
    """

    __slots__ = ("key", "time", "value")

    def __init__(self, key: str, time: int, value: float) -> None:
        if time < 0:
            raise InvalidParameterError("time must be >= 0")
        if not 0 <= value < math.inf:
            raise InvalidParameterError(
                f"value must be finite and >= 0, got {value}"
            )
        self.key = str(key)
        self.time = int(time)
        self.value = float(value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, KeyedItem)
            and (self.key, self.time, self.value)
            == (other.key, other.time, other.value)
        )

    def __repr__(self) -> str:
        return f"KeyedItem({self.key!r}, {self.time}, {self.value})"


def write_csv(items: Iterable[StreamItem | KeyedItem], path: str | Path) -> int:
    """Write items to CSV; returns the number of rows written."""
    import csv  # only the CSV paths load it; a server never does

    items = list(items)
    keyed = any(isinstance(i, KeyedItem) for i in items)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        if keyed:
            writer.writerow(["time", "value", "key"])
            for item in items:
                key = item.key if isinstance(item, KeyedItem) else ""
                writer.writerow([item.time, item.value, key])
        else:
            writer.writerow(["time", "value"])
            for item in items:
                writer.writerow([item.time, item.value])
    return len(items)


def read_csv(
    path: str | Path, *, sort: bool = False
) -> list[StreamItem] | list[KeyedItem]:
    """Read a trace CSV written by :func:`write_csv` (or compatible)."""
    import csv

    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            return []
        header = [h.strip().lower() for h in header]
        if header[:2] != ["time", "value"]:
            raise InvalidParameterError(
                f"expected header time,value[,key]; got {header}"
            )
        keyed = len(header) >= 3 and header[2] == "key"
        out: list = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                t = int(row[0])
                v = float(row[1])
                # A bad weight raises InvalidParameterError, a ValueError.
                if keyed and len(row) >= 3 and row[2]:
                    out.append(KeyedItem(row[2], t, v))
                else:
                    out.append(StreamItem(t, v))
            except (ValueError, IndexError) as exc:
                raise InvalidParameterError(
                    f"{path}:{lineno}: bad row {row!r}"
                ) from exc
    if sort:
        out.sort(key=lambda i: i.time)
    return out


def write_jsonl(items: Iterable[StreamItem | KeyedItem], path: str | Path) -> int:
    """Write items as JSON Lines; returns the number of lines written."""
    n = 0
    with open(path, "w") as f:
        for item in items:
            record = {"time": item.time, "value": item.value}
            if isinstance(item, KeyedItem):
                record["key"] = item.key
            f.write(json.dumps(record) + "\n")
            n += 1
    return n


def read_jsonl(
    path: str | Path, *, sort: bool = False
) -> list[StreamItem] | list[KeyedItem]:
    """Read a JSONL trace written by :func:`write_jsonl` (or compatible)."""
    out: list = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                t = int(record["time"])
                v = float(record["value"])
                # A bad weight raises InvalidParameterError, a ValueError.
                if "key" in record:
                    out.append(KeyedItem(record["key"], t, v))
                else:
                    out.append(StreamItem(t, v))
            except (ValueError, KeyError, TypeError) as exc:
                raise InvalidParameterError(
                    f"{path}:{lineno}: bad record {line!r}"
                ) from exc
    if sort:
        out.sort(key=lambda i: i.time)
    return out


def replay(
    items: Iterable[StreamItem],
    engine: E,
    *,
    until: int | None = None,
    policy: OutOfOrderPolicy | None = None,
) -> E:
    """Drive an engine with a trace; returns the engine (fluent style).

    Routes through the engine's batch path (one ``add_batch`` per distinct
    arrival time).  Out-of-order items follow ``policy``
    (:class:`~repro.core.timeorder.OutOfOrderPolicy`); the default
    ``raise`` policy fails with
    :class:`~repro.core.errors.TimeOrderError`.
    """
    ingest_trace(engine, items, until=until, policy=policy)
    return engine
