"""The sharded service's IPC plane: length-prefixed JSON frames.

One frame is one JSON object, UTF-8 encoded, carried over a duplex
:class:`multiprocessing.connection.Connection` via ``send_bytes`` /
``recv_bytes`` (the connection prepends the 4-byte native length header
-- the same length-prefixed framing a hand-rolled socket protocol would
use, minus the chance to get it wrong).  JSON, not pickle, on purpose:
the worker protocol is a *data* contract (the same dicts
:mod:`repro.serialize` already standardises), so a frame can be logged,
replayed from a journal, or spoken by a non-Python shard without
version-coupled class pickles.

Frames are strictly request/response and strictly serial per worker:
the router sends at most one in-flight frame per connection and every
state-mutating frame is acknowledged before the next is sent.  That
discipline is what makes the router's crash journal exact -- replaying
the journal against a fresh worker reproduces the dead worker's store
bit-for-bit (workers are deterministic functions of their frame
sequence, the same argument the conformance kit leans on).  The router
journals the encoded bytes it sent, so :func:`send_frame` takes either
a frame body or those bytes, and :func:`recv_frame_bytes` hands back a
reply undecoded.

A dead peer surfaces as :class:`WorkerDiedError` from either direction
(``EOFError`` on read, ``BrokenPipeError``/``OSError`` on write); the
router in :mod:`repro.service.sharded` catches it and revives the shard
from checkpoint + journal.
"""

from __future__ import annotations

import json
from multiprocessing.connection import Connection
from typing import Any

from repro.core.errors import ReproError

__all__ = [
    "WorkerDiedError",
    "encode_frame",
    "decode_frame",
    "send_frame",
    "recv_frame_bytes",
    "recv_frame",
]


class WorkerDiedError(ReproError):
    """The worker process on the other end of a frame pipe is gone."""


def encode_frame(obj: dict[str, Any]) -> bytes:
    """JSON-encode one frame body (compact separators, UTF-8)."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def decode_frame(data: bytes) -> dict[str, Any]:
    """Decode one frame body; a non-object frame is a protocol error.

    ``json.loads`` reads UTF-8 bytes directly, so no ``str`` copy of a
    (possibly multi-megabyte snapshot) frame is made on the way.
    """
    obj = json.loads(data)
    if not isinstance(obj, dict):
        raise ReproError(f"frame must be a JSON object, got {type(obj).__name__}")
    return obj


def send_frame(
    conn: Connection, obj: dict[str, Any] | bytes | bytearray
) -> None:
    """Write one frame; :class:`WorkerDiedError` if the peer is gone.

    ``obj`` is a frame body or its encoded bytes (any bytes-like buffer):
    the router passes bytes so the copy it journals is exactly what went
    on the pipe, and a worker sends the buffer it built its snapshot in.
    """
    data = obj if isinstance(obj, (bytes, bytearray)) else encode_frame(obj)
    try:
        conn.send_bytes(data)
    except (BrokenPipeError, ConnectionError, OSError) as exc:
        raise WorkerDiedError(f"peer closed the frame pipe: {exc!r}") from exc


def recv_frame_bytes(conn: Connection) -> bytes:
    """Read one undecoded frame; :class:`WorkerDiedError` on EOF or a
    dead peer."""
    try:
        return conn.recv_bytes()
    except (EOFError, BrokenPipeError, ConnectionError, OSError) as exc:
        raise WorkerDiedError(f"peer closed the frame pipe: {exc!r}") from exc


def recv_frame(conn: Connection) -> dict[str, Any]:
    """Read and decode one frame; :class:`WorkerDiedError` as above."""
    return decode_frame(recv_frame_bytes(conn))
