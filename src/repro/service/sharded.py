"""Multi-process sharded service store: per-worker stores, merge fan-in.

:class:`ShardedServiceStore` is the multi-core front the single-process
:class:`~repro.service.store.ServiceStore` was designed to scale into:
``N`` worker processes, each owning a *full* ``ServiceStore`` shard on
the lock-step shared clock, with keys routed by CRC-32
(:func:`shard_of`, stable across interpreters).
The front presents the same store surface the
:class:`~repro.service.daemon.IngestDaemon` and
:class:`~repro.service.api.ServiceServer` already speak, so it is a
drop-in behind the existing HTTP/WS API.

**The IPC plane is batched.**  One write call becomes at most one
frame per shard (:mod:`repro.service.ipc`, length-prefixed JSON): the
front's :class:`~repro.core.timeorder.Admission` stage -- the
:class:`~repro.service.store.StoreFront` the single-process store also
subclasses -- compiles the call into one program of
``adv``/``fold``/``late`` entries, and the router splits it into
per-shard parts (``["adv", t]`` clock steps shared by every shard plus
that shard's own ``["fold", key, values]`` / ``["late", key, when,
value]`` entries), so the router's cost is O(shards) frames per batch,
not O(items).  Every shard executes every global clock step, which keeps
the worker stores bit-identical to the single-process store (same
advance pattern, same TTL sweep stops, same fold grouping; the
differential harness in ``tests/service/test_sharded_differential.py``
pins exactly this).

**Admission lives at the router.**  The out-of-order policy, the
lateness watermark heap and the ingest ledgers are the router's
``Admission`` stage, run against the *global* clock -- late admission is a
global ordering decision.  A worker runs its part with the single store's
executor (``ServiceStore._run``), so no entry passes a second admission
stage: workers keep keys, engines and eviction ledgers, and nothing
else.  A worker skips an entry its engine refuses, as the single store
does, and names it in its reply; the router ledgers every other entry.

**Cross-shard reads fold via ``merge``.**  ``query_total`` fans out one
``fold`` frame per worker; each worker merges clones of its per-key
engines (the PR-5 monoid, in the spirit of the mergeable-summary
treatment in Braverman et al. 2019) and the router merges the per-worker
summaries.  ``keys`` and ``stats`` fan out the same way, with eviction
ledgers summed at the router.  A snapshot is the fan-in at rest: the
router's head and every worker's keys make one plain ``service-store``
snapshot, the single store's format, and a restore splits its keys onto
however many workers the front has.

**Workers are revivable.**  Every state-mutating frame is journaled
per worker before it is sent.  Once a worker's journal holds twice the
bytes of its last checkpoint (any journaled frame, before the first),
the router snapshots the worker and truncates its journal, so between
calls a journal stays under twice its checkpoint whatever the request
sizes: the revival state costs what the shard holds, not what the
traffic was.  When a worker dies mid-batch (EOF/broken pipe), the router
respawns it, restores the checkpoint, and replays the journal -- workers
are deterministic functions of their frame sequence, so the revived
shard is bit-identical and no admitted weight is lost.  Revivals are
counted on ``stats()["revived_workers"]``.  The journal and the
checkpoint are kept as the exact bytes of the pipe: each frame is
encoded once, sent, and journaled as those bytes, and the worker's
``snapshot`` reply is itself a ``restore`` frame, kept undecoded -- so
the router's revival state costs what the wire does, not a tree of
decoded Python objects.  The worker encodes that reply one key at a time
(:func:`_snapshot_frame`), never holding its whole snapshot as a tree.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import stat
import zlib
from dataclasses import asdict
from multiprocessing.connection import Connection
from typing import Any, Hashable, Mapping, Sequence

from repro.core.decay import DecayFunction
from repro.core.errors import (
    DecayFunctionError,
    EmptyAggregateError,
    InvalidParameterError,
    NotApplicableError,
    ReproError,
    TimeOrderError,
)
from repro.core.estimate import Estimate
from repro.core.interfaces import DecayingSum, make_decaying_sum
from repro.core.timeorder import Admission, OutOfOrderPolicy
from repro.serialize import (
    decay_from_dict,
    decay_to_dict,
    engine_from_dict,
    engine_to_dict,
)
from repro.service.ipc import (
    WorkerDiedError,
    decode_frame,
    encode_frame,
    recv_frame,
    recv_frame_bytes,
    send_frame,
)
from repro.service.store import EvictionLedger, ServiceStore, StoreFront
from repro.storage.model import StorageReport

__all__ = ["ShardedServiceStore", "shard_of"]

#: How every successful reply starts: frames are compact JSON and replies
#: put ``ok`` first, so a snapshot reply is checked without decoding it.
_OK_PREFIX = b'{"ok":true'

#: A shard is checkpointed when its journal reaches this many times the
#: bytes of its last checkpoint.  Twice, not once: every checkpoint is a
#: full snapshot of the shard (12-21 ms of CPU for 512 forward-decay keys
#: on a 2-vCPU machine), pacing at once took about 1.8 times as many on a
#: 2-worker forward-decay feed, and it left that benchmark's memory peak
#: where twice left it.
_CHECKPOINT_RATIO = 2


def shard_of(key: Hashable, shards: int) -> int:
    """Deterministic shard index for ``key`` (stable across processes).

    Uses CRC-32 of ``repr(key)`` rather than the builtin ``hash``: the
    latter is salted per interpreter, which would scatter one key across
    different shards in the workers and the router.
    """
    if shards <= 0:
        raise InvalidParameterError(f"shards must be >= 1, got {shards}")
    return zlib.crc32(repr(key).encode("utf-8")) % shards


# ------------------------------------------------------------------ worker
#
# Module-level so every multiprocessing start method can import it by name.
# The worker is a plain frame-dispatch loop over one ServiceStore; its
# store's admission stage is never used (admission runs at the router), and
# it exits on EOF, a ``shutdown`` frame, or a dead router.

def _worker_build_store(config: Mapping[str, Any]) -> ServiceStore:
    return ServiceStore(
        decay_from_dict(dict(config["decay"])),
        float(config["epsilon"]),
        ttl=config["ttl"],
    )


def _snapshot_frame(store: ServiceStore) -> bytearray:
    """The worker's ``snapshot`` reply, encoded one key at a time.

    Byte for byte ``encode_frame({"ok": True, "op": "restore", "data":
    store.to_dict()})``, without ever holding the snapshot as one tree:
    the reply is encoded with an empty ``keys`` object, cut after its
    opening brace, and each key's ``"key":{...}`` member is appended from
    that key's own one-entry frame.  One growing buffer, not a list of
    parts, and the worker sends that buffer itself, not a ``bytes`` copy
    of it: the peak stays near the frame's own size whatever the key
    count.
    """
    head = encode_frame(
        {
            "ok": True,
            "op": "restore",
            "data": {**store.snapshot_head(), "keys": {}},
        }
    )
    frame = bytearray(head[:-3])  # cut "}}}": the keys, data, reply ends
    comma = b""
    for key, state in store.snapshot_keys():
        frame += comma
        frame += encode_frame({key: state})[1:-1]
        comma = b","
    frame += b"}}}"
    return frame


def _worker_dispatch(
    store: ServiceStore, frame: Mapping[str, Any]
) -> dict[str, Any] | bytearray:
    op = frame.get("op")
    if op == "ingest":
        # The router's admission compiled and checked the program; each
        # entry an engine refused comes back with its index in the part.
        refused = store._run(frame.get("prog") or [])
        reply: dict[str, Any] = {"ok": True, "time": store.time}
        if refused:
            reply["refused"] = [
                [index, _error_reply(exc)] for index, exc in refused.items()
            ]
        return reply
    if op == "query":
        key = str(frame["key"])
        if frame.get("create"):
            estimate = store.query(key, create=True)
        else:
            try:
                estimate = store.query(key)
            except KeyError:
                return {"ok": True, "found": False}
        return {
            "ok": True,
            "found": True,
            "time": store.time,
            "estimate": [estimate.value, estimate.lower, estimate.upper],
        }
    if op == "fold":
        merged = store.fold_engine()
        return {
            "ok": True,
            "engine": None if merged is None else engine_to_dict(merged),
        }
    if op == "keys":
        return {
            "ok": True,
            "keys": store.keys(),
            "key_stats": store.key_stats(),
        }
    if op == "stats":
        return {
            "ok": True,
            "stats": {
                "time": store.time,
                "keys": len(store),
                **store.eviction.to_dict(),
            },
        }
    if op == "snapshot":
        # Shaped as a restore frame: the router keeps these exact bytes as
        # the worker's checkpoint and replays them verbatim on revival.
        return _snapshot_frame(store)
    if op == "restore":
        store.restore(dict(frame["data"]))
        return {"ok": True, "time": store.time}
    if op == "merge_key":
        store.merge_into(str(frame["key"]), engine_from_dict(frame["engine"]))
        return {"ok": True, "time": store.time}
    if op == "export":
        return {
            "ok": True,
            "engine": engine_to_dict(store.engine(str(frame["key"]))),
        }
    if op == "storage":
        key = frame.get("key")
        report = (
            store.storage_report()
            if key is None
            else store.key_storage_report(str(key))
        )
        return {"ok": True, "report": asdict(report)}
    if op == "shutdown":
        return {"ok": True}
    return _error_reply(InvalidParameterError(f"unknown op {op!r}"))


def _error_reply(exc: BaseException) -> dict[str, Any]:
    """A refusal as the router re-raises it: the exception's type name
    and its message (a ``KeyError``'s message is its key)."""
    message = exc.args[0] if len(exc.args) == 1 else str(exc)
    return {"ok": False, "error": type(exc).__name__, "message": str(message)}


def _close_inherited_sockets(own: Connection) -> None:
    """Close every socket a forked worker inherited but its own pipe.

    A fork copies all of the router process's descriptors: its server's
    listening and client sockets, and the other shards' pipes.  Held open
    here, the connection of a request that revived this worker would
    stay open after the server closed it, and its client would wait for
    the end of the reply until the worker exited.
    """
    for listing in ("/proc/self/fd", "/dev/fd"):
        try:
            fds = [int(name) for name in os.listdir(listing)]
        except OSError:
            continue
        for fd in fds:
            if fd <= 2 or fd == own.fileno():
                continue
            try:
                mode = os.fstat(fd).st_mode
            except OSError:  # the listing's own descriptor, closed since
                continue
            if stat.S_ISSOCK(mode):
                os.close(fd)
        return


def _worker_main(conn: Connection, config: dict[str, Any]) -> None:
    """One shard: build the store, serve frames until EOF/shutdown."""
    _close_inherited_sockets(conn)
    store = _worker_build_store(config)
    while True:
        try:
            frame = recv_frame(conn)
        except WorkerDiedError:
            return  # router is gone; nothing left to serve
        try:
            reply = _worker_dispatch(store, frame)
        except (ReproError, KeyError, ValueError, TypeError) as exc:
            reply = _error_reply(exc)
        try:
            send_frame(conn, reply)
        except WorkerDiedError:
            return
        if frame.get("op") == "shutdown":
            conn.close()
            return


# ------------------------------------------------------------------ router

class _Shard:
    """Router-side worker bookkeeping: pipe, process, journal, checkpoint.

    A revival replaces the pipe and the process and keeps the rest.
    """

    __slots__ = (
        "conn", "process", "journal", "journal_bytes", "checkpoint",
        "checkpoints",
    )

    def __init__(self, conn: Connection, process: Any) -> None:
        self.conn = conn
        self.process = process
        #: Encoded state-mutating frames since the last checkpoint, in send
        #: order: the exact bytes that went on the pipe.
        self.journal: list[bytes] = []
        self.journal_bytes = 0
        #: An encoded ``restore`` frame of the worker store the journal
        #: replays on top of.
        self.checkpoint: bytes | None = None
        #: Checkpoints adopted so far.
        self.checkpoints = 0

    def log(self, data: bytes) -> None:
        self.journal.append(data)
        self.journal_bytes += len(data)

    def due(self) -> bool:
        """Whether the journal reached ``_CHECKPOINT_RATIO`` times the
        checkpoint's bytes (none yet counts as 0); never when empty."""
        return bool(self.journal) and self.journal_bytes >= (
            _CHECKPOINT_RATIO * len(self.checkpoint or b"")
        )

    def reset(self, checkpoint: bytes) -> None:
        """Adopt a new checkpoint; the journal restarts empty."""
        self.checkpoint = checkpoint
        self.checkpoints += 1
        self.journal = []
        self.journal_bytes = 0


#: Worker refusals re-raised as their own type (:func:`_error_reply`);
#: any other type arrives as a :class:`ReproError` naming it.
_WORKER_ERRORS: dict[str, type[Exception]] = {
    cls.__name__: cls
    for cls in (
        KeyError, ValueError, TypeError, ReproError, InvalidParameterError,
        DecayFunctionError, NotApplicableError, TimeOrderError,
        EmptyAggregateError,
    )
}


def _worker_error(reply: Mapping[str, Any]) -> Exception:
    """A worker's error reply as the matching local type, with the
    worker's message, so it reads as the single store's would."""
    kind = str(reply.get("error", "ReproError"))
    message = str(reply.get("message", "worker error"))
    cls = _WORKER_ERRORS.get(kind)
    return ReproError(f"{kind}: {message}") if cls is None else cls(message)


def _checked(reply: dict[str, Any]) -> dict[str, Any]:
    """``reply`` itself when it reports success; else raise its error."""
    if not reply.get("ok", False):
        raise _worker_error(reply)
    return reply


def _frame(op: str) -> bytes:
    """The encoded body of a payload-free ``op`` frame."""
    return encode_frame({"op": op})


class ShardedServiceStore(StoreFront):
    """``workers`` ServiceStore shards behind one store front.

    Constructor arguments mirror :class:`ServiceStore` (``ttl`` on the
    shared clock, ``policy`` for late items -- the ``buffer`` kind must
    be installed here because its watermark heap is router state);
    ``workers`` is the process count and ``context`` picks the
    multiprocessing start method (default: ``fork`` where available --
    worker startup cost matters when a store front is built per request
    batch in tests -- otherwise the platform default).  Each worker's
    revival journal is bounded by its checkpoint: once the journal holds
    twice the checkpoint's bytes, the router takes a new checkpoint, so
    there is no journal size to configure.
    """

    def __init__(
        self,
        decay: DecayFunction,
        epsilon: float = 0.1,
        *,
        workers: int = 2,
        ttl: int | None = None,
        policy: OutOfOrderPolicy | None = None,
        context: Any | None = None,
    ) -> None:
        if workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        super().__init__(decay, epsilon, ttl, policy)
        self.workers = int(workers)
        self._adopt(decay, self.epsilon, self.ttl)
        #: Evictions inherited from a restored snapshot; live evictions
        #: accumulate on the worker stores and are summed on top.
        self.eviction_base = EvictionLedger()
        self.revived_workers = 0
        self.dead_at_close = 0
        if context is None:
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
        self._ctx = context
        self._shards: list[_Shard] = [
            _Shard(*self._spawn(index)) for index in range(self.workers)
        ]
        self._closed = False

    def _adopt(
        self, decay: DecayFunction, epsilon: float, ttl: int | None
    ) -> None:
        """Take the configuration workers are built with.  The router
        holds no engine: it reads the family's flags off one it drops."""
        self._decay, self.epsilon = decay, float(epsilon)
        self.ttl = None if ttl is None else int(ttl)
        probe = make_decaying_sum(decay, self.epsilon)
        self._native = bool(getattr(probe, "supports_out_of_order", False))
        self._integer = bool(getattr(probe, "integer_weights", False))
        self._config = dict(
            decay=decay_to_dict(decay), epsilon=self.epsilon, ttl=self.ttl
        )

    # ----------------------------------------------------------- lifecycle

    def _spawn(self, index: int) -> tuple[Connection, Any]:
        """Start shard ``index``'s worker: the router's pipe end and the
        process."""
        parent, child = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child, self._config),
            name=f"repro-service-shard-{index}",
            daemon=True,
        )
        process.start()
        child.close()
        return parent, process

    def close(self) -> None:
        """Shut every worker down and join it (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            try:
                send_frame(shard.conn, _frame("shutdown"))
                recv_frame(shard.conn)
            except WorkerDiedError:
                # Already gone; the join/terminate below is all that's left.
                self.dead_at_close += 1
            shard.conn.close()
        for shard in self._shards:
            shard.process.join(timeout=5)
            if shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(timeout=5)

    def __enter__(self) -> "ShardedServiceStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __del__(self) -> None:
        # Interpreter teardown may have dismantled pipes or the module
        # table under us; anything close() hits at that point is moot.
        try:
            self.close()
        except (ReproError, OSError, ValueError, AttributeError):
            self._closed = True

    def worker_pids(self) -> list[int]:
        """Live worker process ids (crash tests kill one of these)."""
        return [int(shard.process.pid or 0) for shard in self._shards]

    # ------------------------------------------------------------ plumbing

    def _respawn(self, index: int) -> bytes | None:
        """Replace shard ``index``'s process and replay checkpoint + journal.

        Returns the undecoded reply to the journal's final frame (the one
        that was in flight when the worker died), or ``None`` for an
        empty journal.
        """
        shard = self._shards[index]
        shard.conn.close()
        if shard.process.is_alive():
            shard.process.terminate()
        shard.process.join(timeout=5)
        shard.conn, shard.process = self._spawn(index)
        last_reply: bytes | None = None
        if shard.checkpoint is not None:
            send_frame(shard.conn, shard.checkpoint)
            reply = recv_frame(shard.conn)
            if not reply.get("ok"):
                raise WorkerDiedError(
                    f"shard {index} checkpoint replay failed: "
                    f"{reply.get('error')}: {reply.get('message')}"
                )
        for data in shard.journal:
            send_frame(shard.conn, data)
            last_reply = recv_frame_bytes(shard.conn)
        return last_reply

    def _recover(self, index: int, data: bytes, *, journal: bool) -> bytes:
        """Revive a dead shard and recover the reply to frame ``data``.

        A journaled frame was appended before the send, so the replay
        applies it and its answer is the journal's final reply; a
        read-only frame left no journal trace and is simply re-sent to
        the fresh worker.
        """
        replayed = self._respawn(index)
        self.revived_workers += 1
        if journal:
            return replayed if replayed is not None else _OK_PREFIX + b"}"
        shard = self._shards[index]
        send_frame(shard.conn, data)
        return recv_frame_bytes(shard.conn)

    def _check_open(self) -> None:
        # Without this guard a post-close frame would hit a dead pipe and
        # the death path would happily respawn the whole worker pool.
        if self._closed:
            raise InvalidParameterError("store is closed")

    def _exchange(self, index: int, data: bytes, *, journal: bool) -> bytes:
        """One undecoded round trip, with journaling and revive-on-death."""
        self._check_open()
        shard = self._shards[index]
        if journal:
            shard.log(data)
        try:
            send_frame(shard.conn, data)
            return recv_frame_bytes(shard.conn)
        except WorkerDiedError:
            return self._recover(index, data, journal=journal)

    def _request(
        self, index: int, frame: dict[str, Any], *, journal: bool
    ) -> dict[str, Any]:
        """One frame round trip, decoded; worker errors re-raised."""
        reply = self._exchange(index, encode_frame(frame), journal=journal)
        if journal:
            self._maybe_checkpoint()
        return _checked(decode_frame(reply))

    def _broadcast_raw(
        self, frames: Sequence[bytes | None], *, journal: bool
    ) -> list[bytes | None]:
        """Send one encoded frame per shard (None skips), then collect
        the undecoded replies.

        Sends complete before the first reply is read, so the workers
        decode and fold concurrently -- this is where the multi-core
        ingest speedup comes from.
        """
        self._check_open()
        pending: list[int] = []
        replies: list[bytes | None] = [None] * len(frames)
        for index, data in enumerate(frames):
            if data is None:
                continue
            shard = self._shards[index]
            if journal:
                shard.log(data)
            try:
                send_frame(shard.conn, data)
                pending.append(index)
            except WorkerDiedError:
                replies[index] = self._recover(index, data, journal=journal)
        for index in pending:
            try:
                replies[index] = recv_frame_bytes(self._shards[index].conn)
            except WorkerDiedError:
                data = frames[index]
                assert data is not None
                replies[index] = self._recover(index, data, journal=journal)
        return replies

    def _broadcast(
        self, frames: Sequence[bytes | None], *, journal: bool
    ) -> list[dict[str, Any] | None]:
        """:meth:`_broadcast_raw`, decoded; worker errors re-raised."""
        replies = [
            None if reply is None else decode_frame(reply)
            for reply in self._broadcast_raw(frames, journal=journal)
        ]
        if journal:
            self._maybe_checkpoint()
        for reply in replies:
            if reply is not None:
                _checked(reply)
        return replies

    def _fan_out(self, op: str) -> list[dict[str, Any]]:
        """One read-only ``op`` frame to every shard; the decoded replies."""
        replies = self._broadcast([_frame(op)] * self.workers, journal=False)
        return [reply for reply in replies if reply is not None]

    def _maybe_checkpoint(self) -> None:
        """Snapshot every shard whose journal is due (:meth:`_Shard.due`).

        Runs after every journaled exchange, also one a worker refused.
        The snapshot reply is a ready ``restore`` frame; its bytes become
        the checkpoint as received, never decoded at the router.
        """
        for index, shard in enumerate(self._shards):
            if not shard.due():
                continue
            reply = self._exchange(index, _frame("snapshot"), journal=False)
            if not reply.startswith(_OK_PREFIX):
                _checked(decode_frame(reply))  # raises the worker's error
            shard.reset(reply)

    def _shard_of(self, key: str) -> int:
        return shard_of(str(key), self.workers)

    def _set_time(self, when: int) -> None:
        """Move the router clock; the read memo dies with the old tick."""
        self._time = when
        self._memo.clear()

    # --------------------------------------------------------------- clock

    def advance(self, steps: int = 1) -> None:
        """Advance the shared clock on every shard (TTL sweeps run there)."""
        if steps < 0:
            raise InvalidParameterError(f"steps must be >= 0, got {steps}")
        self.advance_to(self._time + steps)

    # -------------------------------------------------------------- writes

    def _run(self, prog: Sequence[Sequence[Any]]) -> dict[int, Exception]:
        """Split the program by shard and ship it: one ``ingest`` frame
        per shard with an entry, holding every ``adv`` (same sweep stops
        as the single store) and its own keys' ``fold``/``late`` entries.
        Refusals come back by index in a part, mapped to ``prog``'s."""
        parts: list[list[list[Any]]] = [[] for _ in self._shards]
        for entry in prog:
            if entry[0] == "adv":
                step: list[Any] = ["adv", int(entry[1])]
                self._set_time(step[1])
                for part in parts:
                    part.append(step)
                continue
            key = str(entry[1])
            self._memo.pop(key, None)
            parts[self._shard_of(key)].append(
                ["fold", key, [float(v) for v in entry[2]]]
                if entry[0] == "fold"
                else ["late", key, int(entry[2]), float(entry[3])]
            )
        if not any(parts):
            return {}
        replies = self._broadcast(
            [
                encode_frame({"op": "ingest", "prog": part}) if part else None
                for part in parts
            ],
            journal=True,
        )
        refused: dict[int, Exception] = {}
        for shard, reply in enumerate(replies):
            if reply and "refused" in reply:
                origin = [i for i, entry in enumerate(prog) if entry[0] == "adv"
                          or self._shard_of(entry[1]) == shard]
                for at, error in reply["refused"]:
                    refused[origin[at]] = _worker_error(error)
        return dict(sorted(refused.items()))

    def _merge(self, key: str, other: DecayingSum) -> None:
        key = str(key)
        self._memo.pop(key, None)
        self._request(
            self._shard_of(key),
            {"op": "merge_key", "key": key, "engine": engine_to_dict(other)},
            journal=True,
        )

    # --------------------------------------------------------------- reads

    def query(self, key: str, *, create: bool = False) -> Estimate:
        """Certified estimate for ``key`` from its owning shard.

        Memoized at the router for the rest of the tick, until the key's
        next write -- every write to the key routes through this front, so
        a repeated poll of a quiet key answers without any IPC at all.
        """
        key = str(key)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        reply = self._request(
            self._shard_of(key),
            {"op": "query", "key": key},
            journal=False,
        )
        if not reply.get("found"):
            if not create:
                raise KeyError(key)
            # Creation is a write: journal it (replay must recreate the
            # engine).
            reply = self._request(
                self._shard_of(key),
                {"op": "query", "key": key, "create": True},
                journal=True,
            )
        value, lower, upper = reply["estimate"]
        estimate = self._memo[key] = Estimate(
            float(value), float(lower), float(upper)
        )
        return estimate

    def query_total(self) -> Estimate:
        """Whole-store decayed sum: fan out, fold via engine ``merge``.

        Each worker merges clones of its own per-key engines and ships
        one summary; the router merges the per-worker summaries in shard
        order.  Workers build only
        :func:`~repro.core.interfaces.make_decaying_sum` engines, and
        every one of those merges structurally.
        """
        engines: list[DecayingSum] = [
            engine_from_dict(reply["engine"])
            for reply in self._fan_out("fold")
            if reply["engine"] is not None
        ]
        if not engines:
            return Estimate.exact(0.0)
        merged = engines[0]
        for engine in engines[1:]:
            merged.merge(engine)
        return merged.query()

    def keys(self) -> list[str]:
        merged: list[str] = []
        for reply in self._fan_out("keys"):
            merged.extend(reply["keys"])
        return sorted(merged)

    def key_stats(self) -> dict[str, dict[str, Any]]:
        merged: dict[str, dict[str, Any]] = {}
        for reply in self._fan_out("keys"):
            merged.update(reply["key_stats"])
        return dict(sorted(merged.items()))

    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, key: str) -> bool:
        try:
            self.query(str(key))
        except KeyError:
            return False
        return True

    def stats(self) -> dict[str, Any]:
        """The ledger block: the router's admission ledgers, the workers'
        keys and evictions summed, and one ``per_worker`` entry each.

        A worker keeps its clock, keys and evictions (``time``, ``keys``,
        ``evicted_keys``, ``evicted_weight``); its entry adds the router's
        revival state for it: ``journal_frames``/``journal_bytes`` since
        the last checkpoint, the checkpoint's ``checkpoint_bytes``, and the
        ``checkpoints`` taken so far (by the byte rule, :meth:`to_dict`
        and :meth:`restore`).
        """
        per_worker: list[dict[str, Any]] = []
        for shard, reply in zip(self._shards, self._fan_out("stats")):
            per_worker.append({
                **reply["stats"],
                "journal_frames": len(shard.journal),
                "journal_bytes": shard.journal_bytes,
                "checkpoint_bytes": len(shard.checkpoint or b""),
                "checkpoints": shard.checkpoints,
            })
        return {
            **self._ledgers(
                sum(int(worker["keys"]) for worker in per_worker),
                self._evictions(per_worker),
            ),
            "workers": self.workers,
            "revived_workers": self.revived_workers,
            "per_worker": per_worker,
        }

    def _evictions(
        self, ledgers: Sequence[Mapping[str, Any]]
    ) -> EvictionLedger:
        """The restored evictions plus every worker's, in shard order."""
        total = EvictionLedger(
            self.eviction_base.evicted_keys, self.eviction_base.evicted_weight
        )
        for ledger in ledgers:
            total.evicted_keys += int(ledger["evicted_keys"])
            total.evicted_weight += float(ledger["evicted_weight"])
        return total

    def storage_report(self) -> StorageReport:
        """Aggregate worker storage (shared bits counted once)."""
        return StorageReport.aggregate(
            f"sharded-service[{self.workers}]",
            (
                StorageReport(**reply["report"])
                for reply in self._fan_out("storage")
            ),
        )

    def export_engine(self, key: str) -> DecayingSum:
        """A clone of ``key``'s engine, shipped from its owning shard.

        Journaled because the shard creates the engine on first use,
        exactly like :meth:`ServiceStore.export_engine`.
        """
        key = str(key)
        reply = self._request(
            self._shard_of(key),
            {"op": "export", "key": key},
            journal=True,
        )
        return engine_from_dict(reply["engine"])

    def key_storage_report(self, key: str) -> StorageReport:
        """Storage report for one key's engine on its owning shard."""
        key = str(key)
        reply = self._request(
            self._shard_of(key),
            {"op": "storage", "key": key},
            journal=True,  # may create the engine, like ServiceStore.engine
        )
        return StorageReport(**reply["report"])

    # ------------------------------------------------------------ snapshot

    def to_dict(self) -> dict[str, Any]:
        """The front's ``service-store`` snapshot, the single store's format.

        The router's head (clock, admission state, and the restored
        evictions plus every worker's, in shard order) and every worker's
        keys, in shard order.  Fetching the worker snapshots doubles as a
        checkpoint: each worker's journal is truncated against the state
        just captured, whose reply bytes become the new checkpoint as
        received.
        """
        replies = self._broadcast_raw(
            [_frame("snapshot")] * self.workers, journal=False
        )
        shards: list[dict[str, Any]] = []
        for reply in replies:
            assert reply is not None
            shards.append(_checked(decode_frame(reply))["data"])
        keys: dict[str, Any] = {}
        for shard, reply, data in zip(self._shards, replies, shards):
            assert reply is not None
            shard.reset(reply)
            keys.update(data["keys"])
        eviction = self._evictions([data["eviction"] for data in shards])
        return {**self._head(eviction), "keys": keys}

    def restore(self, data: dict[str, Any]) -> None:
        """Replace all state from a ``service-store`` snapshot.

        Keys are split by CRC-32 onto this front's workers, so a snapshot
        of a single store or of a front with any worker count restores
        here: scale-out and scale-in are one snapshot/restore pair.
        """
        self._check_head(data)
        # Everything the router adopts is parsed before any worker sees
        # the snapshot, so a malformed router block changes nothing (the
        # admission block by a trial parse; the live stage adopts it last).
        time = int(data["time"])
        decay = decay_from_dict(dict(data["decay"]))
        Admission().restore(data)
        ledger = data["eviction"]
        eviction_base = EvictionLedger(
            ledger["evicted_keys"], ledger["evicted_weight"]
        )
        parts: list[dict[str, Any]] = [{} for _ in self._shards]
        for key, state in data["keys"].items():
            parts[self._shard_of(str(key))][key] = state
        # A worker's part holds its keys only: the router keeps the
        # admission state and the restored evictions.
        empty = {"eviction": EvictionLedger().to_dict(), **Admission().to_dict()}
        # Restore frames are not journaled: once every worker accepts,
        # each frame *is* that worker's new checkpoint and the journals
        # restart empty.
        frames = [
            encode_frame(
                {"op": "restore", "data": {**data, **empty, "keys": part}}
            )
            for part in parts
        ]
        replies = [
            decode_frame(reply)
            for reply in self._broadcast_raw(frames, journal=False)
            if reply is not None
        ]
        rejected = [reply for reply in replies if not reply.get("ok", False)]
        if rejected:
            # A worker's own restore is atomic, so a rejecting worker is
            # untouched; every accepting one is rebuilt from its previous
            # checkpoint + journal, exactly as a revival would.
            for index, reply in enumerate(replies):
                if reply.get("ok", False):
                    self._respawn(index)
            _checked(rejected[0])
        for shard, frame in zip(self._shards, frames):
            shard.reset(frame)
        # Every worker accepted the snapshot's configuration, so the
        # router adopts it too, as the single store's restore does.
        self._adopt(decay, float(data["epsilon"]), data["ttl"])
        self._set_time(time)  # also drops the read memo: all state changed
        self._admission.restore(data)
        self.eviction_base = eviction_base

    @classmethod
    def from_dict(
        cls,
        data: dict[str, Any],
        *,
        workers: int = 2,
        context: Any | None = None,
    ) -> "ShardedServiceStore":
        """Spawn ``workers`` workers and restore ``data`` into them.

        The snapshot's version and kind are checked before any worker
        starts, and a refused restore closes the pool it started.
        """
        cls._check_head(data)
        with contextlib.ExitStack() as refused:
            store = cls(
                decay_from_dict(dict(data["decay"])),
                float(data["epsilon"]),
                workers=workers,
                ttl=data.get("ttl"),
                context=context,
            )
            refused.callback(store.close)
            store.restore(data)
            refused.pop_all()
        return store
