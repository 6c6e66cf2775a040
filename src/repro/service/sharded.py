"""Multi-process sharded service store: per-worker stores, merge fan-in.

:class:`ShardedServiceStore` is the multi-core front the single-process
:class:`~repro.service.store.ServiceStore` was designed to scale into:
``N`` worker processes, each owning a *full* ``ServiceStore`` shard on
the lock-step shared clock, with keys routed by CRC-32
(:func:`repro.parallel.sharded.shard_of`, stable across interpreters).
The front presents the same store surface the
:class:`~repro.service.daemon.IngestDaemon` and
:class:`~repro.service.api.ServiceServer` already speak, so it is a
drop-in behind the existing HTTP/WS API.

**The IPC plane is batched.**  One write call becomes at most one
frame per shard (:mod:`repro.service.ipc`, length-prefixed JSON): the
store's :class:`~repro.service.admission.Admission` stage -- the same one
the single-process store runs -- turns the call into ``adv``/``fold``/
``late`` operations, and the router appends them to per-shard *programs*
(``["adv", t]`` clock steps shared by every shard plus that shard's own
``["fold", key, values]`` / ``["late", key, when, value]`` entries), so
the router's cost is O(shards) frames per batch, not O(items).  Every
shard executes every global clock step, which keeps the worker stores
bit-identical to the single-process store (same advance pattern, same
TTL sweep stops, same fold grouping; the differential harness in
``tests/service/test_sharded_differential.py`` pins exactly this).

**Cross-shard reads fold via ``merge``.**  ``query_total`` fans out one
``fold`` frame per worker; each worker merges clones of its per-key
engines (the PR-5 monoid, in the spirit of the mergeable-summary
treatment in Braverman et al. 2019) and the router merges the per-worker
summaries -- or combines certified brackets when the engine family has
no structural merge.  ``keys``/``stats``/snapshots fan out and fold the
same way, with ledgers summed at the router.

**Admission lives at the router.**  The out-of-order policy, the
lateness watermark heap and the ingest ledgers are the router's
``Admission`` stage, run against the *global* clock -- late admission is a
global ordering decision -- so workers only ever see clean in-order
programs (natively order-insensitive engines still take their late items
via ``["late", ...]`` entries).  Eviction ledgers accumulate worker-side
and are summed at the router.

**Workers are revivable.**  Every state-mutating frame is journaled
per worker before it is sent; every ``checkpoint_every`` journaled
frames the router snapshots the worker and truncates its journal.  When
a worker dies mid-batch (EOF/broken pipe), the router respawns it,
restores the checkpoint, and replays the journal -- workers are
deterministic functions of their frame sequence, so the revived shard
is bit-identical and no admitted weight is lost.  Revivals are counted
on ``stats()["revived_workers"]``.  The journal and the checkpoint are
kept as the exact bytes of the pipe: each frame is encoded once, sent,
and journaled as those bytes, and the worker's ``snapshot`` reply is
itself a ``restore`` frame, kept undecoded -- so the router's revival
state costs what the wire does, not a tree of decoded Python objects.
"""

from __future__ import annotations

import contextlib
import multiprocessing
from multiprocessing.connection import Connection
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.core.batching import KeyedTimedValue
from repro.core.decay import DecayFunction
from repro.core.errors import (
    InvalidParameterError,
    NotApplicableError,
    ReproError,
    TimeOrderError,
)
from repro.core.estimate import Estimate
from repro.core.interfaces import DecayingSum, make_decaying_sum
from repro.core.timeorder import OutOfOrderPolicy
from repro.histograms.domination import widen_merged_estimate
from repro.parallel.sharded import shard_of
from repro.serialize import (
    decay_from_dict,
    decay_to_dict,
    engine_from_dict,
    engine_to_dict,
)
from repro.service.admission import Admission
from repro.service.ipc import (
    WorkerDiedError,
    decode_frame,
    encode_frame,
    recv_frame,
    recv_frame_bytes,
    send_frame,
)
from repro.service.store import EvictionLedger, ServiceStore
from repro.storage.model import StorageReport

__all__ = ["ShardedServiceStore", "flatten_snapshot"]

_SNAPSHOT_VERSION = 1
_SNAPSHOT_KIND = "sharded-service-store"

#: How every successful reply starts: frames are compact JSON and replies
#: put ``ok`` first, so a snapshot reply is checked without decoding it.
_OK_PREFIX = b'{"ok":true'


# ------------------------------------------------------------------ worker
#
# Module-level so every multiprocessing start method can import it by name.
# The worker is a plain frame-dispatch loop over one ServiceStore; it holds
# no policy (admission runs at the router) and exits on EOF, a ``shutdown``
# frame, or a dead router.

def _worker_build_store(config: Mapping[str, Any]) -> ServiceStore:
    return ServiceStore(
        decay_from_dict(dict(config["decay"])),
        float(config["epsilon"]),
        ttl=config["ttl"],
        memoize=bool(config.get("memoize", True)),
    )


def _worker_exec_ingest(
    store: ServiceStore, prog: Sequence[Sequence[Any]]
) -> None:
    """Run one compiled ingest program against the shard store."""
    for entry in prog:
        op = entry[0]
        if op == "adv":
            store.advance_to(int(entry[1]))
        elif op == "fold":
            store.observe_values(
                str(entry[1]), [float(v) for v in entry[2]]
            )
        elif op == "late":
            store.observe(
                str(entry[1]), float(entry[3]), when=int(entry[2])
            )
        else:
            raise InvalidParameterError(f"unknown program entry {op!r}")


def _estimate_triplet(estimate: Estimate) -> list[float]:
    return [estimate.value, estimate.lower, estimate.upper]


def _worker_dispatch(
    store: ServiceStore, frame: Mapping[str, Any]
) -> dict[str, Any]:
    op = frame.get("op")
    if op == "ingest":
        _worker_exec_ingest(store, frame.get("prog") or [])
        return {"ok": True, "time": store.time}
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
            "estimate": _estimate_triplet(estimate),
        }
    if op == "fold":
        try:
            merged = store.fold_engine()
        except NotApplicableError:
            merged = None
        return {
            "ok": True,
            "keys": len(store),
            "engine": None if merged is None else engine_to_dict(merged),
            "estimate": _estimate_triplet(store.query_total()),
        }
    if op == "keys":
        return {
            "ok": True,
            "keys": store.keys(),
            "key_stats": store.key_stats(),
        }
    if op == "stats":
        return {"ok": True, "stats": store.stats()}
    if op == "snapshot":
        # Shaped as a restore frame: the router keeps these exact bytes as
        # the worker's checkpoint and replays them verbatim on revival.
        return {"ok": True, "op": "restore", "data": store.to_dict()}
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
        return {
            "ok": True,
            "report": {
                "engine": report.engine,
                "buckets": report.buckets,
                "timestamp_bits": report.timestamp_bits,
                "count_bits": report.count_bits,
                "register_bits": report.register_bits,
                "shared_bits": report.shared_bits,
            },
        }
    if op == "flush":
        store.flush()
        return {"ok": True, "time": store.time}
    if op == "ping":
        return {"ok": True, "time": store.time}
    if op == "shutdown":
        return {"ok": True}
    return {"ok": False, "error": f"InvalidParameterError(unknown op {op!r})"}


def _worker_main(conn: Connection, config: dict[str, Any]) -> None:
    """One shard: build the store, serve frames until EOF/shutdown."""
    store = _worker_build_store(config)
    while True:
        try:
            frame = recv_frame(conn)
        except WorkerDiedError:
            return  # router is gone; nothing left to serve
        try:
            reply = _worker_dispatch(store, frame)
        except (ReproError, KeyError, ValueError, TypeError) as exc:
            reply = {"ok": False, "error": repr(exc)}
        try:
            send_frame(conn, reply)
        except WorkerDiedError:
            return
        if frame.get("op") == "shutdown":
            conn.close()
            return


# ------------------------------------------------------------------ router

class _Shard:
    """Router-side worker bookkeeping: pipe, process, journal, checkpoint."""

    __slots__ = ("conn", "process", "journal", "journal_bytes", "checkpoint")

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

    def log(self, data: bytes) -> None:
        self.journal.append(data)
        self.journal_bytes += len(data)

    def reset(self, checkpoint: bytes) -> None:
        """Adopt a new checkpoint; the journal restarts empty."""
        self.checkpoint = checkpoint
        self.journal = []
        self.journal_bytes = 0


def _raise_worker_error(message: str) -> None:
    """Re-raise a worker-reported error as the matching local type."""
    if message.startswith("KeyError"):
        raise KeyError(message)
    if message.startswith("TimeOrderError"):
        raise TimeOrderError(message)
    if message.startswith("NotApplicableError"):
        raise NotApplicableError(message)
    if message.startswith("InvalidParameterError"):
        raise InvalidParameterError(message)
    raise ReproError(message)


def _checked(reply: dict[str, Any]) -> dict[str, Any]:
    """``reply`` itself when it reports success; else raise its error."""
    if not reply.get("ok", False):
        _raise_worker_error(str(reply.get("error", "worker error")))
    return reply


def _frame(op: str) -> bytes:
    """The encoded body of a payload-free ``op`` frame."""
    return encode_frame({"op": op})


class ShardedServiceStore:
    """``workers`` ServiceStore shards behind one store front.

    Constructor arguments mirror :class:`ServiceStore` (``ttl`` on the
    shared clock, ``policy`` for late items -- the ``buffer`` kind must
    be installed here because its watermark heap is router state);
    ``workers`` is the process count, ``checkpoint_every`` bounds the
    per-worker revival journal, and ``context`` picks the
    multiprocessing start method (default: ``fork`` where available --
    worker startup cost matters when a store front is built per request
    batch in tests -- otherwise the platform default).
    """

    def __init__(
        self,
        decay: DecayFunction,
        epsilon: float = 0.1,
        *,
        workers: int = 2,
        ttl: int | None = None,
        policy: OutOfOrderPolicy | None = None,
        memoize: bool = True,
        checkpoint_every: int = 512,
        context: Any | None = None,
    ) -> None:
        if workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        if not 0 < epsilon < 1:
            raise InvalidParameterError(
                f"epsilon must be in (0, 1), got {epsilon}"
            )
        if ttl is not None and ttl < 1:
            raise InvalidParameterError(f"ttl must be >= 1, got {ttl}")
        if checkpoint_every < 1:
            raise InvalidParameterError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self._decay = decay
        self.epsilon = float(epsilon)
        self.ttl = None if ttl is None else int(ttl)
        self.workers = int(workers)
        self.checkpoint_every = int(checkpoint_every)
        self._memoize = bool(memoize)
        #: Probed once, like the single store: forward-decay families take
        #: late items natively, so the policy never has to intervene.
        self._native = bool(
            getattr(
                make_decaying_sum(decay, self.epsilon),
                "supports_out_of_order",
                False,
            )
        )
        self._time = 0
        self._admission = Admission(policy)
        #: Per-shard programs admission is compiling; shipped (one ingest
        #: frame per non-empty program) when each write call returns.
        self._progs: list[list[list[Any]]] = [[] for _ in range(self.workers)]
        #: Evictions inherited from a restored snapshot; live evictions
        #: accumulate on the worker stores and are summed on top.
        self.eviction_base = EvictionLedger()
        self.revived_workers = 0
        self.dead_at_close = 0
        # Router-side read memo, same contract as the store's: a write
        # routed through this front bumps the key's generation.
        self._write_gen: dict[str, int] = {}
        self._query_cache: dict[str, tuple[int, int, Estimate]] = {}
        self._config = {
            "decay": decay_to_dict(decay),
            "epsilon": self.epsilon,
            "ttl": self.ttl,
            "memoize": self._memoize,
        }
        if context is None:
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
        self._ctx = context
        self._shards: list[_Shard] = [
            self._spawn(index) for index in range(self.workers)
        ]
        self._closed = False

    # ----------------------------------------------------------- lifecycle

    def _spawn(self, index: int) -> _Shard:
        parent, child = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child, self._config),
            name=f"repro-service-shard-{index}",
            daemon=True,
        )
        process.start()
        child.close()
        return _Shard(parent, process)

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
        old = self._shards[index]
        old.conn.close()
        if old.process.is_alive():
            old.process.terminate()
        old.process.join(timeout=5)
        shard = self._spawn(index)
        shard.checkpoint = old.checkpoint
        shard.journal = old.journal
        shard.journal_bytes = old.journal_bytes
        self._shards[index] = shard
        last_reply: bytes | None = None
        if shard.checkpoint is not None:
            send_frame(shard.conn, shard.checkpoint)
            reply = recv_frame(shard.conn)
            if not reply.get("ok"):
                raise WorkerDiedError(
                    f"shard {index} checkpoint replay failed: "
                    f"{reply.get('error')}"
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
        for reply in replies:
            if reply is not None:
                _checked(reply)
        self._maybe_checkpoint()
        return replies

    def _fan_out(self, op: str) -> list[dict[str, Any]]:
        """One read-only ``op`` frame to every shard; the decoded replies."""
        replies = self._broadcast([_frame(op)] * self.workers, journal=False)
        return [reply for reply in replies if reply is not None]

    def _maybe_checkpoint(self) -> None:
        """Snapshot shards whose journal outgrew ``checkpoint_every``.

        The snapshot reply is a ready ``restore`` frame; its bytes become
        the checkpoint as received, never decoded at the router.
        """
        for index in range(self.workers):
            if len(self._shards[index].journal) < self.checkpoint_every:
                continue
            reply = self._exchange(index, _frame("snapshot"), journal=False)
            if not reply.startswith(_OK_PREFIX):
                _checked(decode_frame(reply))  # raises the worker's error
            # _exchange may have revived the shard: look it up afresh.
            self._shards[index].reset(reply)

    def _shard_of(self, key: str) -> int:
        return shard_of(str(key), self.workers)

    def _note_write(self, key: str) -> None:
        self._write_gen[key] = self._write_gen.get(key, 0) + 1

    def _set_time(self, when: int) -> None:
        """Move the router clock; the read memo dies with the old tick.

        A memo hit needs ``hit[0] == self._time``, so no entry of an
        earlier tick can ever hit again: dropping them all keeps both
        dicts bounded by the keys touched in one tick under key churn,
        without changing a single hit.
        """
        self._time = when
        self._write_gen.clear()
        self._query_cache.clear()

    # --------------------------------------------------------------- clock

    @property
    def time(self) -> int:
        return self._time

    @property
    def decay(self) -> DecayFunction:
        return self._decay

    @property
    def native_out_of_order(self) -> bool:
        """Whether shard engines take late items via ``add_at``."""
        return self._native

    @property
    def policy(self) -> OutOfOrderPolicy | None:
        """The store-level out-of-order policy (owned by admission)."""
        return self._admission.policy

    @property
    def ingested_items(self) -> int:
        return self._admission.ingested_items

    @property
    def ingested_weight(self) -> float:
        return self._admission.ingested_weight

    def advance(self, steps: int = 1) -> None:
        """Advance the shared clock on every shard (TTL sweeps run there)."""
        if steps < 0:
            raise InvalidParameterError(f"steps must be >= 0, got {steps}")
        self.advance_to(self._time + steps)

    def advance_to(self, when: int) -> None:
        with self._shipping():
            self._admission.advance_to(self, when)

    # -------------------------------------------------------------- writes
    #
    # The router's admission stage (the single store's very algorithm, run
    # against the global clock) calls back into _adv/_fold/_late below;
    # they only compile per-shard programs, which _shipping sends.

    def observe(
        self, key: str, value: float = 1.0, *, when: int | None = None
    ) -> None:
        """Record one item on ``key``'s stream, optionally at ``when``."""
        with self._shipping():
            self._admission.observe(self, str(key), float(value), when)

    def observe_values(self, key: str, values: Iterable[float]) -> None:
        """Fold several same-time values into ``key`` at the current clock."""
        with self._shipping():
            self._admission.observe_values(
                self, str(key), [float(v) for v in values]
            )

    def observe_batch(
        self,
        items: Iterable[KeyedTimedValue],
        *,
        until: int | None = None,
        policy: OutOfOrderPolicy | None = None,
    ) -> None:
        """Record a time-sorted keyed trace: one frame per shard per batch.

        Semantics (and ledger float order) match
        :meth:`ServiceStore.observe_batch` exactly -- both run
        :meth:`repro.service.admission.Admission.observe_batch`.
        """
        with self._shipping():
            self._admission.observe_batch(
                self, items, until=until, policy=policy
            )

    def flush(self) -> None:
        """Drain the router's lateness buffer (end of feed / shutdown)."""
        with self._shipping():
            self._admission.flush(self)

    def merge_into(self, key: str, other: DecayingSum) -> None:
        """Fold another summary into ``key``'s engine on its owning shard."""
        if other.time > self._time:
            self.advance_to(other.time)
        elif other.time < self._time:
            other.advance_to(self._time)
        key = str(key)
        self._note_write(key)
        self._request(
            self._shard_of(key),
            {"op": "merge_key", "key": key, "engine": engine_to_dict(other)},
            journal=True,
        )
        self._maybe_checkpoint()

    def _adv(self, when: int) -> None:
        """Every shard advances at every global tick: same sweep stops,
        same engine advance pattern, as the single-process store."""
        when = int(when)
        self._set_time(when)
        for prog in self._progs:
            prog.append(["adv", when])

    def _fold(self, key: str, values: list[float]) -> None:
        key = str(key)
        self._progs[self._shard_of(key)].append(["fold", key, values])
        self._note_write(key)

    def _late(self, key: str, when: int, value: float) -> None:
        key = str(key)
        self._progs[self._shard_of(key)].append(
            ["late", key, int(when), float(value)]
        )
        self._note_write(key)

    @contextlib.contextmanager
    def _shipping(self) -> Iterator[None]:
        """Send what admission compiled -- also when it raised midway."""
        try:
            yield
        finally:
            progs, self._progs = self._progs, [[] for _ in range(self.workers)]
            frames: list[bytes | None] = [
                encode_frame({"op": "ingest", "prog": prog}) if prog else None
                for prog in progs
            ]
            if any(frame is not None for frame in frames):
                self._broadcast(frames, journal=True)

    # --------------------------------------------------------------- reads

    def query(self, key: str, *, create: bool = False) -> Estimate:
        """Certified estimate for ``key`` from its owning shard.

        Memoized at the router on ``(clock, key write generation)`` --
        every write to the key routes through this front, so a repeated
        poll of a quiet key answers without any IPC at all.
        """
        key = str(key)
        gen = self._write_gen.get(key, 0)
        if self._memoize:
            hit = self._query_cache.get(key)
            if hit is not None and hit[0] == self._time and hit[1] == gen:
                return hit[2]
        reply = self._request(
            self._shard_of(key),
            {"op": "query", "key": key},
            journal=False,
        )
        if not reply.get("found"):
            if not create:
                raise KeyError(key)
            # Creation is a write: journal it (replay must recreate the
            # engine) and bump the generation so stale hits die.
            self._note_write(key)
            gen = self._write_gen[key]
            reply = self._request(
                self._shard_of(key),
                {"op": "query", "key": key, "create": True},
                journal=True,
            )
            self._maybe_checkpoint()
        value, lower, upper = reply["estimate"]
        estimate = Estimate(float(value), float(lower), float(upper))
        if self._memoize:
            self._query_cache[key] = (self._time, gen, estimate)
        return estimate

    def query_total(self) -> Estimate:
        """Whole-store decayed sum: fan out, fold via engine ``merge``.

        Each worker merges clones of its own per-key engines and ships
        one summary; the router merges the per-worker summaries in shard
        order.  Families without a structural merge combine certified
        brackets instead (:func:`widen_merged_estimate`).
        """
        engines: list[DecayingSum] = []
        estimates: list[Estimate] = []
        structural = True
        for reply in self._fan_out("fold"):
            if not reply["keys"]:
                continue
            value, lower, upper = reply["estimate"]
            estimates.append(Estimate(float(value), float(lower), float(upper)))
            if reply["engine"] is None:
                structural = False
            elif structural:
                engines.append(engine_from_dict(reply["engine"]))
        if not estimates:
            return Estimate.exact(0.0)
        if structural and engines:
            merged = engines[0]
            try:
                for engine in engines[1:]:
                    merged.merge(engine)
                return merged.query()
            except NotApplicableError:
                # Per-worker summaries merged but the cross-worker fold
                # is not structural; fall through to bracket widening.
                structural = False
        estimate = estimates[0]
        for other in estimates[1:]:
            estimate = widen_merged_estimate(estimate, other)
        return estimate

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
        """The ledger block: router ledgers + worker ledgers, folded.

        Each ``per_worker`` entry also carries the router's revival state
        for that worker: ``journal_frames``/``journal_bytes`` since the
        last checkpoint and the checkpoint's ``checkpoint_bytes``.
        """
        replies = self._fan_out("stats")
        per_worker: list[dict[str, Any]] = []
        keys = 0
        evicted_keys = self.eviction_base.evicted_keys
        evicted_weight = self.eviction_base.evicted_weight
        for shard, reply in zip(self._shards, replies):
            stats = reply["stats"]
            stats["journal_frames"] = len(shard.journal)
            stats["journal_bytes"] = shard.journal_bytes
            stats["checkpoint_bytes"] = len(shard.checkpoint or b"")
            per_worker.append(stats)
            keys += int(stats["keys"])
            evicted_keys += int(stats["evicted_keys"])
            evicted_weight += float(stats["evicted_weight"])
        return {
            "time": self._time,
            "keys": keys,
            "evicted_keys": evicted_keys,
            "evicted_weight": evicted_weight,
            **self._admission.stats(),
            "workers": self.workers,
            "revived_workers": self.revived_workers,
            "per_worker": per_worker,
        }

    def storage_report(self) -> StorageReport:
        """Aggregate worker storage, fleet-style (shared bits once)."""
        total = StorageReport(engine=f"sharded-service[{self.workers}]")
        shared_once = 0
        for reply in self._fan_out("storage"):
            rep = reply["report"]
            shared_once = max(shared_once, int(rep["shared_bits"]))
            total.buckets += int(rep["buckets"])
            total.timestamp_bits += int(rep["timestamp_bits"])
            total.count_bits += int(rep["count_bits"])
            total.register_bits += int(rep["register_bits"])
        total.shared_bits = shared_once
        return total

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
        self._note_write(key)
        self._maybe_checkpoint()
        return engine_from_dict(reply["engine"])

    def key_storage_report(self, key: str) -> StorageReport:
        """Storage report for one key's engine on its owning shard."""
        key = str(key)
        reply = self._request(
            self._shard_of(key),
            {"op": "storage", "key": key},
            journal=True,  # may create the engine, like ServiceStore.engine
        )
        self._note_write(key)
        self._maybe_checkpoint()
        rep = reply["report"]
        report = StorageReport(engine=str(rep["engine"]))
        report.buckets = int(rep["buckets"])
        report.timestamp_bits = int(rep["timestamp_bits"])
        report.count_bits = int(rep["count_bits"])
        report.register_bits = int(rep["register_bits"])
        report.shared_bits = int(rep["shared_bits"])
        return report

    # ------------------------------------------------------------ snapshot

    def to_dict(self) -> dict[str, Any]:
        """Global snapshot: router state + one snapshot per shard.

        Fetching the shard snapshots doubles as a checkpoint: each
        worker's journal is truncated against the state just captured,
        whose reply bytes become the new checkpoint as received.
        """
        replies = self._broadcast_raw(
            [_frame("snapshot")] * self.workers, journal=False
        )
        shards: list[dict[str, Any]] = []
        for reply in replies:
            assert reply is not None
            shards.append(_checked(decode_frame(reply))["data"])
        for shard, reply in zip(self._shards, replies):
            assert reply is not None
            shard.reset(reply)
        return {
            "version": _SNAPSHOT_VERSION,
            "kind": _SNAPSHOT_KIND,
            "decay": decay_to_dict(self._decay),
            "epsilon": self.epsilon,
            "ttl": self.ttl,
            "workers": self.workers,
            "time": self._time,
            "eviction_base": {
                "evicted_keys": self.eviction_base.evicted_keys,
                "evicted_weight": self.eviction_base.evicted_weight,
            },
            **self._admission.to_dict(),
            "shards": shards,
        }

    def restore(self, data: dict[str, Any]) -> None:
        """Replace all state from a snapshot -- sharded *or* single-store.

        A ``sharded-service-store`` snapshot is flattened and re-split by
        the current worker count (so a 4-worker snapshot restores into a
        2-worker front), and a plain ``service-store`` snapshot is split
        by CRC-32 straight onto the shards: scale-out of a single-process
        deployment is one snapshot/restore pair.
        """
        kind = data.get("kind")
        if kind == _SNAPSHOT_KIND:
            plain = flatten_snapshot(data)
        elif kind == "service-store":
            plain = data
        else:
            raise InvalidParameterError(
                f"not a service snapshot: kind={kind!r}"
            )
        if data.get("version") != _SNAPSHOT_VERSION:
            raise InvalidParameterError(
                f"unsupported snapshot version {data.get('version')!r}"
            )
        # Everything the router adopts is parsed before any worker sees
        # the snapshot, so a malformed router block changes nothing (the
        # admission block by a trial parse; the live stage adopts it last).
        time = int(plain["time"])
        Admission.from_dict(plain)
        ledger = plain["eviction"]
        eviction_base = EvictionLedger(
            ledger["evicted_keys"], ledger["evicted_weight"]
        )
        # Restore frames are not journaled: once every worker accepts,
        # each frame *is* that worker's new checkpoint and the journals
        # restart empty.
        frames = [
            encode_frame({"op": "restore", "data": worker_dict})
            for worker_dict in self._split_snapshot(plain)
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
        self._set_time(time)  # also drops the read memo: all state changed
        self._admission.restore(plain)
        self.eviction_base = eviction_base

    @classmethod
    def from_dict(
        cls,
        data: dict[str, Any],
        *,
        workers: int | None = None,
        checkpoint_every: int = 512,
        context: Any | None = None,
    ) -> "ShardedServiceStore":
        """Spawn a fresh worker pool and restore ``data`` into it."""
        if data.get("kind") not in (_SNAPSHOT_KIND, "service-store"):
            raise InvalidParameterError(
                f"not a service snapshot: kind={data.get('kind')!r}"
            )
        count = int(data.get("workers", 2)) if workers is None else workers
        store = cls(
            decay_from_dict(dict(data["decay"])),
            float(data["epsilon"]),
            workers=count,
            ttl=data.get("ttl"),
            checkpoint_every=checkpoint_every,
            context=context,
        )
        store.restore(data)
        return store

    def _split_snapshot(
        self, plain: Mapping[str, Any]
    ) -> list[dict[str, Any]]:
        """Partition a plain service-store snapshot onto the shards."""
        buckets: list[dict[str, Any]] = [{} for _ in self._shards]
        for key, state in plain["keys"].items():
            buckets[self._shard_of(str(key))][key] = state
        worker_dicts: list[dict[str, Any]] = []
        for bucket in buckets:
            worker_dicts.append(
                {
                    "version": 1,
                    "kind": "service-store",
                    "decay": plain["decay"],
                    "epsilon": plain["epsilon"],
                    "ttl": plain["ttl"],
                    "time": int(plain["time"]),
                    "eviction": {"evicted_keys": 0, "evicted_weight": 0.0},
                    **Admission().to_dict(),
                    "keys": bucket,
                }
            )
        return worker_dicts


def flatten_snapshot(data: Mapping[str, Any]) -> dict[str, Any]:
    """Fold a sharded snapshot into one plain ``service-store`` snapshot.

    The inverse of the restore-time split: per-shard key maps are
    disjoint by construction, shard eviction ledgers sum onto the
    router's inherited base, and router-owned state (clock, watermark,
    lateness buffer, policy, ingest ledgers) carries over verbatim.  The
    result restores into a single-process :class:`ServiceStore` -- the
    scale-*in* direction of the deployment story.
    """
    if data.get("kind") != _SNAPSHOT_KIND:
        raise InvalidParameterError(
            f"not a sharded-service-store snapshot: kind={data.get('kind')!r}"
        )
    keys: dict[str, Any] = {}
    base = data.get("eviction_base", {"evicted_keys": 0, "evicted_weight": 0.0})
    evicted_keys = int(base["evicted_keys"])
    evicted_weight = float(base["evicted_weight"])
    for shard in data["shards"]:
        for key, state in shard["keys"].items():
            if key in keys:
                raise InvalidParameterError(
                    f"key {key!r} appears on two shards; snapshot corrupt"
                )
            keys[key] = state
        ledger = shard["eviction"]
        evicted_keys += int(ledger["evicted_keys"])
        evicted_weight += float(ledger["evicted_weight"])
    return {
        "version": 1,
        "kind": "service-store",
        "decay": data["decay"],
        "epsilon": data["epsilon"],
        "ttl": data["ttl"],
        "time": int(data["time"]),
        "eviction": {
            "evicted_keys": evicted_keys,
            "evicted_weight": evicted_weight,
        },
        **Admission.from_dict(data).to_dict(),
        "keys": keys,
    }
