"""The asyncio ingestion daemon: one consumer task folding a keyed feed.

The concurrency model is deliberately minimal -- a single
:class:`asyncio.Queue` with one consumer task that drains it in batches
and folds each batch into the :class:`~repro.service.store.ServiceStore`
via ``observe_batch``.  One consumer means the store never sees
concurrent mutation, which is what keeps service answers bit-identical
to a directly-driven engine (the differential contract of
``tests/service/``); throughput comes from batching, not parallel folds
(multi-core ingestion is the sharded front's job,
:class:`~repro.service.sharded.ShardedServiceStore`).

Backpressure on the bounded queue mirrors the shape of
:class:`~repro.core.timeorder.OutOfOrderPolicy`: three named kinds with
a ledger, so nothing is ever discarded silently.

* ``block`` (default) -- producers await until the queue has room; the
  lossless choice for in-process feeds.
* ``drop`` -- a full queue rejects the *new* item, counting it.
* ``shed`` -- a full queue evicts the *oldest* queued item to admit the
  new one (freshest-data-wins, the load-shedding choice for monitoring
  feeds), counting the shed item.

The TCP line protocol is one JSON object per line
(``{"key": ..., "time": ..., "value": ...}``); malformed lines are
counted, never fatal.  A long-running daemon survives a bad producer.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from typing import Any, Iterable

from repro.core.errors import InvalidParameterError, ReproError
from repro.core.timeorder import OutOfOrderPolicy
from repro.service.store import StoreFront
from repro.streams.io import KeyedItem

__all__ = ["BackpressurePolicy", "IngestDaemon", "close_served"]

_KINDS = ("block", "drop", "shed")

#: A server's open connections: each one's writer and handler task.
Serving = dict[asyncio.StreamWriter, "asyncio.Task[Any] | None"]


async def close_served(serving: Serving) -> None:
    """Close every connection in ``serving``; await their handlers, which
    finish what they had read once their reader sees end-of-stream."""
    for writer in list(serving):
        writer.close()
    me = asyncio.current_task()
    await asyncio.gather(
        *[task for task in serving.values() if task not in (None, me)],
        return_exceptions=True,
    )


class BackpressurePolicy:
    """What a full ingestion queue does with a new item, plus the ledger."""

    __slots__ = ("kind", "dropped_count", "dropped_weight")

    def __init__(self, kind: str = "block") -> None:
        if kind not in _KINDS:
            raise InvalidParameterError(
                f"backpressure kind must be one of {_KINDS}, got {kind!r}"
            )
        self.kind = kind
        self.dropped_count = 0
        self.dropped_weight = 0.0

    @classmethod
    def blocking(cls) -> "BackpressurePolicy":
        """Producers wait for room (lossless; the default)."""
        return cls("block")

    @classmethod
    def dropping(cls) -> "BackpressurePolicy":
        """A full queue rejects the new item, counted on the ledger."""
        return cls("drop")

    @classmethod
    def shedding(cls) -> "BackpressurePolicy":
        """A full queue evicts the oldest queued item (freshest wins)."""
        return cls("shed")

    def note_dropped(self, value: float) -> None:
        self.dropped_count += 1
        self.dropped_weight += value

    def __repr__(self) -> str:
        return f"BackpressurePolicy({self.kind!r})"


class IngestDaemon:
    """Single-consumer ingestion loop over a bounded asyncio queue.

    ``policy`` is the :class:`~repro.core.timeorder.OutOfOrderPolicy`
    handed to every ``observe_batch`` fold (late items *across* batches);
    ``backpressure`` governs the queue itself.  Within one drained batch
    items fold in time order (a stable sort, so a sorted feed is
    untouched and equal-time arrival order is preserved); the queue's
    arrival interleave across producers carries no meaningful order.
    """

    def __init__(
        self,
        store: StoreFront,
        *,
        maxsize: int = 4096,
        batch_max: int = 512,
        backpressure: BackpressurePolicy | None = None,
        policy: OutOfOrderPolicy | None = None,
    ) -> None:
        if maxsize < 1:
            raise InvalidParameterError(f"maxsize must be >= 1, got {maxsize}")
        if batch_max < 1:
            raise InvalidParameterError(
                f"batch_max must be >= 1, got {batch_max}"
            )
        self.store = store
        self.batch_max = int(batch_max)
        self.backpressure = (
            backpressure if backpressure is not None else BackpressurePolicy()
        )
        self.policy = policy
        self._queue: asyncio.Queue[KeyedItem] = asyncio.Queue(maxsize)
        self._task: asyncio.Task[None] | None = None
        self._servers: list[asyncio.AbstractServer] = []
        self._feeds: Serving = {}
        self.batches_folded = 0
        self.items_folded = 0
        self.bad_lines = 0
        self.fold_errors = 0
        self.last_fold_error: str | None = None

    # ---------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Spawn the consumer task (idempotent)."""
        if self._task is None or self._task.done():
            self._task = asyncio.create_task(
                self._run(), name="repro-service-ingest"
            )

    async def stop(self, *, drain: bool = True) -> None:
        """Stop cleanly: close feeds, optionally drain, cancel the consumer.

        The TCP listeners close first, then every open feed connection;
        each feed handler submits the lines it had already read before it
        ends.  With ``drain`` the queue then empties through the store and
        the store's lateness buffer flushes, so no accepted item is lost
        on shutdown; without it, or without a running consumer, the
        queue's items are discarded onto the backpressure ledger.
        """
        for server in self._servers:
            server.close()
        if self._task is None or self._task.done():
            # Nothing makes room in the queue: discard onto the ledger so
            # a feed blocked on a full queue can finish.
            self._task = asyncio.create_task(self._discard())
        await close_served(self._feeds)
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        if drain and self._task is not None and not self._task.done():
            await self._queue.join()
        while not self._queue.empty():
            item = self._queue.get_nowait()
            self.backpressure.note_dropped(item.value)
            self._queue.task_done()
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None
        if drain:
            self.store.flush()

    async def drain(self) -> None:
        """Wait until everything submitted so far has folded into the store."""
        await self._queue.join()

    async def _discard(self) -> None:
        while True:
            item = await self._queue.get()
            self.backpressure.note_dropped(item.value)
            self._queue.task_done()

    # ------------------------------------------------------------ produce

    async def submit(self, item: KeyedItem) -> bool:
        """Enqueue one item under the backpressure policy.

        Returns ``False`` when the policy discarded the item (``drop`` on
        a full queue); shed items are counted on the ledger but the new
        item itself is always admitted.
        """
        kind = self.backpressure.kind
        if kind == "block":
            await self._queue.put(item)
            return True
        if kind == "drop":
            try:
                self._queue.put_nowait(item)
            except asyncio.QueueFull:
                self.backpressure.note_dropped(item.value)
                return False
            return True
        while True:
            try:
                self._queue.put_nowait(item)
                return True
            except asyncio.QueueFull:
                try:
                    oldest = self._queue.get_nowait()
                except asyncio.QueueEmpty:  # racing consumer freed a slot
                    continue
                self.backpressure.note_dropped(oldest.value)
                self._queue.task_done()

    async def submit_many(self, items: Iterable[KeyedItem]) -> int:
        """Enqueue a batch; returns how many items were admitted."""
        admitted = 0
        for item in items:
            if await self.submit(item):
                admitted += 1
        return admitted

    # ------------------------------------------------------------ consume

    async def _run(self) -> None:
        queue = self._queue
        while True:
            batch = [await queue.get()]
            while len(batch) < self.batch_max:
                try:
                    batch.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            batch.sort(key=lambda item: item.time)
            try:
                self.store.observe_batch(batch, policy=self.policy)
                self.batches_folded += 1
                self.items_folded += len(batch)
            except ReproError as exc:
                # A bad batch (e.g. late items under a raise policy) must
                # not kill the consumer; the feed keeps flowing and the
                # error is surfaced through stats().
                self.fold_errors += 1
                self.last_fold_error = repr(exc)
            finally:
                for _ in batch:
                    queue.task_done()

    # ----------------------------------------------------------- tcp feed

    async def serve_tcp(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Accept the JSON-lines feed on a TCP socket; returns (host, port)."""
        server = await asyncio.start_server(self._handle_feed, host, port)
        self._servers.append(server)
        sock_host, sock_port = server.sockets[0].getsockname()[:2]
        return str(sock_host), int(sock_port)

    async def _handle_feed(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._feeds[writer] = asyncio.current_task()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    item = KeyedItem(
                        obj["key"], obj["time"], obj.get("value", 1.0)
                    )
                except (ValueError, KeyError, TypeError, InvalidParameterError):
                    self.bad_lines += 1
                    continue
                await self.submit(item)
        finally:
            writer.close()
            # A peer resetting mid-close already ended the feed; nothing
            # to account for beyond the close itself.
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()
            del self._feeds[writer]

    # -------------------------------------------------------------- stats

    def stats(self) -> dict[str, Any]:
        return {
            "queue_depth": self._queue.qsize(),
            "queue_maxsize": self._queue.maxsize,
            "running": self._task is not None and not self._task.done(),
            "backpressure": self.backpressure.kind,
            "shed_count": self.backpressure.dropped_count,
            "shed_weight": self.backpressure.dropped_weight,
            "batches_folded": self.batches_folded,
            "items_folded": self.items_folded,
            "bad_lines": self.bad_lines,
            "fold_errors": self.fold_errors,
            "last_fold_error": self.last_fold_error,
        }
