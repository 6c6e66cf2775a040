"""Server-side spans, recorded from wrappers around each layer's public seam.

Nothing here reaches into the program: every wrapper sits on a seam the
service already exposes.

* :class:`TracedStore` proxies the ``StoreFront`` the daemon and the HTTP
  server are given; every store call becomes one span.
* :class:`TracedEngine` is what the store's ``engine_factory=`` builds; it
  times ``advance``/``add``/``add_batch``/``add_at``/``query``.
* :class:`TracedDaemon` subclasses ``IngestDaemon`` and times the public
  ``submit_many`` and ``drain``.
* :class:`TracedContext` is the sharded front's ``context=``; its
  ``Pipe()`` hands the router a :class:`TracedConnection` that counts
  bytes and times ``send_bytes``/``recv_bytes``.

Store, daemon and request spans are kept one by one.  Engine and pipe
calls are too frequent for that: they are summed per operation into the
enclosing store span (count, nanoseconds, items or bytes) and into a
per-(operation, store call) log2 histogram.  Times come from
``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux), the clock the
generator process reads too, so server spans line up with the client
requests that caused them.
"""

from __future__ import annotations

import contextlib
from time import perf_counter_ns
from typing import Any, Iterable, Iterator

from repro.service.daemon import IngestDaemon

__all__ = [
    "Tracer",
    "TracedStore",
    "TracedEngine",
    "TracedDaemon",
    "TracedContext",
    "TracedConnection",
    "calibrate",
    "merge_calibrations",
]


OPS = ("advance", "add", "add_batch", "add_at", "query", "send_bytes",
       "recv_bytes")


def _fresh_calls() -> dict[str, list[Any]]:
    """Per-op ``[count, ns, items or bytes, log2(ns) histogram]``."""
    return {op: [0, 0, 0, [0] * 64] for op in OPS}


class Tracer:
    """In-memory span store for one server process.

    ``calls`` holds the child-call accumulators of the store span that is
    open right now; the wrappers add to it directly, which keeps the
    per-call cost of tracing as small as it can be in Python.
    """

    def __init__(self) -> None:
        #: ``[layer, name, start_ns, end_ns, attrs]`` in completion order.
        self.spans: list[list[Any]] = []
        #: ``"op|store call" -> [count, ns, items, log2 histogram]``.
        self.histograms: dict[str, list[Any]] = {}
        self.calls = _fresh_calls()

    def record(
        self, layer: str, name: str, start: int, end: int, **attrs: Any
    ) -> None:
        self.spans.append([layer, name, start, end, attrs])

    @contextlib.contextmanager
    def store_span(self, layer: str, name: str) -> Iterator[dict[str, Any]]:
        """Time one store call; child calls inside it are summed into it."""
        outer = self.calls
        self.calls = _fresh_calls()
        attrs: dict[str, Any] = {}
        start = perf_counter_ns()
        try:
            yield attrs
        finally:
            end = perf_counter_ns()
            children, self.calls = self.calls, outer
            attrs["calls"] = {}
            for op, (count, ns, items, hist) in children.items():
                if not count:
                    continue
                attrs["calls"][op] = [count, ns, items]
                total = self.histograms.setdefault(
                    f"{op}|{name}", [0, 0, 0, [0] * 64]
                )
                total[0] += count
                total[1] += ns
                total[2] += items
                total[3] = [a + b for a, b in zip(total[3], hist)]
            self.spans.append([layer, name, start, end, attrs])

    def to_dict(self, calibration: dict[str, float]) -> dict[str, Any]:
        return {
            "calibration": calibration,
            "spans": self.spans,
            "histograms": {
                key: {
                    "count": count,
                    "ns": ns,
                    "items": items,
                    "log2_ns": {
                        str(bucket): hits
                        for bucket, hits in enumerate(hist) if hits
                    },
                }
                for key, (count, ns, items, hist) in self.histograms.items()
            },
        }


class TracedEngine:
    """An engine whose writes, clock moves and reads are timed."""

    __slots__ = ("_engine", "_tracer")

    def __init__(self, engine: Any, tracer: Tracer) -> None:
        self._engine = engine
        self._tracer = tracer

    def __getattr__(self, name: str) -> Any:
        return getattr(self._engine, name)

    def advance(self, steps: int = 1) -> None:
        start = perf_counter_ns()
        self._engine.advance(steps)
        ns = perf_counter_ns() - start
        acc = self._tracer.calls["advance"]
        acc[0] += 1
        acc[1] += ns
        acc[3][ns.bit_length()] += 1

    def add(self, value: float = 1.0) -> None:
        start = perf_counter_ns()
        self._engine.add(value)
        ns = perf_counter_ns() - start
        acc = self._tracer.calls["add"]
        acc[0] += 1
        acc[1] += ns
        acc[2] += 1
        acc[3][ns.bit_length()] += 1

    def add_batch(self, values: Any) -> None:
        start = perf_counter_ns()
        self._engine.add_batch(values)
        ns = perf_counter_ns() - start
        acc = self._tracer.calls["add_batch"]
        acc[0] += 1
        acc[1] += ns
        acc[2] += len(values)
        acc[3][ns.bit_length()] += 1

    def add_at(self, when: int, value: float = 1.0) -> None:
        start = perf_counter_ns()
        self._engine.add_at(when, value)
        ns = perf_counter_ns() - start
        acc = self._tracer.calls["add_at"]
        acc[0] += 1
        acc[1] += ns
        acc[2] += 1
        acc[3][ns.bit_length()] += 1

    def query(self) -> Any:
        start = perf_counter_ns()
        estimate = self._engine.query()
        ns = perf_counter_ns() - start
        acc = self._tracer.calls["query"]
        acc[0] += 1
        acc[1] += ns
        acc[3][ns.bit_length()] += 1
        return estimate


class TracedStore:
    """A store front whose every method call is one span."""

    def __init__(self, store: Any, tracer: Tracer, layer: str) -> None:
        self._store = store
        self._tracer = tracer
        self._layer = layer

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._store, name)
        if not callable(attr):
            return attr
        store, tracer, layer = self._store, self._tracer, self._layer

        def timed(*args: Any, **kwargs: Any) -> Any:
            before = store.time
            with tracer.store_span(layer, name) as attrs:
                result = attr(*args, **kwargs)
            attrs["t0"] = before
            attrs["t1"] = store.time
            if name == "observe_batch":
                attrs["items"] = len(args[0])
            return result

        return timed


class TracedDaemon(IngestDaemon):
    """The ingestion daemon with its public produce/drain calls timed."""

    def __init__(self, store: Any, *, tracer: Tracer, **kwargs: Any) -> None:
        super().__init__(store, **kwargs)
        self.tracer = tracer

    async def submit_many(self, items: Iterable[Any]) -> int:
        start = perf_counter_ns()
        admitted = await super().submit_many(items)
        self.tracer.record(
            "service.daemon", "submit_many", start, perf_counter_ns(),
            items=admitted,
        )
        return admitted

    async def drain(self) -> None:
        start = perf_counter_ns()
        await super().drain()
        self.tracer.record(
            "service.daemon", "drain", start, perf_counter_ns()
        )


class TracedConnection:
    """The router's end of a worker pipe, with frame I/O timed."""

    def __init__(self, conn: Any, tracer: Tracer) -> None:
        self._conn = conn
        self._tracer = tracer

    def __getattr__(self, name: str) -> Any:
        return getattr(self._conn, name)

    def _note(self, op: str, ns: int, size: int) -> None:
        acc = self._tracer.calls[op]
        acc[0] += 1
        acc[1] += ns
        acc[2] += size
        acc[3][ns.bit_length()] += 1

    def send_bytes(self, buf: bytes, offset: int = 0, size: Any = None) -> None:
        start = perf_counter_ns()
        self._conn.send_bytes(buf, offset, size)
        self._note("send_bytes", perf_counter_ns() - start, len(buf))

    def recv_bytes(self, maxlength: Any = None) -> bytes:
        start = perf_counter_ns()
        data: bytes = self._conn.recv_bytes(maxlength)
        self._note("recv_bytes", perf_counter_ns() - start, len(data))
        return data


class TracedContext:
    """A multiprocessing context whose pipes hand out traced router ends."""

    def __init__(self, context: Any, tracer: Tracer) -> None:
        self._context = context
        self._tracer = tracer

    def __getattr__(self, name: str) -> Any:
        return getattr(self._context, name)

    def Pipe(self, duplex: bool = True) -> tuple[Any, Any]:  # noqa: N802
        router_end, worker_end = self._context.Pipe(duplex)
        return TracedConnection(router_end, self._tracer), worker_end


class _NullEngine:
    __slots__ = ()

    def advance(self, steps: int = 1) -> None:
        pass


def _sweep_ns(engines: list[Any], sweeps: int) -> float:
    """Per-call time of the store's lock-step loop over ``engines``."""
    start = perf_counter_ns()
    for _ in range(sweeps):
        for engine in engines:
            engine.advance(1)
    return (perf_counter_ns() - start) / (sweeps * len(engines))


def calibrate(
    engines: int = 4096, sweeps: int = 2, rounds: int = 9
) -> dict[str, float]:
    """Cost of the timing wrapper itself, measured on no-op engines.

    Loops over many engines the way ``ServiceStore.advance`` does, so the
    figure includes the cache misses of touching one wrapper per key.
    ``inner_ns`` is what a child span reads for a call that does nothing
    (the part of the wrapper cost inside child times); ``total_ns`` is
    what the wrapper adds to the caller's wall time.  The analysis takes
    the first off each child time and the rest off the enclosing span.
    Each figure is the minimum over short rounds: on a shared machine a
    slow moment only ever inflates a round, and an inflated calibration
    would take more off the store's self time than the wrapper cost.
    """
    tracer = Tracer()
    bare = [_NullEngine() for _ in range(engines)]
    traced = [TracedEngine(engine, tracer) for engine in bare]
    plain: list[float] = []
    wrapped: list[float] = []
    inner: list[float] = []
    for _ in range(rounds):
        with tracer.store_span("calibration", "calibration"):
            plain.append(_sweep_ns(bare, sweeps))
            wrapped.append(_sweep_ns(traced, sweeps))
            count, ns = tracer.calls["advance"][:2]
        inner.append(ns / count)
    return {
        "inner_ns": min(inner),
        "total_ns": max(min(wrapped) - min(plain), min(inner)),
    }


def merge_calibrations(*runs: dict[str, float]) -> dict[str, float]:
    """The lower figure of several calibrations, field by field."""
    return {key: min(run[key] for run in runs) for key in runs[0]}
