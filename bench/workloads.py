"""Workloads and their seeded inputs.

A workload fixes the engine (through its decay), the store front, the key
population and the shape of the trace.  Everything the server receives is
a pure function of ``(workload, seed, seconds)``: :func:`build_inputs`
draws the trace, encodes every HTTP request, and returns before any timer
starts.

Run phases and how the inputs map onto them:

* warm-up: the first ``WARMUP_SHARE`` of the phase-A item count (plus, on
  ``create_all_keys`` workloads, one item for every key at tick 0), sent
  as ``INGEST_CHUNK``-item ``POST /ingest`` bodies, untimed;
* phase A (closed loop): ``phase_a_rate * PHASE_A_SHARE * seconds`` items
  in ``INGEST_CHUNK``-item bodies, one request at a time.  The rate is the
  one measured at the commit that defined the benchmark, so phase A lasts
  ``PHASE_A_SHARE * seconds`` there and its item count never changes;
* phase B (open loop, the rest of ``seconds``): one ``write_items``-item
  body every ``WRITE_EVERY_S`` and one read every ``READ_EVERY_S``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.decay import (
    DecayFunction,
    ExponentialDecay,
    PolynomialDecay,
    SlidingWindowDecay,
)
from repro.core.forward import ForwardDecay

__all__ = [
    "Workload",
    "WORKLOADS",
    "Inputs",
    "build_inputs",
    "request_bytes",
    "SENTINEL_KEY",
]

PHASE_A_SHARE = 0.375
WARMUP_SHARE = 0.1
INGEST_CHUNK = 1000
WRITE_EVERY_S = 0.006
READ_EVERY_S = 0.003
SENTINEL_KEY = "__sentinel__"


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one engine and store front."""

    name: str
    decay: Callable[[], DecayFunction]
    keys: int
    items_per_tick: float
    int_weights: bool = False
    late_share: float = 0.0
    max_late: int = 0
    uniform_keys: bool = False
    ttl: int | None = None
    #: ``OutOfOrderPolicy.buffered(max_lateness)`` on the store when set.
    max_lateness: int | None = None
    #: ``ShardedServiceStore(workers=...)`` when set, else ``ServiceStore``.
    workers: int | None = None
    create_all_keys: bool = False
    #: Phase-A items/s measured at the defining commit (sizes phase A).
    phase_a_rate: float = 1.0
    #: Items per phase-B write; the offered rate is this / WRITE_EVERY_S.
    #: Sized so that writes keep the server about a fifth busy and reads
    #: about another tenth: at half the phase-A rate the reads queued
    #: behind writes and latency grew for as long as phase B lasted.
    write_items: int = 1
    #: Every Nth phase-B read is ``GET /keys`` (0: never).
    keys_read_every: int = 0
    #: The engine module the decay routes to, for the report.
    engine: str = ""


#: Why each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ewma-hot64",
            decay=lambda: ExponentialDecay(0.05),
            keys=64,
            items_per_tick=16,
            phase_a_rate=200_000,
            write_items=250,
            engine="repro.core.ewma",
        ),
        Workload(
            name="eh-idle4k",
            decay=lambda: SlidingWindowDecay(512),
            keys=4096,
            items_per_tick=2,
            int_weights=True,
            ttl=4096,
            create_all_keys=True,
            phase_a_rate=3_600,
            write_items=3,
            engine="repro.histograms.eh",
        ),
        Workload(
            name="wbmh-late64",
            decay=lambda: PolynomialDecay(1.0),
            keys=64,
            items_per_tick=2,
            int_weights=True,
            late_share=0.2,
            max_late=6,
            uniform_keys=True,
            max_lateness=8,
            phase_a_rate=2_100,
            write_items=2,
            engine="repro.histograms.wbmh",
        ),
        Workload(
            name="fwd-sharded1k",
            decay=lambda: ForwardDecay("exp", 0.05),
            keys=1024,
            items_per_tick=3,
            late_share=0.2,
            max_late=20,
            workers=2,
            phase_a_rate=36_000,
            write_items=30,
            keys_read_every=50,
            engine="repro.core.forward",
        ),
    )
}


@dataclass
class Inputs:
    """A workload's whole input, generated and encoded up front.

    ``keys``/``times``/``values`` hold every item in arrival order;
    ``warmup``, ``phase_a`` and ``phase_b`` hold the encoded requests
    (one raw HTTP request per entry) and their item counts.  ``reads``
    are the phase-B read requests with their kind (``"query"`` or
    ``"keys"``).
    """

    workload: Workload
    keys: np.ndarray
    times: np.ndarray
    values: np.ndarray
    warmup: list[bytes]
    warmup_items: list[int]
    phase_a: list[bytes]
    phase_a_items: list[int]
    phase_b: list[bytes]
    phase_b_items: list[int]
    reads: list[tuple[str, bytes]]
    sentinel: bytes | None


def request_bytes(method: str, path: str, body: bytes = b"") -> bytes:
    """One complete HTTP/1.1 request (the server closes after answering)."""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: bench\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


def _encode(
    keys: list[int], times: list[int], values: list[float], ints: bool
) -> bytes:
    if ints:
        rows = [
            f'{{"key":"k{k}","time":{t},"value":{int(v)}}}'
            for k, t, v in zip(keys, times, values)
        ]
    else:
        rows = [
            f'{{"key":"k{k}","time":{t},"value":{v!r}}}'
            for k, t, v in zip(keys, times, values)
        ]
    body = ('{"items":[' + ",".join(rows) + "]}").encode("ascii")
    return request_bytes("POST", "/ingest", body)


def _chunks(
    keys: np.ndarray,
    times: np.ndarray,
    values: np.ndarray,
    lo: int,
    hi: int,
    size: int,
    ints: bool,
) -> tuple[list[bytes], list[int]]:
    requests: list[bytes] = []
    counts: list[int] = []
    for start in range(lo, hi, size):
        stop = min(start + size, hi)
        requests.append(
            _encode(
                keys[start:stop].tolist(),
                times[start:stop].tolist(),
                values[start:stop].tolist(),
                ints,
            )
        )
        counts.append(stop - start)
    return requests, counts


def _draw_keys(
    rng: np.random.Generator, n_keys: int, count: int, uniform: bool
) -> np.ndarray:
    if uniform:
        return rng.integers(0, n_keys, size=count)
    cdf = np.cumsum(1.0 / np.arange(1, n_keys + 1))
    keys = np.searchsorted(cdf, rng.random(count) * cdf[-1], side="right")
    return np.minimum(keys, n_keys - 1)


def phase_sizes(
    workload: Workload, seconds: float
) -> tuple[int, int, int, int]:
    """(warm-up items, phase-A items, phase-B writes, phase-B reads)."""
    phase_a = max(1, round(workload.phase_a_rate * PHASE_A_SHARE * seconds))
    warmup = max(1, round(phase_a * WARMUP_SHARE))
    phase_b_s = seconds * (1.0 - PHASE_A_SHARE)
    writes = max(1, round(phase_b_s / WRITE_EVERY_S))
    reads = max(1, round(phase_b_s / READ_EVERY_S))
    return warmup, phase_a, writes, reads


def build_inputs(workload: Workload, seed: int, seconds: float) -> Inputs:
    """Draw and encode every request of one run (deterministic in seed)."""
    rng = np.random.default_rng([seed, sum(workload.name.encode())])
    warmup, phase_a, writes, reads = phase_sizes(workload, seconds)
    regular = warmup + phase_a + writes * workload.write_items
    keys = _draw_keys(rng, workload.keys, regular, workload.uniform_keys)
    if workload.int_weights:
        values = rng.integers(1, 5, size=regular).astype(np.float64)
    else:
        values = np.round(rng.uniform(0.0, 4.0, size=regular), 3)
    step = rng.random(regular) < 1.0 / workload.items_per_tick
    times = np.concatenate(([0], np.cumsum(step[:-1]))).astype(np.int64) + 1
    if workload.late_share:
        late = rng.random(regular) < workload.late_share
        lag = rng.integers(1, workload.max_late + 1, size=regular)
        times = np.where(late, np.maximum(times - lag, 0), times)
    if workload.create_all_keys:
        burst = np.arange(workload.keys)
        keys = np.concatenate((burst, keys))
        times = np.concatenate((np.zeros(workload.keys, np.int64), times))
        values = np.concatenate((np.ones(workload.keys), values))
        warmup += workload.keys
    ints = workload.int_weights
    end_a = warmup + phase_a
    warm_reqs, warm_counts = _chunks(
        keys, times, values, 0, warmup, INGEST_CHUNK, ints
    )
    a_reqs, a_counts = _chunks(
        keys, times, values, warmup, end_a, INGEST_CHUNK, ints
    )
    b_reqs, b_counts = _chunks(
        keys, times, values, end_a, len(times), workload.write_items, ints
    )
    read_keys = _draw_keys(rng, workload.keys, reads, workload.uniform_keys)
    read_reqs: list[tuple[str, bytes]] = []
    for index, key in enumerate(read_keys.tolist()):
        every = workload.keys_read_every
        if every and index % every == every - 1:
            read_reqs.append(("keys", request_bytes("GET", "/keys")))
        else:
            read_reqs.append(
                ("query", request_bytes("GET", f"/query/k{key}"))
            )
    sentinel = None
    if workload.max_lateness is not None:
        when = int(times.max()) + workload.max_lateness
        body = (
            f'{{"items":[{{"key":"{SENTINEL_KEY}","time":{when},"value":1}}]}}'
        ).encode("ascii")
        sentinel = request_bytes("POST", "/ingest", body)
    return Inputs(
        workload=workload,
        keys=keys,
        times=times,
        values=values,
        warmup=warm_reqs,
        warmup_items=warm_counts,
        phase_a=a_reqs,
        phase_a_items=a_counts,
        phase_b=b_reqs,
        phase_b_items=b_counts,
        reads=read_reqs,
        sentinel=sentinel,
    )
