"""SCALING -- the sharded service front against the single-process store.

The repo's one multi-core gate.  The same keyed workload is served twice
in one run, through the live daemon and HTTP stack: once by the
single-process ``ServiceStore`` and once by a 4-worker
``ShardedServiceStore``.  The 4-worker front must ingest at least 2.5x
as fast, with query p99 at most 1.5x the single store's.  Speedup needs
cores, so the gate skips on machines with fewer than 4 cpus.  The
mechanisms it rests on -- one ingest frame per shard per write call, and
every shard's frame sent before any reply is read -- are exact counts in
``tests/service/test_sharded_store.py``.
"""

import asyncio
import os
import time

import pytest

from repro.core.decay import ExponentialDecay
from repro.service.api import http_request
from repro.service.loadgen import ServiceHarness, keyed_trace

MIN_CPUS = 4
WORKERS = 4
MIN_SPEEDUP = 2.5
MAX_P99_RATIO = 1.5

pytestmark = pytest.mark.skipif(
    (os.cpu_count() or 1) < MIN_CPUS,
    reason=f"scaling needs >= {MIN_CPUS} cpus",
)


def _p99(samples):
    """Linear interpolation between the bracketing order statistics."""
    ordered = sorted(samples)
    position = 0.99 * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


async def _serve(items, n_queries, workers):
    """(ingest items/s, query p99 s) of one live stack over ``items``."""
    harness = ServiceHarness(ExponentialDecay(0.05), 0.1, workers=workers)
    await harness.start()
    try:
        t0 = time.perf_counter()
        await harness.daemon.submit_many(items)
        await harness.daemon.drain()
        ingest_s = time.perf_counter() - t0
        # Fresh one-shot connections against the hottest keys, so every
        # latency includes the connect.
        hot = harness.store.keys()[:8]
        latencies = []
        for index in range(n_queries):
            t0 = time.perf_counter()
            status, body = await http_request(
                harness.host, harness.port, "GET",
                f"/query/{hot[index % len(hot)]}",
            )
            latencies.append(time.perf_counter() - t0)
            assert status == 200, body
    finally:
        await harness.stop()
    return len(items) / ingest_s, _p99(latencies)


def test_four_workers_scale_ingest_without_slowing_reads(benchmark):
    items = keyed_trace(20_000, 64, seed=7)

    def measure():
        return [
            asyncio.run(_serve(items, 400, workers))
            for workers in (None, WORKERS)
        ]

    (single_ips, single_p99), (wide_ips, wide_p99) = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    speedup = wide_ips / single_ips
    assert speedup >= MIN_SPEEDUP, (
        f"{WORKERS}-worker ingest {wide_ips:,.0f} items/s is {speedup:.2f}x "
        f"single-process {single_ips:,.0f}"
    )
    assert wide_p99 <= MAX_P99_RATIO * single_p99, (
        f"{WORKERS}-worker query p99 {wide_p99 * 1e3:.3f} ms vs "
        f"single-process {single_p99 * 1e3:.3f} ms"
    )
