"""repro.service: the serving layer over the keyed engine store.

A long-running deployment (paper section 1.1: millions of per-customer
summaries under heavy traffic) needs three things the batch library does
not provide: a keyed store with TTL eviction
(:class:`~repro.service.store.ServiceStore`), an ingestion daemon with
bounded-queue backpressure (:class:`~repro.service.daemon.IngestDaemon`),
and a query surface (:class:`~repro.service.api.ServiceServer`, HTTP +
WebSocket over stdlib asyncio).  :class:`~repro.service.loadgen.
ServiceHarness` wires all three for tests and benchmarks.

The conformance adapter (:mod:`repro.service.adapter`) is imported
explicitly, not re-exported here: it pulls in :mod:`repro.conformance`,
which a serving process has no reason to load.

Scale-out past one core is :mod:`repro.service.sharded`:
:class:`~repro.service.sharded.ShardedServiceStore` shards per-key state
by CRC-32 onto worker processes and folds cross-shard answers via engine
``merge``.  Both stores subclass one front,
:class:`~repro.service.store.StoreFront`, the seam the daemon and server
program against: it admits every write through one
:class:`~repro.core.timeorder.Admission` stage (out-of-order policy,
lateness heap, ingest ledgers), and both fronts write and restore one
``service-store`` snapshot format, so either restores the other's.

Concurrency note: asyncio is confined to ``daemon.py``/``api.py``/
``loadgen.py``, and multiprocessing to ``sharded.py``/``ipc.py``, under
lintkit RK008's service exemption; ``store.py`` and ``adapter.py`` are
plain synchronous code a single consumer task owns --
that single-writer discipline is what makes service answers
bit-identical to directly-driven engines (see
``tests/service/test_differential.py`` and
``test_sharded_differential.py``).
"""

from repro.service.api import ServiceServer, WSClient, http_request
from repro.service.daemon import BackpressurePolicy, IngestDaemon
from repro.service.loadgen import ServiceHarness, keyed_trace
from repro.service.sharded import ShardedServiceStore
from repro.service.store import EvictionLedger, ServiceStore, StoreFront

__all__ = [
    "ServiceStore",
    "ShardedServiceStore",
    "StoreFront",
    "EvictionLedger",
    "IngestDaemon",
    "BackpressurePolicy",
    "ServiceServer",
    "http_request",
    "WSClient",
    "ServiceHarness",
    "keyed_trace",
]
