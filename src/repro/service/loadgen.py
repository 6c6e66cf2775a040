"""Load generation for the service layer: workload + one-call harness.

Two jobs, both deliberately free of wall-clock reads (RK001 -- timing
is the benchmarks' business: ``bench/`` end to end, and the multi-core
ratio in ``benchmarks/test_bench_sharded_scaling.py``):

* :func:`keyed_trace` builds the deterministic keyed workload (seeded
  RNG only, RK002): ``n_items`` observations spread over ``n_keys``
  streams with a skewed key distribution (a few hot keys, a long cold
  tail -- the shape TTL eviction and per-key engines actually face).
* :class:`ServiceHarness` wires the full stack -- store, daemon, HTTP/WS
  server, optional TCP feed -- behind async ``start``/``stop``, so
  tests and the benchmark stand up a live service in two lines and tear
  it down without leaking tasks.
"""

from __future__ import annotations

import random
from typing import Any

from repro.core.decay import DecayFunction
from repro.core.errors import InvalidParameterError
from repro.core.timeorder import OutOfOrderPolicy
from repro.service.api import ServiceServer
from repro.service.daemon import BackpressurePolicy, IngestDaemon
from repro.service.store import ServiceStore, StoreFront
from repro.streams.io import KeyedItem

__all__ = ["keyed_trace", "ServiceHarness"]


def keyed_trace(
    n_items: int,
    n_keys: int,
    *,
    seed: int = 7,
    mean_gap: float = 0.5,
    max_value: float = 4.0,
) -> list[KeyedItem]:
    """A time-sorted keyed workload with a skewed key distribution.

    Key popularity follows a Zipf-ish 1/rank law, so the first keys are
    hot and the tail is sparse; arrival times advance by a geometric gap
    (several same-tick items when ``mean_gap`` < 1).  Deterministic in
    ``seed``.
    """
    if n_items < 1:
        raise InvalidParameterError(f"n_items must be >= 1, got {n_items}")
    if n_keys < 1:
        raise InvalidParameterError(f"n_keys must be >= 1, got {n_keys}")
    if mean_gap < 0:
        raise InvalidParameterError(f"mean_gap must be >= 0, got {mean_gap}")
    rng = random.Random(seed)
    weights = [1.0 / rank for rank in range(1, n_keys + 1)]
    keys = [f"k{index:04d}" for index in range(n_keys)]
    now = 0
    items: list[KeyedItem] = []
    for _ in range(n_items):
        key = rng.choices(keys, weights=weights)[0]
        value = round(rng.uniform(0.0, max_value), 3)
        items.append(KeyedItem(key, now, value))
        if mean_gap and rng.random() < mean_gap:
            now += 1 + int(rng.expovariate(1.0))
    return items


class ServiceHarness:
    """The whole service stack behind async ``start``/``stop``.

    ``await harness.start()`` spawns the ingestion daemon, binds the
    HTTP/WS query server (``harness.host``/``harness.port``), and --
    with ``serve_feed`` -- the JSON-lines TCP feed
    (``feed_host``/``feed_port``).  ``await harness.stop()`` drains the
    queue, flushes the store's lateness buffer, cancels the consumer
    task, and closes the store (joining the worker pool when a sharded
    front is behind the seam), leaving nothing running on the loop.

    ``store=`` accepts any :class:`~repro.service.store.StoreFront` --
    the seam the sharded deployment rides in on; ``workers=`` is the
    shorthand that builds a
    :class:`~repro.service.sharded.ShardedServiceStore` with that many
    worker processes behind the same HTTP/WS surface.
    """

    def __init__(
        self,
        decay: DecayFunction,
        epsilon: float = 0.1,
        *,
        ttl: int | None = None,
        policy: OutOfOrderPolicy | None = None,
        backpressure: BackpressurePolicy | None = None,
        maxsize: int = 4096,
        batch_max: int = 512,
        serve_feed: bool = False,
        store: StoreFront | None = None,
        workers: int | None = None,
    ) -> None:
        if store is not None and workers is not None:
            raise InvalidParameterError(
                "pass either store or workers, not both"
            )
        if store is not None:
            self.store: StoreFront = store
        elif workers is not None:
            from repro.service.sharded import ShardedServiceStore

            self.store = ShardedServiceStore(
                decay, epsilon, workers=workers, ttl=ttl, policy=policy
            )
        else:
            self.store = ServiceStore(decay, epsilon, ttl=ttl, policy=policy)
        self.daemon = IngestDaemon(
            self.store,
            maxsize=maxsize,
            batch_max=batch_max,
            backpressure=backpressure,
            policy=policy,
        )
        self.server = ServiceServer(self.store, self.daemon)
        self._serve_feed = serve_feed
        self.host = ""
        self.port = 0
        self.feed_host = ""
        self.feed_port = 0
        self._started = False

    async def start(self) -> "ServiceHarness":
        if self._started:
            return self
        await self.daemon.start()
        self.host, self.port = await self.server.start()
        if self._serve_feed:
            self.feed_host, self.feed_port = await self.daemon.serve_tcp()
        self._started = True
        return self

    async def stop(self, *, drain: bool = True) -> None:
        if not self._started:
            return
        await self.server.stop()
        await self.daemon.stop(drain=drain)
        self.store.close()
        self._started = False

    async def __aenter__(self) -> "ServiceHarness":
        return await self.start()

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()
