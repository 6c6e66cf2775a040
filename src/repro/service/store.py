"""Keyed store of decaying-sum engines: the service layer's state.

A :class:`ServiceStore` is what the ingestion daemon folds into and the
query API reads from: one engine per key
(:func:`~repro.core.interfaces.keyed_engine_factory`: the
:func:`~repro.core.interfaces.make_decaying_sum` engine, with WBMH region
schedules shared across keys) over a shared clock, exactly like
:class:`~repro.fleet.StreamFleet`, plus the three things a long-running
service needs that a batch fleet does not:

* **TTL eviction driven by the engine clock.**  A key idle for ``ttl``
  ticks is dropped on the next clock advance, and every eviction is
  recorded on the store's :class:`EvictionLedger` (count + decayed weight
  at eviction time) so capacity decisions stay auditable.  No wall-clock
  is read anywhere (lintkit RK001): "idle" means stream time, which is
  the only notion of time the paper's aggregates have.
* **An admission stage.**  Every write passes through the store's
  :class:`~repro.service.admission.Admission`: the out-of-order policy,
  the persistent lateness heap of the ``buffer`` kind (an item arriving
  one batch late still lands in the right key's engine; :meth:`flush`
  drains the heap when the feed ends) and the ingest ledgers.  The store
  applies what admission emits in-process; the sharded front runs the
  very same stage.
* **Ledgers for everything lossy.**  Dropped late items live on the
  policy (as everywhere in the library), evictions on the store, and
  both are surfaced verbatim by ``GET /keys`` (:mod:`repro.service.api`).

This module is deliberately asyncio-free: the store is a plain
synchronous structure a single consumer task owns, which is what keeps
service answers bit-identical to a directly-driven engine (the
differential contract ``tests/service/test_differential.py`` enforces).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Protocol, runtime_checkable

from repro.core.batching import KeyedTimedValue
from repro.core.decay import DecayFunction
from repro.core.errors import (
    InvalidParameterError,
    NotApplicableError,
    TimeOrderError,
)
from repro.core.estimate import Estimate
from repro.core.interfaces import DecayingSum, keyed_engine_factory
from repro.core.timeorder import OutOfOrderPolicy
from repro.histograms.domination import widen_merged_estimate
from repro.serialize import (
    decay_from_dict,
    decay_to_dict,
    engine_from_dict,
    engine_to_dict,
)
from repro.service.admission import Admission
from repro.storage.model import StorageReport

__all__ = ["EvictionLedger", "ServiceStore", "StoreFront"]

_SNAPSHOT_VERSION = 1


@runtime_checkable
class StoreFront(Protocol):
    """The store seam the daemon, API server, and harness program against.

    Anything with this surface can sit behind
    :class:`~repro.service.daemon.IngestDaemon` and
    :class:`~repro.service.api.ServiceServer`: the single-process
    :class:`ServiceStore` and the multi-process
    :class:`~repro.service.sharded.ShardedServiceStore` both satisfy it,
    which is what makes the sharded front a drop-in behind the existing
    HTTP/WS API.  Purely structural -- neither store subclasses anything.
    """

    @property
    def time(self) -> int: ...

    @property
    def decay(self) -> DecayFunction: ...

    @property
    def native_out_of_order(self) -> bool: ...

    def observe(
        self, key: str, value: float = 1.0, *, when: int | None = None
    ) -> None: ...

    def observe_values(self, key: str, values: Iterable[float]) -> None: ...

    def observe_batch(
        self,
        items: Iterable[KeyedTimedValue],
        *,
        until: int | None = None,
        policy: OutOfOrderPolicy | None = None,
    ) -> None: ...

    def advance(self, steps: int = 1) -> None: ...

    def advance_to(self, when: int) -> None: ...

    def flush(self) -> None: ...

    def query(self, key: str, *, create: bool = False) -> Estimate: ...

    def query_total(self) -> Estimate: ...

    def keys(self) -> list[str]: ...

    def key_stats(self) -> dict[str, dict[str, Any]]: ...

    def stats(self) -> dict[str, Any]: ...

    def storage_report(self) -> StorageReport: ...

    def key_storage_report(self, key: str) -> StorageReport: ...

    def merge_into(self, key: str, other: DecayingSum) -> None: ...

    def export_engine(self, key: str) -> DecayingSum: ...

    def to_dict(self) -> dict[str, Any]: ...

    def restore(self, data: dict[str, Any]) -> None: ...

    def close(self) -> None: ...


class EvictionLedger:
    """What TTL eviction removed: key count and decayed weight."""

    __slots__ = ("evicted_keys", "evicted_weight")

    def __init__(self, evicted_keys: int = 0, evicted_weight: float = 0.0):
        self.evicted_keys = int(evicted_keys)
        self.evicted_weight = float(evicted_weight)

    def note(self, weight: float) -> None:
        self.evicted_keys += 1
        self.evicted_weight += weight

    def __repr__(self) -> str:
        return (
            f"EvictionLedger(evicted_keys={self.evicted_keys}, "
            f"evicted_weight={self.evicted_weight})"
        )


class ServiceStore:
    """Per-key decaying sums behind the ingestion daemon and query API.

    ``ttl`` is measured on the shared engine clock: a key whose last
    observation is ``ttl`` or more ticks old is evicted on the next
    clock advance.  ``policy`` is the store-level
    :class:`~repro.core.timeorder.OutOfOrderPolicy`; the ``buffer`` kind
    must be installed here (not per call) because its watermark heap is
    store state that survives across ingest batches.
    """

    def __init__(
        self,
        decay: DecayFunction,
        epsilon: float = 0.1,
        *,
        ttl: int | None = None,
        policy: OutOfOrderPolicy | None = None,
        engine_factory: Callable[[], DecayingSum] | None = None,
        memoize: bool = True,
    ) -> None:
        if not 0 < epsilon < 1:
            raise InvalidParameterError(
                f"epsilon must be in (0, 1), got {epsilon}"
            )
        if ttl is not None and ttl < 1:
            raise InvalidParameterError(f"ttl must be >= 1, got {ttl}")
        self._decay = decay
        self.epsilon = float(epsilon)
        self.ttl = None if ttl is None else int(ttl)
        self._custom_factory = engine_factory is not None
        self._factory = (
            engine_factory
            if engine_factory is not None
            else keyed_engine_factory(decay, self.epsilon)
        )
        #: Probed once: the factory's engines accept late items natively
        #: (the forward-decay family), so no policy ever has to intervene.
        self._native = bool(
            getattr(self._factory(), "supports_out_of_order", False)
        )
        self._admission = Admission(policy)
        self._engines: dict[str, DecayingSum] = {}
        self._last_seen: dict[str, int] = {}
        self._expiry: list[tuple[int, int, str]] = []
        self._expiry_seq = 0
        self._time = 0
        self.eviction = EvictionLedger()
        # Read-path memo: key -> (clock, write generation, Estimate).  A
        # hit requires both the store clock and the key's write
        # generation to match, so any fold, merge, or clock move makes
        # the cached answer unreachable (repeated polls of a quiet key
        # skip ``query()`` re-evaluation entirely).
        self._memoize = bool(memoize)
        self._write_gen: dict[str, int] = {}
        self._query_cache: dict[str, tuple[int, int, Estimate]] = {}

    # ------------------------------------------------------------- clock

    @property
    def time(self) -> int:
        return self._time

    @property
    def decay(self) -> DecayFunction:
        return self._decay

    @property
    def native_out_of_order(self) -> bool:
        """Whether this store's engines take late items via ``add_at``."""
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
        """Advance the shared clock; TTL eviction runs on every advance.

        This is how the store applies admission's ``adv`` operation.
        """
        if steps < 0:
            raise InvalidParameterError(f"steps must be >= 0, got {steps}")
        if steps == 0:
            return
        self._time += steps
        for engine in self._engines.values():
            engine.advance(steps)
        self._sweep()

    def advance_to(self, when: int) -> None:
        self._admission.advance_to(self, when)

    # ------------------------------------------------------------ writes
    #
    # Every write goes through the admission stage, which calls back into
    # _adv/_fold/_late below (repro.service.admission).

    def observe(
        self, key: str, value: float = 1.0, *, when: int | None = None
    ) -> None:
        """Record one item on ``key``'s stream, optionally at ``when``.

        On-time items advance the whole store to ``when`` (lock-step keeps
        per-key structures mergeable); late items follow the store policy,
        or go straight to ``add_at`` when the engines are natively
        order-insensitive.
        """
        self._admission.observe(self, key, value, when)

    def observe_values(self, key: str, values: Iterable[float]) -> None:
        """Fold several same-time values into ``key`` at the current clock."""
        self._admission.observe_values(self, key, values)

    def observe_batch(
        self,
        items: Iterable[KeyedTimedValue],
        *,
        until: int | None = None,
        policy: OutOfOrderPolicy | None = None,
    ) -> None:
        """Record a time-sorted keyed trace through the batch path.

        Same grouping as :meth:`repro.fleet.StreamFleet.observe_batch`:
        the clock advances once per distinct arrival time and each key's
        same-time values fold in a single ``add_batch`` -- bit-identical
        to the equivalent :meth:`observe` calls.  Late items follow
        :meth:`repro.service.admission.Admission.observe_batch`.
        ``until`` advances the clock past the last item.
        """
        self._admission.observe_batch(self, items, until=until, policy=policy)

    def flush(self) -> None:
        """Drain the lateness buffer (end of feed / daemon shutdown)."""
        self._admission.flush(self)

    def _adv(self, when: int) -> None:
        self.advance(when - self._time)

    def _fold(self, key: str, values: list[float]) -> None:
        self._engine_for(key).add_batch(values)
        self._touch(key)

    def _late(self, key: str, when: int, value: float) -> None:
        self._engine_for(key).add_at(when, value)  # type: ignore[attr-defined]
        self._touch(key)

    def _engine_for(self, key: str) -> DecayingSum:
        engine = self._engines.get(key)
        if engine is None:
            engine = self._factory()
            if self._time:
                engine.advance(self._time)
            self._engines[key] = engine
        return engine

    # ----------------------------------------------------------- eviction

    def _touch(self, key: str) -> None:
        self._last_seen[key] = self._time
        self._write_gen[key] = self._write_gen.get(key, 0) + 1
        if self.ttl is not None:
            self._expiry_seq += 1
            heapq.heappush(
                self._expiry, (self._time + self.ttl, self._expiry_seq, key)
            )

    def _sweep(self) -> None:
        """Evict keys idle for >= ttl ticks (lazy-invalidated expiry heap)."""
        if self.ttl is None:
            return
        heap = self._expiry
        while heap and heap[0][0] <= self._time:
            expiry, _, key = heapq.heappop(heap)
            last = self._last_seen.get(key)
            if last is None or key not in self._engines:
                continue
            if last + self.ttl != expiry:
                continue  # superseded by a fresher observation
            engine = self._engines.pop(key)
            del self._last_seen[key]
            self._query_cache.pop(key, None)
            self._write_gen.pop(key, None)
            self.eviction.note(engine.query().value)

    # ------------------------------------------------------------- reads

    def __len__(self) -> int:
        return len(self._engines)

    def __contains__(self, key: str) -> bool:
        return key in self._engines

    def keys(self) -> list[str]:
        return sorted(self._engines)

    def engine(self, key: str) -> DecayingSum:
        """The key's live engine, created at the store clock on first use.

        Mutating the engine behind the store's back bypasses the read
        memo -- use :meth:`observe`/:meth:`observe_values`/
        :meth:`merge_into` for writes, or treat the handle as read-only.
        """
        created = key not in self._engines
        engine = self._engine_for(key)
        if created:
            self._touch(key)
        return engine

    def query(self, key: str, *, create: bool = False) -> Estimate:
        """Certified estimate for ``key``; ``KeyError`` if absent/evicted.

        With ``create`` an unknown key gets a fresh engine at the store
        clock and answers its (exact zero) empty estimate -- the adapter
        path, where a query must mean "this key's stream so far" even
        before the first arrival.  Answers are memoized on
        ``(store clock, key write generation)`` unless the store was
        built with ``memoize=False``.
        """
        engine = self._engines.get(key)
        if engine is None:
            if not create:
                raise KeyError(key)
            engine = self.engine(key)
        if not self._memoize:
            return engine.query()
        gen = self._write_gen.get(key, 0)
        hit = self._query_cache.get(key)
        if hit is not None and hit[0] == self._time and hit[1] == gen:
            return hit[2]
        estimate = engine.query()
        self._query_cache[key] = (self._time, gen, estimate)
        return estimate

    def query_total(self) -> Estimate:
        """Certified estimate of the decayed sum over *every* live key.

        Folds per-key summaries with the PR-5 merge algebra: clones every
        engine through the checkpoint path and merges them in sorted key
        order, so the answer carries the composed error bound of a
        K-way merge.  Engine families without a structural merge fall
        back to :func:`widen_merged_estimate` over per-key answers
        (sound, just wider); an empty store answers an exact zero.
        """
        merged = None
        try:
            merged = self.fold_engine()
        except NotApplicableError:
            merged = None
        if merged is not None:
            return merged.query()
        if not self._engines:
            return Estimate.exact(0.0)
        keys = sorted(self._engines)
        estimate = self._engines[keys[0]].query()
        for key in keys[1:]:
            estimate = widen_merged_estimate(
                estimate, self._engines[key].query()
            )
        return estimate

    def fold_engine(self) -> DecayingSum | None:
        """One engine summarising all keys (clone + merge in key order).

        ``None`` for an empty store; raises
        :class:`~repro.core.errors.NotApplicableError` when the engine
        family has no structural merge.  The clones go through the
        serialize round-trip (bit-identical by the checkpoint contract),
        so the live per-key engines are never mutated.
        """
        merged: DecayingSum | None = None
        for key in sorted(self._engines):
            clone = engine_from_dict(engine_to_dict(self._engines[key]))
            if merged is None:
                merged = clone
            else:
                merged.merge(clone)
        return merged

    def merge_into(self, key: str, other: DecayingSum) -> None:
        """Fold another summary of the same decay into ``key``'s engine.

        The write-path twin of reading through :meth:`engine`: clocks
        align by advancing the younger side (store engines move in
        lock-step with the store clock, so the store advances as a
        whole), and the key's write generation is bumped so the read
        memo cannot serve a pre-merge answer.
        """
        if other.time > self._time:
            self.advance_to(other.time)
        elif other.time < self._time:
            other.advance_to(self._time)
        self.engine(key).merge(other)
        self._touch(key)

    def export_engine(self, key: str) -> DecayingSum:
        """A checkpoint-faithful clone of ``key``'s engine.

        Clones through the serialize round-trip (bit-identical by the
        checkpoint contract), so callers can merge or inspect the result
        without mutating store state behind the memo's back.  The key's
        engine is created at the store clock on first use, like
        :meth:`engine`.
        """
        return engine_from_dict(engine_to_dict(self.engine(key)))

    def key_storage_report(self, key: str) -> StorageReport:
        """Storage report for one key's engine (created on first use)."""
        return self.engine(key).storage_report()

    def close(self) -> None:
        """Release resources.  A no-op here; part of the store seam so
        callers can tear down any store front (the sharded front joins
        its worker processes) without type-switching."""

    def stats(self) -> dict[str, Any]:
        """The ``GET /keys`` ledger block: everything lossy, accounted."""
        return {
            "time": self._time,
            "keys": len(self._engines),
            "evicted_keys": self.eviction.evicted_keys,
            "evicted_weight": self.eviction.evicted_weight,
            **self._admission.stats(),
        }

    def key_stats(self) -> dict[str, dict[str, Any]]:
        """Per-key staleness view (``GET /keys``)."""
        return {
            key: {
                "last_seen": self._last_seen.get(key, 0),
                "idle": self._time - self._last_seen.get(key, 0),
            }
            for key in sorted(self._engines)
        }

    def storage_report(self) -> StorageReport:
        """Aggregate engine storage (shared bits counted once, fleet-style)."""
        total = StorageReport(engine=f"service[{len(self._engines)}]")
        shared_once = 0
        for engine in self._engines.values():
            rep = engine.storage_report()
            shared_once = max(shared_once, rep.shared_bits)
            total.buckets += rep.buckets
            total.timestamp_bits += rep.timestamp_bits
            total.count_bits += rep.count_bits
            total.register_bits += rep.register_bits
        total.shared_bits = shared_once
        return total

    # ---------------------------------------------------------- snapshot

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe snapshot: config, clock, ledgers, per-key engines.

        Engines serialize through :func:`repro.serialize.engine_to_dict`;
        stores built on a custom ``engine_factory`` cannot be rebuilt from
        configuration and refuse to snapshot.
        """
        if self._custom_factory:
            raise InvalidParameterError(
                "stores built on a custom engine_factory are not "
                "checkpointable; snapshot the engines yourself"
            )
        return {
            "version": _SNAPSHOT_VERSION,
            "kind": "service-store",
            "decay": decay_to_dict(self._decay),
            "epsilon": self.epsilon,
            "ttl": self.ttl,
            "time": self._time,
            "eviction": {
                "evicted_keys": self.eviction.evicted_keys,
                "evicted_weight": self.eviction.evicted_weight,
            },
            **self._admission.to_dict(),
            "keys": {
                key: {
                    "engine": engine_to_dict(engine),
                    "last_seen": self._last_seen.get(key, 0),
                }
                for key, engine in self._engines.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ServiceStore":
        """Rebuild a store that continues bit-identically to the original."""
        if data.get("version") != _SNAPSHOT_VERSION:
            raise InvalidParameterError(
                f"unsupported snapshot version {data.get('version')!r}"
            )
        if data.get("kind") != "service-store":
            raise InvalidParameterError(
                f"not a service-store snapshot: kind={data.get('kind')!r}"
            )
        store = cls(
            decay_from_dict(data["decay"]),
            float(data["epsilon"]),
            ttl=data["ttl"],
        )
        store._admission.restore(data)
        store._time = int(data["time"])
        ledger = data["eviction"]
        store.eviction = EvictionLedger(
            ledger["evicted_keys"], ledger["evicted_weight"]
        )
        for key, state in data["keys"].items():
            if state.get("sharded"):
                raise InvalidParameterError(
                    f"snapshot key {key!r} holds per-key engine replicas, "
                    "which stores no longer build"
                )
            engine = engine_from_dict(state["engine"])
            if engine.time != store._time:
                raise TimeOrderError(
                    f"snapshot engine for {key!r} at clock {engine.time}, "
                    f"store at {store._time}"
                )
            store._engines[key] = engine
            store._last_seen[key] = int(state["last_seen"])
            if store.ttl is not None:
                store._expiry_seq += 1
                heapq.heappush(
                    store._expiry,
                    (
                        store._last_seen[key] + store.ttl,
                        store._expiry_seq,
                        key,
                    ),
                )
        return store

    def restore(self, data: dict[str, Any]) -> None:
        """Replace this store's state in place (the ``POST /restore`` path).

        In-place so the daemon and API server keep their references; the
        configuration (decay, ttl, policy) comes from the snapshot.  The
        live policy object is kept and loaded from the snapshot
        (:meth:`~repro.service.admission.Admission.restore`), so a daemon
        passing it per batch keeps ingesting.
        """
        fresh = ServiceStore.from_dict(data)
        fresh._memoize = self._memoize
        self._admission.restore(data)
        fresh._admission = self._admission
        vars(self).update(vars(fresh))
