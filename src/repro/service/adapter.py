"""Conformance adapter: one engine cell served through a ServiceStore.

:class:`ServiceBackedEngine` satisfies the full
:class:`~repro.core.interfaces.DecayingSum` protocol by driving a
single-key :class:`~repro.service.store.ServiceStore` -- the same code
path the daemon and HTTP API use -- so the conformance laws (CL001
oracle-bracket, CL002 batch-split, CL006 serialize-roundtrip, CL009
permutation-invariance) can run *through the service layer* and any
divergence from the directly-driven engine is a law violation, not a
service quirk.

:func:`service_spec` lifts an existing
:class:`~repro.conformance.engines.EngineSpec` into its service-backed
twin with :func:`dataclasses.replace`, keeping the *derived* capability
flags of the raw engine (the adapter must not get to re-derive them:
the whole point is that the service answers for the engine's contract,
not its own).

This module is asyncio-free on purpose: conformance laws are pure
(lintkit RK007/RK010) and the store is a synchronous structure; the
daemon's event loop is exercised separately by the differential harness
in ``tests/service/``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Iterable

from repro.conformance.engines import EngineSpec
from repro.core.decay import DecayFunction
from repro.core.errors import InvalidParameterError
from repro.core.batching import TimedValue
from repro.core.estimate import Estimate
from repro.core.interfaces import DecayingSum
from repro.core.timeorder import OutOfOrderPolicy
from repro.service.sharded import ShardedServiceStore
from repro.service.store import ServiceStore, StoreFront
from repro.storage.model import StorageReport
from repro.streams.io import KeyedItem

__all__ = [
    "ServiceBackedEngine",
    "service_spec",
    "service_specs",
    "SERVICE_LAW_IDS",
]

#: The laws the service execution mode runs by default: the ones whose
#: contract the store must preserve verbatim.  Shift/scale/monotone/merge
#: laws probe decay mathematics the store merely forwards, and CL007's
#: rejection contract is owned by the store's policy plumbing (covered by
#: ``tests/service/``), so re-running them through the adapter only
#: re-tests the underlying engine.
SERVICE_LAW_IDS = ("CL001", "CL002", "CL006", "CL009")

_SNAPSHOT_KIND = "service-key"
_SNAPSHOT_VERSION = 1


class ServiceBackedEngine:
    """A ``DecayingSum`` whose state lives in a one-key store front.

    ``workers`` routes the cell through a
    :class:`~repro.service.sharded.ShardedServiceStore` with that many
    worker processes -- the multi-process serving path -- instead of an
    in-process :class:`~repro.service.store.ServiceStore`; any
    :class:`~repro.service.store.StoreFront` can also be passed in
    directly via ``store``.  Both fronts snapshot in one format, so the
    cell's snapshot records the worker count beside the store's.
    """

    def __init__(
        self,
        decay: DecayFunction,
        epsilon: float = 0.1,
        *,
        key: str = "cell",
        store: StoreFront | None = None,
        workers: int | None = None,
    ) -> None:
        if store is not None and workers is not None:
            raise InvalidParameterError(
                "pass either store or workers, not both"
            )
        if store is not None:
            self._store: StoreFront = store
        elif workers is not None:
            self._store = ShardedServiceStore(decay, epsilon, workers=workers)
        else:
            self._store = ServiceStore(decay, epsilon)
        self._key = key

    # ------------------------------------------------------------ protocol

    @property
    def time(self) -> int:
        return self._store.time

    @property
    def decay(self) -> DecayFunction:
        return self._store.decay

    @property
    def key(self) -> str:
        return self._key

    @property
    def store(self) -> StoreFront:
        return self._store

    @property
    def supports_out_of_order(self) -> bool:
        """Late items are welcome iff the store's engines take ``add_at``."""
        return self._store.native_out_of_order

    def add(self, value: float = 1.0) -> None:
        self._store.observe(self._key, value)

    def add_at(self, when: int, value: float = 1.0) -> None:
        self._store.observe(self._key, value, when=when)

    def add_batch(self, values: Iterable[float]) -> None:
        self._store.observe_values(self._key, values)

    def advance(self, steps: int = 1) -> None:
        self._store.advance(steps)

    def advance_to(self, when: int) -> None:
        self._store.advance_to(when)

    def ingest(
        self,
        items: Iterable[TimedValue],
        *,
        until: int | None = None,
        policy: OutOfOrderPolicy | None = None,
    ) -> None:
        """Batch replay through the store's keyed ``observe_batch`` path."""
        self._store.observe_batch(
            (KeyedItem(self._key, item.time, item.value) for item in items),
            until=until,
            policy=policy,
        )

    def query(self) -> Estimate:
        """The store's (memoized) read path, creating the key on first use."""
        return self._store.query(self._key, create=True)

    def storage_report(self) -> StorageReport:
        return self._store.key_storage_report(self._key)

    def merge(self, other: "ServiceBackedEngine | DecayingSum") -> None:
        """Fold another summary of the same decay into this one.

        Clocks align by advancing the *younger* side's store forward
        (store engines move in lock-step with their store clock, so the
        inner engine must never be advanced behind the store's back);
        the fold itself goes through the store's ``merge_into`` write
        path, so the read memo and ledgers stay coherent on any front.
        """
        other_engine: DecayingSum
        if isinstance(other, ServiceBackedEngine):
            if other._store.time < self._store.time:
                other._store.advance_to(self._store.time)
            other_engine = other._store.export_engine(other._key)
        else:
            other_engine = other
            if other_engine.time < self._store.time:
                other_engine.advance_to(self._store.time)
        self._store.merge_into(self._key, other_engine)

    def close(self) -> None:
        """Tear down the backing store (join a sharded front's workers)."""
        self._store.close()

    # ------------------------------------------------------------ snapshot

    def snapshot_state(self) -> dict[str, Any]:
        """The :func:`repro.serialize.engine_to_dict` hook for this class:
        the store's snapshot and, for a sharded front, its worker count
        (``None`` for a single store)."""
        return {
            "version": _SNAPSHOT_VERSION,
            "engine": _SNAPSHOT_KIND,
            "key": self._key,
            "workers": getattr(self._store, "workers", None),
            "store": self._store.to_dict(),
        }

    @classmethod
    def from_snapshot(cls, data: dict[str, Any]) -> "ServiceBackedEngine":
        """Rebuild from :meth:`snapshot_state` (the ``service-key`` kind):
        a cell served from a sharded front round-trips onto a fresh pool
        of as many workers."""
        if data.get("engine") != _SNAPSHOT_KIND:
            raise InvalidParameterError(
                f"not a service-key snapshot: {data.get('engine')!r}"
            )
        workers = data.get("workers")
        store: StoreFront = (
            ServiceStore.from_dict(data["store"])
            if workers is None
            else ShardedServiceStore.from_dict(
                data["store"], workers=int(workers)
            )
        )
        return cls(store.decay, store.epsilon, key=str(data["key"]), store=store)

    def __repr__(self) -> str:
        return (
            f"ServiceBackedEngine(key={self._key!r}, "
            f"time={self._store.time}, decay={self._store.decay!r})"
        )


def service_spec(spec: EngineSpec, *, workers: int | None = None) -> EngineSpec:
    """``spec``'s service-backed twin, capability flags preserved.

    ``dataclasses.replace`` keeps the flags derived from the *raw*
    factory engine -- the adapter answers for the engine's contract --
    and swaps only the builder.  The adapter serializes through its
    ``snapshot_state`` hook, so ``serializable`` survives too.  With
    ``workers`` the cell is served through a sharded worker pool
    (``svc3w-`` naming for three workers), so every conformance law runs
    end to end across the IPC plane.
    """
    decay = spec.decay
    epsilon = spec.epsilon
    prefix = "svc" if workers is None else f"svc{workers}w"
    return replace(
        spec,
        name=f"{prefix}-{spec.name}",
        factory=lambda: ServiceBackedEngine(decay, epsilon, workers=workers),
    )


def service_specs(
    specs: dict[str, EngineSpec] | None = None,
    *,
    workers: int | None = None,
) -> dict[str, EngineSpec]:
    """Service-backed twins of ``specs`` (default: the whole matrix,
    forward-decay cells included); ``workers`` lifts onto the sharded
    front instead of the in-process store."""
    from repro.conformance.engines import default_specs

    base = default_specs() if specs is None else specs
    lifted = (service_spec(spec, workers=workers) for spec in base.values())
    return {spec.name: spec for spec in lifted}
