"""Keyed store of decaying-sum engines: the service layer's state.

A :class:`ServiceStore` is the library's keyed store -- the paper's
section 1.1 deployment, one decayed summary per customer -- and what the
ingestion daemon folds into and the query API reads from.  It keeps one
engine per key over a shared clock (the
:func:`~repro.core.interfaces.make_decaying_sum` engine, or a custom
``engine_factory``'s).  Its keyed-engine seam (:mod:`repro.service.keyed`)
holds them and advances them once per tick: WBMH keys are count columns
of one shared bucket lattice, so seals and merges run once per tick
whatever the key count.  The store adds:

* **TTL eviction driven by the engine clock.**  A key idle for ``ttl``
  ticks is dropped on the next clock advance, and every eviction is
  recorded on the store's :class:`EvictionLedger` (count + decayed weight
  at eviction time) so capacity decisions stay auditable.  No wall-clock
  is read anywhere (lintkit RK001): "idle" means stream time, which is
  the only notion of time the paper's aggregates have.  The last-seen
  map is the TTL index: it runs from the oldest last-seen tick and, within
  a tick, in first-write order, so a sweep evicts a prefix of it.
* **An admission stage.**  Every write passes through the store's
  :class:`~repro.core.timeorder.Admission`: the out-of-order policy,
  the persistent lateness heap of the ``buffer`` kind (an item arriving
  one batch late still lands in the right key's engine; :meth:`flush`
  drains the heap when the feed ends) and the ingest ledgers.  It
  compiles each write call into one program, which the store's one
  executor (``_run``) runs.  An entry its engine refuses is skipped and
  left off ``ingested_*``, the rest apply, and the call raises the first
  refusal in program order.
* **Ledgers for everything lossy.**  Dropped late items live on the
  policy (as everywhere in the library), evictions on the store, and
  both are surfaced verbatim by ``GET /keys`` (:mod:`repro.service.api`).

The admission stage, the clock, the read memo, the configuration checks
and the heads of the ledger block and of the snapshot are
:class:`StoreFront`'s, which both keyed stores subclass: this store runs
admission's programs in-process, and the multi-process
:class:`~repro.service.sharded.ShardedServiceStore` splits them by shard
for worker stores, which run their parts with this store's executor, so
a refusal leaves both in one state.  Both write and read one
``service-store`` snapshot format.

This module is deliberately asyncio-free: the store is a plain
synchronous structure a single consumer task owns, which is what keeps
service answers bit-identical to a directly-driven engine (the
differential contract ``tests/service/test_differential.py`` enforces).
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.batching import KeyedTimedValue
from repro.core.decay import DecayFunction
from repro.core.errors import (
    InvalidParameterError,
    NotApplicableError,
    ReproError,
    TimeOrderError,
)
from repro.core.estimate import Estimate
from repro.core.interfaces import DecayingSum
from repro.core.timeorder import Admission, OutOfOrderPolicy, Program
from repro.histograms.domination import widen_merged_estimate
from repro.serialize import (
    decay_from_dict,
    decay_to_dict,
    engine_from_dict,
    engine_to_dict,
)
from repro.service.keyed import keyed_engines
from repro.storage.model import StorageReport

__all__ = ["EvictionLedger", "ServiceStore", "StoreFront"]

_SNAPSHOT_VERSION = 1
_SNAPSHOT_KIND = "service-store"


class EvictionLedger:
    """What TTL eviction removed: key count and decayed weight."""

    __slots__ = ("evicted_keys", "evicted_weight")

    def __init__(self, evicted_keys: int = 0, evicted_weight: float = 0.0):
        self.evicted_keys = int(evicted_keys)
        self.evicted_weight = float(evicted_weight)

    def note(self, weight: float) -> None:
        self.evicted_keys += 1
        self.evicted_weight += weight

    def to_dict(self) -> dict[str, Any]:
        return {
            "evicted_keys": self.evicted_keys,
            "evicted_weight": self.evicted_weight,
        }

    def __repr__(self) -> str:
        return (
            f"EvictionLedger(evicted_keys={self.evicted_keys}, "
            f"evicted_weight={self.evicted_weight})"
        )


class StoreFront(ABC):
    """What both keyed stores share, and the seam the daemon, API server,
    harness and conformance adapter program against.

    :class:`ServiceStore` and
    :class:`~repro.service.sharded.ShardedServiceStore` subclass it, which
    is what makes the sharded front a drop-in behind the HTTP/WS API.  The
    front holds the configuration (checked here), the clock, the read memo
    of this tick's answers and the :class:`~repro.core.timeorder.Admission`
    stage every write goes through: admission compiles each write call
    into one program, which the subclass's :meth:`_run` runs.  It also
    aligns clocks for
    :meth:`merge_into` and writes the heads of the ``GET /keys`` ledger
    block and of the ``service-store`` snapshot.
    """

    #: Whether the engines take late items via ``add_at`` (the
    #: forward-decay family), so no policy ever has to intervene, and
    #: whether they take only non-negative integer weights (the EH-based
    #: families), which admission then enforces.  Set by each subclass
    #: from the engines it builds.
    _native: bool
    _integer: bool

    def __init__(
        self,
        decay: DecayFunction,
        epsilon: float,
        ttl: int | None,
        policy: OutOfOrderPolicy | None,
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
        self._admission = Admission(policy)
        self._time = 0
        #: Read memo: this tick's answers.  A write drops the key's entry
        #: and a clock move clears them all, so repeated polls of a quiet
        #: key skip re-evaluation within a tick.
        self._memo: dict[str, Estimate] = {}

    # ------------------------------------------------------------- clock

    @property
    def time(self) -> int:
        return self._time

    @property
    def decay(self) -> DecayFunction:
        return self._decay

    @property
    def native_out_of_order(self) -> bool:
        return self._native

    @property
    def integer_weights(self) -> bool:
        return self._integer

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

    @abstractmethod
    def advance(self, steps: int = 1) -> None: ...

    def advance_to(self, when: int) -> None:
        self._write(self._admission.advance_to, when)

    # ------------------------------------------------------------ writes
    #
    # Every write goes through the admission stage, which compiles it into
    # one program that the subclass's _run runs (_write).

    def observe(
        self, key: str, value: float = 1.0, *, when: int | None = None
    ) -> None:
        """Record one item on ``key``'s stream, optionally at ``when``.

        On-time items advance the whole store to ``when`` (lock-step keeps
        per-key structures mergeable); late items follow the store policy,
        or go straight to ``add_at`` when the engines are natively
        order-insensitive.
        """
        self._write(self._admission.observe, key, value, when)

    def observe_values(self, key: str, values: Iterable[float]) -> None:
        """Fold several same-time values into ``key`` at the current clock."""
        self._write(self._admission.observe_values, key, values)

    def observe_batch(
        self,
        items: Iterable[KeyedTimedValue],
        *,
        until: int | None = None,
        policy: OutOfOrderPolicy | None = None,
    ) -> None:
        """Record a time-sorted keyed trace through the batch path.

        The clock advances once per distinct arrival time and each key's
        same-time values fold in a single ``add_batch`` -- bit-identical
        to the equivalent :meth:`observe` calls.  Late items follow
        :meth:`repro.core.timeorder.Admission.observe_batch`.
        ``until`` advances the clock past the last item.
        """
        self._write(
            self._admission.observe_batch, items, until=until, policy=policy
        )

    def flush(self) -> None:
        """Drain the lateness buffer (end of feed / daemon shutdown)."""
        self._write(self._admission.flush)

    def merge_into(self, key: str, other: DecayingSum) -> None:
        """Fold another summary of the same decay into ``key``'s engine.

        The write-path twin of reading an engine: clocks align by
        advancing the younger side (store engines move in lock-step with
        the store clock, so the store advances as a whole), and the key's
        memo entry is dropped so the read memo cannot serve a pre-merge
        answer.  A refused merge into a new key leaves no key.
        """
        if other.time > self._time:
            self.advance_to(other.time)
        elif other.time < self._time:
            other.advance_to(self._time)
        self._merge(key, other)

    def _write(self, admit: Callable[..., None], *args: Any, **kw: Any) -> None:
        """Compile one write call, run what compiled (also before a refusal)
        and raise the first refusal in program order, an engine's first."""
        admission = self._admission
        start = admission.ingested_items, admission.ingested_weight
        prog = Program(self._time, self._native, self._integer)
        try:
            admit(prog, *args, **kw)
        finally:
            refused = self._run(prog.entries)
            if refused:
                admission.ledger(prog, refused, start)
                raise next(iter(refused.values()))

    @abstractmethod
    def _run(self, prog: Sequence[Sequence[Any]]) -> dict[int, Exception]:
        """Run a program; the entries engines refused, by index, in order."""

    @abstractmethod
    def _merge(self, key: str, other: DecayingSum) -> None:
        """Fold ``other``, already at the store clock, into ``key``."""

    # ------------------------------------------------------------- reads

    @abstractmethod
    def query(self, key: str, *, create: bool = False) -> Estimate: ...

    @abstractmethod
    def query_total(self) -> Estimate: ...

    @abstractmethod
    def keys(self) -> list[str]: ...

    @abstractmethod
    def key_stats(self) -> dict[str, dict[str, Any]]: ...

    @abstractmethod
    def stats(self) -> dict[str, Any]: ...

    @abstractmethod
    def storage_report(self) -> StorageReport: ...

    @abstractmethod
    def key_storage_report(self, key: str) -> StorageReport: ...

    @abstractmethod
    def export_engine(self, key: str) -> DecayingSum: ...

    @abstractmethod
    def close(self) -> None: ...

    def _ledgers(self, keys: int, eviction: EvictionLedger) -> dict[str, Any]:
        """The ``GET /keys`` ledger block of a front holding ``keys`` keys
        whose evictions are ``eviction``: everything lossy, accounted."""
        return {
            "time": self._time,
            "keys": keys,
            **eviction.to_dict(),
            **self._admission.stats(),
        }

    # ---------------------------------------------------------- snapshot

    @abstractmethod
    def to_dict(self) -> dict[str, Any]: ...

    @abstractmethod
    def restore(self, data: dict[str, Any]) -> None: ...

    def _head(self, eviction: EvictionLedger) -> dict[str, Any]:
        """Every ``service-store`` snapshot field but the trailing ``keys``
        object, for a front whose evictions are ``eviction``."""
        return {
            "version": _SNAPSHOT_VERSION,
            "kind": _SNAPSHOT_KIND,
            "decay": decay_to_dict(self._decay),
            "epsilon": self.epsilon,
            "ttl": self.ttl,
            "time": self._time,
            "eviction": eviction.to_dict(),
            **self._admission.to_dict(),
        }

    @staticmethod
    def _check_head(data: Mapping[str, Any]) -> None:
        """Refuse anything but a ``service-store`` snapshot of this
        version."""
        if data.get("version") != _SNAPSHOT_VERSION:
            raise InvalidParameterError(
                f"unsupported snapshot version {data.get('version')!r}"
            )
        if data.get("kind") != _SNAPSHOT_KIND:
            raise InvalidParameterError(
                f"not a service-store snapshot: kind={data.get('kind')!r}"
            )


class ServiceStore(StoreFront):
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
    ) -> None:
        super().__init__(decay, epsilon, ttl, policy)
        self._custom_factory = engine_factory is not None
        #: The keyed-engine seam, and its key -> engine map (in key
        #: creation order), read directly on the hot paths.
        self._keyed = keyed_engines(decay, self.epsilon, engine_factory)
        self._engines = self._keyed.engines
        self._native = self._keyed.native_out_of_order
        self._integer = self._keyed.integer_weights
        #: The TTL index: every stored key's last-seen tick, oldest tick
        #: first and, within a tick, in first-write order.  A key's first
        #: write at a new tick moves it to the end.
        self._last_seen: dict[str, int] = {}
        self.eviction = EvictionLedger()

    # ------------------------------------------------------------- clock

    def advance(self, steps: int = 1) -> None:
        """Advance the shared clock; TTL eviction runs on every advance.

        Every clock move of the store runs through here, admission's
        ``adv`` operation included.
        """
        if steps < 0:
            raise InvalidParameterError(f"steps must be >= 0, got {steps}")
        if steps == 0:
            return
        self._time += steps
        self._memo.clear()
        self._keyed.advance(steps)
        self._sweep()

    # ------------------------------------------------------------ writes

    def _run(self, prog: Sequence[Sequence[Any]]) -> dict[int, Exception]:
        """The executor, once per write call here and once per ``ingest``
        frame on a sharded worker; every ``adv`` goes through
        :meth:`advance`.  A refused entry is skipped and the rest run, the
        one rule under which a shard split cannot change what a front
        holds; a refused first write leaves no key."""
        refused: dict[int, Exception] = {}
        engines = self._engines
        for index, entry in enumerate(prog):
            kind = entry[0]
            if kind == "adv":
                self.advance(entry[1] - self._time)
                continue
            key = entry[1]
            engine: Any = engines.get(key)
            if engine is None:
                engine = self._keyed.new()
            try:
                if kind == "fold":
                    engine.add_batch(entry[2])
                elif kind == "late":
                    engine.add_at(entry[2], entry[3])
                else:
                    raise InvalidParameterError(f"unknown program entry {kind!r}")
            except (ReproError, ValueError, TypeError) as exc:
                if key not in engines:  # fresh: no key, nor a lattice column
                    self._keyed.release(engine)
                self._memo.pop(key, None)  # forward decay keeps a prefix
                refused[index] = exc
                continue
            self._touch(key, engine)
        return refused

    # ----------------------------------------------------------- eviction

    def _touch(self, key: str, engine: DecayingSum) -> None:
        """Record a write on ``key``: drop its memo entry and, on its first
        write at this tick, move it to the TTL index's end (storing the
        engine of a new key)."""
        if self._memo:
            self._memo.pop(key, None)
        seen = self._last_seen
        last = seen.get(key)
        if last != self._time:
            if last is None:
                self._keyed.keep(key, engine)
            else:
                del seen[key]
            seen[key] = self._time

    def _sweep(self) -> None:
        """Evict keys idle for >= ttl ticks: the TTL index's due prefix,
        in index order (``evicted_weight`` sums in that order)."""
        if self.ttl is None:
            return
        cutoff = self._time - self.ttl
        due: list[str] = []
        for key, last in self._last_seen.items():
            if last > cutoff:
                break
            due.append(key)
        for key in due:
            del self._last_seen[key]
            engine = self._engines.pop(key)
            self.eviction.note(engine.query().value)
            self._keyed.release(engine)

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
        A WBMH key's engine is a column of the store's shared lattice: it
        cannot advance on its own, and it is unusable once the key leaves.
        """
        engine = self._engines.get(key)
        if engine is None:
            engine = self._keyed.new()
            self._touch(key, engine)
        return engine

    def query(self, key: str, *, create: bool = False) -> Estimate:
        """Certified estimate for ``key``; ``KeyError`` if absent/evicted.

        With ``create`` an unknown key gets a fresh engine at the store
        clock and answers its (exact zero) empty estimate -- the adapter
        path, where a query must mean "this key's stream so far" even
        before the first arrival.  Answers are memoized for the rest of
        the tick, until the key's next write.
        """
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        engine = self._engines.get(key)
        if engine is None:
            if not create:
                raise KeyError(key)
            engine = self.engine(key)
        estimate = self._memo[key] = engine.query()
        return estimate

    def query_total(self) -> Estimate:
        """Certified estimate of the decayed sum over *every* live key.

        Folds per-key summaries with the ``merge`` algebra
        (:meth:`fold_engine`), so the answer carries the composed error
        bound of a K-way merge.  Engine families without a structural
        merge fall back to :func:`widen_merged_estimate` over per-key
        answers (sound, just wider); an empty store answers an exact zero.
        """
        try:
            merged = self.fold_engine()
        except NotApplicableError:
            keys = sorted(self._engines)
            estimate = self._engines[keys[0]].query()
            for key in keys[1:]:
                estimate = widen_merged_estimate(
                    estimate, self._engines[key].query()
                )
            return estimate
        return Estimate.exact(0.0) if merged is None else merged.query()

    def fold_engine(self) -> DecayingSum | None:
        """One engine summarising all keys (clone + merge in key order).

        ``None`` for an empty store; raises
        :class:`~repro.core.errors.NotApplicableError` when the engine
        family has no structural merge.  The clones go through the
        serialize round-trip (bit-identical by the checkpoint contract)
        or, for engines outside the checkpoint format, ``copy.deepcopy``,
        so the live per-key engines are never mutated.
        """
        merged: DecayingSum | None = None
        for key in sorted(self._engines):
            engine = self._engines[key]
            try:
                clone: DecayingSum = engine_from_dict(engine_to_dict(engine))
            except InvalidParameterError:  # outside the checkpoint format
                clone = copy.deepcopy(engine)
            if merged is None:
                merged = clone
            else:
                merged.merge(clone)
        return merged

    def _merge(self, key: str, other: DecayingSum) -> None:
        """:meth:`merge_into`'s fold.  A WBMH key whose levels the merge
        makes diverge from the store's shared lattice moves to a private
        lattice."""
        engine = self._engines.get(key)
        if engine is None:
            engine = self._keyed.new()
        try:
            self._keyed.merge(engine, other)
        except (ReproError, ValueError, TypeError):
            if key not in self._engines:  # a refused new key leaves no key
                self._keyed.release(engine)
            raise
        self._touch(key, engine)

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
        return self._ledgers(len(self._engines), self.eviction)

    def key_stats(self) -> dict[str, dict[str, Any]]:
        """Per-key staleness view (``GET /keys``)."""
        return {
            key: {"last_seen": last, "idle": self._time - last}
            for key, last in sorted(self._last_seen.items())
        }

    def storage_report(self) -> StorageReport:
        """Aggregate engine storage (shared bits counted once)."""
        return StorageReport.aggregate(
            f"service[{len(self._engines)}]",
            (engine.storage_report() for engine in self._engines.values()),
        )

    # ---------------------------------------------------------- snapshot

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe snapshot: config, clock, ledgers, per-key engines.

        The :meth:`snapshot_head` followed by ``keys``, which maps each key
        to its :meth:`snapshot_keys` state in TTL index order.  Stores
        built on a custom ``engine_factory`` cannot be rebuilt from
        configuration and refuse to snapshot.
        """
        return {**self.snapshot_head(), "keys": dict(self.snapshot_keys())}

    def snapshot_head(self) -> dict[str, Any]:
        """Every :meth:`to_dict` field but the trailing ``keys`` object."""
        if self._custom_factory:
            raise InvalidParameterError(
                "stores built on a custom engine_factory are not "
                "checkpointable; snapshot the engines yourself"
            )
        return self._head(self.eviction)

    def snapshot_keys(self) -> Iterator[tuple[str, dict[str, Any]]]:
        """Each key's snapshot state, one at a time, in TTL index order:
        its engine through :func:`repro.serialize.engine_to_dict` and its
        last-seen tick."""
        engines = self._engines
        for key, last in self._last_seen.items():
            yield key, {
                "engine": engine_to_dict(engines[key]),
                "last_seen": last,
            }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ServiceStore":
        """Rebuild a store that continues bit-identically to the original.

        Keys are stably sorted by ``last_seen`` into the TTL index: a no-op
        for the snapshots :meth:`to_dict` writes, which list keys in index
        order.  The keyed seam first advances to the snapshot clock; a
        WBMH key whose buckets match the lattice a fresh key has there
        joins it, and any other keeps a private lattice.  A key whose
        engine is not the store's own kind (class, decay, epsilon, CEH
        backend and estimator) is refused.
        """
        cls._check_head(data)
        store = cls(
            decay_from_dict(data["decay"]),
            float(data["epsilon"]),
            ttl=data["ttl"],
        )
        store._admission.restore(data)
        store._time = int(data["time"])
        store._keyed.advance(store._time)
        ledger = data["eviction"]
        store.eviction = EvictionLedger(
            ledger["evicted_keys"], ledger["evicted_weight"]
        )
        keys = sorted(
            data["keys"].items(), key=lambda item: int(item[1]["last_seen"])
        )
        for key, state in keys:
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
            store._keyed.restore(key, engine)
            store._last_seen[key] = int(state["last_seen"])
        return store

    def restore(self, data: dict[str, Any]) -> None:
        """Replace this store's state in place (the ``POST /restore`` path).

        In-place so the daemon and API server keep their references; the
        configuration (decay, ttl, policy) comes from the snapshot.  The
        live policy object is kept and loaded from the snapshot
        (:meth:`~repro.core.timeorder.Admission.restore`), so a daemon
        passing it per batch keeps ingesting.
        """
        fresh = ServiceStore.from_dict(data)
        self._admission.restore(data)
        fresh._admission = self._admission
        vars(self).update(vars(fresh))
