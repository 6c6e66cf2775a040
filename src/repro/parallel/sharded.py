"""A hash-sharded facade over ``K`` replicas of one decaying-sum engine.

:class:`ShardedDecayingSum` presents the full
:class:`~repro.core.interfaces.DecayingSum` surface while spreading the
item stream across ``K`` independent engine replicas -- the in-process
model of a sharded deployment (one replica per ingestion thread, node,
or Kafka partition).  Because ``S_g(T)`` is linear in the items, the
decayed sum of the whole stream is exactly the merge of the per-shard
summaries, so ``query()`` folds the replicas with
:meth:`~repro.core.interfaces.DecayingSum.merge` and caches the merged
snapshot until the next write or clock move invalidates it.

Routing is deterministic: unkeyed ``add`` calls round-robin across the
replicas (maximal balance), while :meth:`add_keyed` routes by CRC-32 of
the key so that one key always lands on one shard regardless of process
or interpreter (``zlib.crc32`` is stable where the builtin ``hash`` is
salted per process).

Engines whose state cannot be merged structurally (the randomized
:class:`~repro.histograms.matias.ApproxBoundaryCEH` raises
:class:`~repro.core.errors.NotApplicableError`) degrade gracefully: the
facade falls back to combining the per-shard *answers* with
:func:`~repro.histograms.domination.widen_merged_estimate`, which is
sound -- the endpoints add -- just wider than a structural merge.
"""

from __future__ import annotations

import copy
import zlib
from typing import Callable, Hashable, Iterable, Sequence

from repro.core.batching import TimedValue, advance_engine_to, ingest_trace
from repro.core.decay import DecayFunction
from repro.core.errors import InvalidParameterError, NotApplicableError
from repro.core.estimate import Estimate
from repro.core.interfaces import DecayingSum, make_decaying_sum
from repro.core.merging import require_same_decay
from repro.core.timeorder import OutOfOrderPolicy
from repro.histograms.domination import widen_merged_estimate
from repro.storage.model import StorageReport

__all__ = ["ShardedDecayingSum", "shard_of"]


def shard_of(key: Hashable, shards: int) -> int:
    """Deterministic shard index for ``key`` (stable across processes).

    Uses CRC-32 of ``repr(key)`` rather than the builtin ``hash``: the
    latter is salted per interpreter, which would scatter one key across
    different shards in the pool workers and the parent.
    """
    if shards <= 0:
        raise InvalidParameterError(f"shards must be >= 1, got {shards}")
    return zlib.crc32(repr(key).encode("utf-8")) % shards


class ShardedDecayingSum:
    """``K`` lock-step engine replicas behind one DecayingSum surface."""

    __slots__ = (
        "_decay",
        "epsilon",
        "shards",
        "_replicas",
        "_time",
        "_rr",
        "_merged",
        "_mergeable",
        "_dirty",
    )

    def __init__(
        self,
        decay: DecayFunction,
        epsilon: float = 0.1,
        *,
        shards: int = 4,
        factory: Callable[[], DecayingSum] | None = None,
    ) -> None:
        if shards < 1:
            raise InvalidParameterError(f"shards must be >= 1, got {shards}")
        if not 0 < epsilon < 1:
            raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon}")
        self._decay = decay
        self.epsilon = float(epsilon)
        self.shards = int(shards)
        if factory is None:
            self._replicas: list[DecayingSum] = [
                make_decaying_sum(decay, epsilon) for _ in range(shards)
            ]
        else:
            self._replicas = [factory() for _ in range(shards)]
            for replica in self._replicas:
                require_same_decay(decay, replica.decay)
        self._time = 0
        self._rr = 0  # round-robin cursor for unkeyed adds
        # Memoised merged snapshot: rebuilt lazily on the first query()
        # after a write or clock move.  ``_mergeable`` flips to False the
        # first time an engine refuses a structural merge, after which
        # queries combine per-shard answers instead.
        self._merged: DecayingSum | None = None
        self._mergeable = True
        self._dirty = True

    # -------------------------------------------------------------- clock

    @property
    def time(self) -> int:
        return self._time

    @property
    def decay(self) -> DecayFunction:
        return self._decay

    def advance(self, steps: int = 1) -> None:
        """Advance every replica in lock-step (keeps clocks equal, so a
        later merge never has to age either operand)."""
        if steps < 0:
            raise InvalidParameterError(f"steps must be >= 0, got {steps}")
        if steps == 0:
            return
        self._time += steps
        for replica in self._replicas:
            replica.advance(steps)
        self._dirty = True

    def advance_to(self, when: int) -> None:
        advance_engine_to(self, when)

    # ------------------------------------------------------------ writes

    def add(self, value: float = 1.0) -> None:
        """Record one item on the next shard in round-robin order."""
        self._replicas[self._rr].add(value)
        self._rr = (self._rr + 1) % self.shards
        self._dirty = True

    def add_keyed(self, key: Hashable, value: float = 1.0) -> None:
        """Record one item on the shard owning ``key`` (CRC-32 routing)."""
        self._replicas[shard_of(key, self.shards)].add(value)
        self._dirty = True

    def add_batch(self, values: Sequence[float]) -> None:
        """Distribute a same-instant batch round-robin, one ``add_batch``
        per shard (the per-shard fold keeps the engines' batch-path
        speedup)."""
        if not values:
            return
        per_shard: list[list[float]] = [[] for _ in range(self.shards)]
        cursor = self._rr
        for value in values:
            per_shard[cursor].append(value)
            cursor = (cursor + 1) % self.shards
        self._rr = cursor
        for replica, chunk in zip(self._replicas, per_shard):
            if len(chunk) == 1:
                replica.add(chunk[0])
            elif chunk:
                replica.add_batch(chunk)
        self._dirty = True

    def ingest(
        self,
        items: Iterable[TimedValue],
        *,
        until: int | None = None,
        policy: OutOfOrderPolicy | None = None,
    ) -> None:
        """Consume a time-sorted trace; the shared clock moves once per
        distinct arrival time and items spread round-robin.

        Out-of-order items follow ``policy``
        (:class:`~repro.core.timeorder.OutOfOrderPolicy`; default
        ``raise``).  When every replica is natively order-insensitive
        (forward-decay shards), late items route straight through
        :meth:`add_at` without buffering.
        """
        ingest_trace(self, items, until=until, policy=policy)

    @property
    def supports_out_of_order(self) -> bool:
        """True when every replica accepts late items natively."""
        return all(
            getattr(r, "supports_out_of_order", False) for r in self._replicas
        )

    def add_at(self, when: int, value: float = 1.0) -> None:
        """Record one item at absolute time ``when``, possibly behind the
        facade clock, on the next round-robin shard.

        Only available when every replica is natively order-insensitive
        (:attr:`supports_out_of_order`); raises
        :class:`NotApplicableError` otherwise.
        """
        if not self.supports_out_of_order:
            raise NotApplicableError(
                f"{type(self._replicas[0]).__name__} replicas do not accept "
                "out-of-order items; use an OutOfOrderPolicy buffer instead"
            )
        if when > self._time:
            self.advance(when - self._time)
        replica = self._replicas[self._rr]
        replica.add_at(when, value)  # type: ignore[attr-defined]
        self._rr = (self._rr + 1) % self.shards
        self._dirty = True

    # ------------------------------------------------------------- reads

    def query(self) -> Estimate:
        """Decayed sum of the whole stream, from the merged snapshot.

        The snapshot is memoised: repeated queries between writes reuse
        the previously merged engine (and its engine-level query memo)
        without touching the replicas.
        """
        merged = self._merged_snapshot()
        if merged is not None:
            return merged.query()
        # Unmergeable engine family: sum the per-shard brackets instead.
        est = self._replicas[0].query()
        for replica in self._replicas[1:]:
            est = widen_merged_estimate(est, replica.query())
        return est

    def merged_engine(self) -> DecayingSum:
        """The merged snapshot engine (rebuilt if stale).

        Raises :class:`NotApplicableError` for engine families without a
        structural merge; callers who only need numbers should use
        :meth:`query`, which falls back to answer combination.
        """
        merged = self._merged_snapshot()
        if merged is None:
            raise NotApplicableError(
                f"{type(self._replicas[0]).__name__} state cannot be merged; "
                "query() combines per-shard answers instead"
            )
        return merged

    def shard_view(self) -> tuple[DecayingSum, ...]:
        """The live replicas (read-only by convention; for tests/benches)."""
        return tuple(self._replicas)

    @property
    def effective_epsilon(self) -> float:
        """Composed error budget of the merged snapshot.

        For histogram engines this is the sum of the per-shard budgets
        (``K * epsilon`` once every shard holds items); register engines
        report their configured epsilon unchanged.
        """
        merged = self._merged_snapshot() if self._mergeable else None
        if merged is not None:
            return float(getattr(merged, "effective_epsilon", self.epsilon))
        return self.epsilon * self.shards

    def storage_report(self) -> StorageReport:
        """Aggregate replica storage (the cost of sharding: K copies of
        the per-stream state; shared bits counted once, as in the fleet)."""
        total = StorageReport(engine=f"sharded[{self.shards}]")
        shared_once = 0
        for replica in self._replicas:
            rep = replica.storage_report()
            shared_once = max(shared_once, rep.shared_bits)
            total.buckets += rep.buckets
            total.timestamp_bits += rep.timestamp_bits
            total.count_bits += rep.count_bits
            total.register_bits += rep.register_bits
        total.shared_bits = shared_once
        return total

    # ------------------------------------------------------------- merge

    def merge(self, other: "ShardedDecayingSum") -> None:
        """Fold another facade shard-by-shard.

        Both facades must agree on decay and shard count; the younger one
        is advanced to the common clock first (replica clocks track the
        facade clock, so aligning the facades aligns every pair).
        """
        if other is self:
            raise InvalidParameterError("cannot merge an engine into itself")
        if not isinstance(other, ShardedDecayingSum):
            raise InvalidParameterError(
                f"cannot merge ShardedDecayingSum with {type(other).__name__}"
            )
        require_same_decay(self._decay, other._decay)
        if self.shards != other.shards:
            raise InvalidParameterError(
                f"shard counts differ: {self.shards} vs {other.shards}"
            )
        if other._time > self._time:
            self.advance(other._time - self._time)
        elif self._time > other._time:
            other.advance(self._time - other._time)
        for mine, theirs in zip(self._replicas, other._replicas):
            mine.merge(theirs)
        self._dirty = True

    # ----------------------------------------------------------- private

    def _merged_snapshot(self) -> DecayingSum | None:
        """Rebuild (or reuse) the merged engine; None if unmergeable."""
        if not self._mergeable:
            return None
        if not self._dirty and self._merged is not None:
            return self._merged
        clones = [self._clone(replica) for replica in self._replicas]
        merged = clones[0]
        try:
            for clone in clones[1:]:
                merged.merge(clone)
        except NotApplicableError:
            self._mergeable = False
            self._merged = None
            return None
        self._merged = merged
        self._dirty = False
        return merged

    @staticmethod
    def _clone(engine: DecayingSum) -> DecayingSum:
        """Deep copy via the checkpoint path (bit-identical by the
        serialize contract); ``copy.deepcopy`` covers engines outside the
        checkpoint format (custom factories)."""
        from repro.serialize import engine_from_dict, engine_to_dict

        try:
            return engine_from_dict(engine_to_dict(engine))
        except InvalidParameterError:
            return copy.deepcopy(engine)
