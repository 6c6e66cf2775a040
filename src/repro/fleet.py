"""Multi-stream fleets (the paper's section 1.1 AT&T scenario).

"A summary is maintained per field on each of around 100 million
customers; thus, optimal balancing of information value and available
storage is very important." A :class:`StreamFleet` maintains one
decaying-sum engine per key over a shared clock, with the
stream-independent state (the WBMH region schedule) genuinely shared --
stored once for the whole fleet -- and reports aggregate storage the way a
capacity planner would.

Keys are created lazily on first observation; every engine is advanced in
lock-step so WBMH lattices stay mergeable
(:meth:`~repro.histograms.wbmh.WBMH.absorb`) across fleet shards.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

from repro.core.batching import KeyedTimedValue
from repro.core.decay import DecayFunction
from repro.core.errors import InvalidParameterError, TimeOrderError
from repro.core.estimate import Estimate
from repro.core.interfaces import DecayingSum, keyed_engine_factory
from repro.core.merging import require_same_decay
from repro.core.timeorder import OutOfOrderPolicy, bounded_reorder
from repro.storage.model import StorageReport

__all__ = ["StreamFleet"]


class StreamFleet:
    """Per-key decaying sums over a shared clock and shared schedule."""

    def __init__(
        self,
        decay: DecayFunction,
        epsilon: float = 0.1,
        *,
        engine_factory: Callable[[], DecayingSum] | None = None,
    ) -> None:
        if not 0 < epsilon < 1:
            raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon}")
        self._decay = decay
        self.epsilon = float(epsilon)
        self._factory = (
            engine_factory
            if engine_factory is not None
            else keyed_engine_factory(decay, self.epsilon)
        )
        self._engines: dict[Hashable, DecayingSum] = {}
        self._time = 0

    # ------------------------------------------------------------------ API

    @property
    def time(self) -> int:
        return self._time

    @property
    def decay(self) -> DecayFunction:
        return self._decay

    def __len__(self) -> int:
        return len(self._engines)

    def keys(self) -> list[Hashable]:
        return list(self._engines)

    def observe(self, key: Hashable, value: float = 1.0, *,
                when: int | None = None) -> None:
        """Record ``value`` on ``key``'s stream, optionally at time ``when``.

        ``when`` must not precede the fleet clock; the whole fleet advances
        to it (lock-step is what keeps per-key structures mergeable).
        """
        if when is not None:
            self.advance_to(when)
        self._engine_for(key).add(value)

    def observe_batch(
        self,
        items: Iterable[KeyedTimedValue],
        *,
        policy: OutOfOrderPolicy | None = None,
    ) -> None:
        """Record a time-sorted keyed trace through the batch path.

        Items are grouped per key and the shared clock advances once per
        *distinct* arrival time (not once per item), with each key's
        same-time values folded into a single ``add_batch`` call -- the
        fleet-scale ingestion hot path. Bit-identical to the equivalent
        sequence of :meth:`observe` calls.

        Items behind the fleet clock follow ``policy``
        (:class:`~repro.core.timeorder.OutOfOrderPolicy`): the default
        ``raise`` fails with :class:`TimeOrderError` on the first one,
        ``drop`` skips and counts them, and ``buffer`` re-sorts the trace
        within the policy's lateness window first (whole items, keys and
        all); anything still behind the clock after re-sorting is dropped
        onto the policy's ledger.
        """
        if policy is not None and policy.kind == "buffer":
            items = bounded_reorder(items, policy)
        tolerate = policy is not None and policy.kind != "raise"
        pending: dict[Hashable, list[float]] = {}
        for item in items:
            when = item.time
            if when < self._time:
                if tolerate and policy is not None:
                    policy.note_dropped(item.value)
                    continue
                raise TimeOrderError(
                    f"trace time {when} precedes fleet clock {self._time}; "
                    "sort the trace or pass an OutOfOrderPolicy"
                )
            if when > self._time:
                self._flush(pending)
                self.advance(when - self._time)
            pending.setdefault(item.key, []).append(item.value)
        self._flush(pending)

    def _flush(self, pending: dict[Hashable, list[float]]) -> None:
        for key, values in pending.items():
            self._engine_for(key).add_batch(values)
        pending.clear()

    def _engine_for(self, key: Hashable) -> DecayingSum:
        """The key's engine, created lazily and caught up to the clock."""
        engine = self._engines.get(key)
        if engine is None:
            engine = self._factory()
            if self._time:
                engine.advance(self._time)
            self._engines[key] = engine
        return engine

    def advance(self, steps: int = 1) -> None:
        if steps < 0:
            raise InvalidParameterError(f"steps must be >= 0, got {steps}")
        self._time += steps
        for engine in self._engines.values():
            engine.advance(steps)

    def advance_to(self, when: int) -> None:
        if when < self._time:
            raise TimeOrderError(
                f"cannot move the fleet clock back: {self._time} -> {when}"
            )
        self.advance(when - self._time)

    def rating(self, key: Hashable) -> Estimate:
        """Decayed sum for one key (0 for never-observed keys)."""
        engine = self._engines.get(key)
        if engine is None:
            return Estimate.exact(0.0)
        return engine.query()

    def ratings(self) -> dict[Hashable, float]:
        return {k: e.query().value for k, e in self._engines.items()}

    def top(self, n: int) -> list[tuple[Hashable, float]]:
        """The ``n`` keys with the largest decayed sums, descending."""
        if n < 0:
            raise InvalidParameterError("n must be >= 0")
        ranked = sorted(
            self.ratings().items(), key=lambda kv: (-kv[1], str(kv[0]))
        )
        return ranked[:n]

    def bottom(self, n: int) -> list[tuple[Hashable, float]]:
        """The ``n`` keys with the smallest decayed sums, ascending."""
        if n < 0:
            raise InvalidParameterError("n must be >= 0")
        ranked = sorted(
            self.ratings().items(), key=lambda kv: (kv[1], str(kv[0]))
        )
        return ranked[:n]

    def absorb(self, other: "StreamFleet") -> None:
        """Merge a shard: key-wise engine absorption (WBMH/EWMA fleets)."""
        if other is self:
            raise InvalidParameterError("cannot absorb a fleet into itself")
        if other._time != self._time:
            raise TimeOrderError(
                f"fleet clocks differ: {self._time} vs {other._time}"
            )
        for key, engine in other._engines.items():
            mine = self._engines.get(key)
            if mine is None:
                self._engines[key] = engine
            else:
                absorb = getattr(mine, "absorb", None)
                if absorb is None:
                    raise InvalidParameterError(
                        f"engine {type(mine).__name__} does not support absorb"
                    )
                absorb(engine)

    def merge(self, other: "StreamFleet") -> None:
        """Fold another fleet's keys into this one via engine ``merge``.

        Generalizes :meth:`absorb` to every engine family: the younger
        fleet is advanced to the common clock first, then each shared key
        merges engine-to-engine and unseen keys adopt the other fleet's
        engine outright.  ``other`` is consumed (its engines may be
        mutated by clock alignment and adopted by reference).
        """
        if other is self:
            raise InvalidParameterError("cannot merge a fleet into itself")
        require_same_decay(self._decay, other._decay)
        if other._time > self._time:
            self.advance(other._time - self._time)
        elif self._time > other._time:
            other.advance(self._time - other._time)
        for key, engine in other._engines.items():
            mine = self._engines.get(key)
            if mine is None:
                self._engines[key] = engine
            else:
                mine.merge(engine)

    def adopt(self, key: Hashable, engine: DecayingSum) -> None:
        """Install an externally-built engine for ``key``.

        The restore half of the process-pool backfill path
        (:func:`repro.parallel.executor.parallel_fleet_ingest`): workers
        ship per-key engines back as checkpoints and the parent adopts
        them at the common clock.  The engine must already sit at the
        fleet clock; a key that is already present merges engine-to-
        engine instead of being replaced.
        """
        if engine.time != self._time:
            raise TimeOrderError(
                f"adopted engine clock {engine.time} != fleet clock "
                f"{self._time}; advance it first"
            )
        mine = self._engines.get(key)
        if mine is None:
            self._engines[key] = engine
        else:
            mine.merge(engine)

    def storage_report(self) -> StorageReport:
        """Fleet-level accounting: shared bits counted once.

        ``per_stream_bits`` here is the *total* across keys; the shared
        schedule (identical object in every WBMH) contributes its bits a
        single time, which is the section 1.1 storage argument.
        """
        total = StorageReport(engine=f"fleet[{len(self._engines)}]")
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

    def per_key_bits(self) -> dict[Hashable, int]:
        return {
            k: e.storage_report().per_stream_bits
            for k, e in self._engines.items()
        }
