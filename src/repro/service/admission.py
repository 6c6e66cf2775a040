"""Admission: the one write path both store fronts share.

Every write to a keyed store -- ``observe``, ``observe_values``,
``observe_batch`` (with ``until``), ``advance_to`` and ``flush`` -- goes
through the store's :class:`Admission` stage.  The stage owns everything
that decides whether and when an item is folded: the
:class:`~repro.core.timeorder.OutOfOrderPolicy` (and through it the drop
ledger), the ingest ledgers, and for the ``buffer`` kind the persistent
watermark heap, which holds items across ingest batches until the
watermark (the newest arrival seen) is ``max_lateness`` ticks past them --
the cross-batch case the per-call
:func:`~repro.core.timeorder.bounded_reorder` cannot cover.

It emits an ordered stream of three operations on its *front*:
``_adv(when)`` moves the shared clock, ``_fold(key, values)`` folds one
key's same-time values at the clock (one call per key per distinct
arrival time), and ``_late(key, when, value)`` hands a late item to
engines that take it natively (forward decay, via ``add_at``).
:class:`~repro.service.store.ServiceStore` applies them in-process;
:class:`~repro.service.sharded.ShardedServiceStore` compiles them into
per-shard worker programs.  One stage for both fronts is what makes their
clocks, fold grouping and ledgers agree bit for bit.

The stage keeps no reference to its front -- the front passes itself to
every call -- so a stage forms no reference cycle with the store that
owns it, and the clock (``front.time``) stays front state.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Mapping, Protocol

from repro.core.batching import KeyedTimedValue
from repro.core.errors import InvalidParameterError, TimeOrderError
from repro.core.timeorder import OutOfOrderPolicy

__all__ = ["Admission", "AdmissionFront"]


class AdmissionFront(Protocol):
    """What a store front offers its admission stage."""

    @property
    def time(self) -> int: ...

    @property
    def native_out_of_order(self) -> bool: ...

    def _adv(self, when: int) -> None: ...

    def _fold(self, key: str, values: list[float]) -> None: ...

    def _late(self, key: str, when: int, value: float) -> None: ...


class Admission:
    """Out-of-order policy, lateness heap and ingest ledgers of one store.

    ``policy`` is the store-level policy; the ``buffer`` kind must be
    installed here (not per call) because its heap is store state that
    survives across ingest batches.
    """

    __slots__ = (
        "policy", "watermark", "ingested_items", "ingested_weight", "_heap",
        "_seq",
    )

    def __init__(self, policy: OutOfOrderPolicy | None = None) -> None:
        self.policy = policy
        #: Newest arrival time pushed through the buffer (-1: none yet).
        self.watermark = -1
        self.ingested_items = 0
        self.ingested_weight = 0.0
        self._heap: list[tuple[int, int, str, float]] = []
        self._seq = 0

    # ------------------------------------------------------------ writes

    def observe(
        self, front: AdmissionFront, key: str, value: float, when: int | None
    ) -> None:
        """One item on ``key``'s stream, at ``when`` (default: the clock).

        On-time items move the clock to ``when`` first; late items follow
        the store policy, or go to ``_late`` on natively order-insensitive
        engines.
        """
        now = front.time
        when = now if when is None else int(when)
        policy = self.policy
        native = front.native_out_of_order
        if policy is not None and policy.kind == "buffer" and not native:
            self._push(now, key, when, value)
            self._drain(front, self.watermark - policy.max_lateness)
            return
        if when < now:
            if native:
                self._late(front, key, when, value)
            elif policy is not None and policy.kind != "raise":
                policy.note_dropped(value)
            else:
                raise TimeOrderError(
                    f"observation time {when} precedes store clock {now}; "
                    "pass an OutOfOrderPolicy to tolerate late items"
                )
            return
        if when > now:
            front._adv(when)
        self._fold(front, key, [value])

    def observe_values(
        self, front: AdmissionFront, key: str, values: Iterable[float]
    ) -> None:
        """Several same-time values on ``key``, folded at the clock."""
        batch = list(values)
        if batch:
            self._fold(front, key, batch)

    def observe_batch(
        self,
        front: AdmissionFront,
        items: Iterable[KeyedTimedValue],
        *,
        until: int | None = None,
        policy: OutOfOrderPolicy | None = None,
    ) -> None:
        """A time-sorted keyed trace: one ``_adv`` per distinct arrival time.

        Each key's same-time values fold in one ``_fold`` -- bit-identical
        to the equivalent :meth:`observe` calls.  Late items go to
        ``_late`` on natively order-insensitive engines and otherwise
        follow ``policy`` (default: the store policy): ``raise`` fails
        after folding exactly the items before the offending one, ``drop``
        counts them on the policy ledger, and the store-level ``buffer``
        policy routes *everything* through the persistent heap.  ``until``
        moves the clock past the last item.
        """
        pol = self.policy if policy is None else policy
        native = front.native_out_of_order
        now = front.time
        if pol is not None and pol.kind == "buffer" and not native:
            if pol is not self.policy:
                raise InvalidParameterError(
                    "bounded-lateness buffering is store state; install the "
                    "buffer policy on the store's constructor"
                )
            for item in items:
                self._push(now, item.key, item.time, item.value)
            now = self._drain(front, self.watermark - pol.max_lateness)
        else:
            tolerate = pol is not None and pol.kind != "raise"
            pending: dict[str, list[float]] = {}
            for item in items:
                when = item.time
                if when < now:
                    if native:
                        self._late(front, item.key, when, item.value)
                    elif tolerate and pol is not None:
                        pol.note_dropped(item.value)
                    else:
                        self._fold_pending(front, pending)
                        raise TimeOrderError(
                            f"trace time {when} precedes store clock {now}; "
                            "sort the feed or pass an OutOfOrderPolicy"
                        )
                    continue
                if when > now:
                    self._fold_pending(front, pending)
                    front._adv(when)
                    now = when
                pending.setdefault(item.key, []).append(item.value)
            self._fold_pending(front, pending)
        if until is not None:
            if until < now:
                raise TimeOrderError(
                    f"until={until} precedes the clock after replay ({now}); "
                    "clocks are monotone"
                )
            if until > now:
                front._adv(until)

    def advance_to(self, front: AdmissionFront, when: int) -> None:
        """Move the clock to ``when``; it never moves back."""
        now = front.time
        if when < now:
            raise TimeOrderError(
                f"cannot move the store clock back: {now} -> {when}"
            )
        if when > now:
            front._adv(when)

    def flush(self, front: AdmissionFront) -> None:
        """Drain the lateness heap (end of feed / daemon shutdown).

        Items released while draining fold in time order, advancing the
        clock as they land; anything the clock already passed (an explicit
        ``advance_to`` outran the watermark) drops onto the policy ledger.
        """
        self._drain(front, None)

    # ----------------------------------------------------------- helpers

    def _fold(
        self, front: AdmissionFront, key: str, values: list[float]
    ) -> None:
        front._fold(key, values)
        self.ingested_items += len(values)
        self.ingested_weight += float(sum(values))

    def _late(
        self, front: AdmissionFront, key: str, when: int, value: float
    ) -> None:
        front._late(key, when, value)
        self.ingested_items += 1
        self.ingested_weight += float(value)

    def _fold_pending(
        self, front: AdmissionFront, pending: dict[str, list[float]]
    ) -> None:
        # _fold, inlined: this runs once per key per tick of every batch.
        fold = front._fold
        for key, values in pending.items():
            fold(key, values)
            self.ingested_items += len(values)
            self.ingested_weight += float(sum(values))
        pending.clear()

    def _push(self, now: int, key: str, when: int, value: float) -> None:
        """Admit one item to the heap, or drop it behind the window."""
        policy = self.policy
        assert policy is not None
        if when > self.watermark:
            self.watermark = when
        if when < now or when < self.watermark - policy.max_lateness:
            policy.note_dropped(value)
            return
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, key, value))

    def _drain(self, front: AdmissionFront, frontier: int | None) -> int:
        """Fold heap items due at ``frontier`` (all, for ``None``).

        Returns the clock after the last release.
        """
        heap = self._heap
        now = front.time
        while heap and (frontier is None or heap[0][0] <= frontier):
            when, _, key, value = heapq.heappop(heap)
            if when < now:
                assert self.policy is not None
                self.policy.note_dropped(value)
                continue
            if when > now:
                front._adv(when)
                now = when
            self._fold(front, key, [value])
        return now

    # --------------------------------------------------- ledgers/snapshot

    def stats(self) -> dict[str, Any]:
        """The admission half of a front's ``GET /keys`` ledger block."""
        policy = self.policy
        return {
            "ingested_items": self.ingested_items,
            "ingested_weight": self.ingested_weight,
            "dropped_count": 0 if policy is None else policy.dropped_count,
            "dropped_weight": 0.0 if policy is None else policy.dropped_weight,
            "buffered": len(self._heap),
            "watermark": self.watermark,
        }

    def to_dict(self) -> dict[str, Any]:
        """The admission fields of a ``service-store`` snapshot."""
        policy = self.policy
        return {
            "watermark": self.watermark,
            "policy": None
            if policy is None
            else {
                "kind": policy.kind,
                "max_lateness": policy.max_lateness,
                "dropped_count": policy.dropped_count,
                "dropped_weight": policy.dropped_weight,
            },
            "ingested_items": self.ingested_items,
            "ingested_weight": self.ingested_weight,
            "buffered": [
                [when, seq, key, value]
                for when, seq, key, value in sorted(self._heap)
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Admission":
        """A stage holding a snapshot's admission fields."""
        admission = cls()
        admission.restore(data)
        return admission

    def restore(self, data: Mapping[str, Any]) -> None:
        """Adopt a snapshot's admission fields in place (atomically).

        The live policy object survives: the snapshot's kind, window and
        drop ledger are loaded *into* it, so whoever else holds it (the
        ingestion daemon passes it on every batch) still passes the
        store's own policy afterwards.  A store without a policy gets a
        fresh one; a snapshot without one clears it.
        """
        spec = data.get("policy")
        loaded: OutOfOrderPolicy | None = None
        if spec is not None:
            loaded = OutOfOrderPolicy(
                spec["kind"], max_lateness=int(spec["max_lateness"])
            )
            loaded.dropped_count = int(spec["dropped_count"])
            loaded.dropped_weight = float(spec["dropped_weight"])
        watermark = int(data["watermark"])
        items = int(data["ingested_items"])
        weight = float(data["ingested_weight"])
        heap = [
            (int(when), int(seq), str(key), float(value))
            for when, seq, key, value in data["buffered"]
        ]
        heapq.heapify(heap)
        live = self.policy
        if live is not None and loaded is not None:
            live.kind = loaded.kind
            live.max_lateness = loaded.max_lateness
            live.dropped_count = loaded.dropped_count
            live.dropped_weight = loaded.dropped_weight
            loaded = live
        self.policy = loaded
        self.watermark = watermark
        self.ingested_items = items
        self.ingested_weight = weight
        self._heap = heap
        self._seq = max((seq for _, seq, _, _ in heap), default=0)
