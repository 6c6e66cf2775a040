"""Out-of-order arrivals: one policy and one admission stage.

Every ingestion surface used to raise its own
:class:`~repro.core.errors.TimeOrderError` on a late item -- the same
situation, several behaviors.  :class:`OutOfOrderPolicy` names the three
defensible answers once, and ``ingest_trace``, ``streams.io.replay``
and both keyed store fronts all take it:

* ``raise`` (the default, preserving historical behavior) -- a late item
  is a contract violation; fail loudly with :class:`TimeOrderError`.
* ``drop`` -- skip late items, counting them (and their total weight) on
  the policy so nothing disappears silently.
* ``buffer(max_lateness)`` -- reorder items within a bounded lateness
  window (the watermark model): an item is held until the watermark, the
  newest arrival seen, is ``max_lateness`` ticks past it; items later
  than the window are dropped and counted.

:class:`Admission` is the one implementation of that rule.  It turns a
feed into an ordered stream of clock moves and same-time folds on an
:class:`AdmissionFront`: the keyed stores
(:class:`~repro.service.store.ServiceStore`,
:class:`~repro.service.sharded.ShardedServiceStore`) are fronts, and so
is the single engine that ``ingest_trace`` drives under the ``buffer``
policy.

Engines that are natively order-insensitive -- the forward-decay family,
which exposes ``supports_out_of_order`` and ``add_at`` -- accept late
items directly; the policy never has to intervene for them.

Admission also checks each weight against the front's weight domain
before it reaches a ledger or the lateness heap: non-negative and finite,
and an integer on fronts whose engines declare ``integer_weights`` (the
EH-based families).  The engines keep their own checks.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Any, Iterable, Mapping, NoReturn, Protocol

from repro.core.errors import InvalidParameterError, ReproError, TimeOrderError

if TYPE_CHECKING:
    from repro.core.batching import KeyedTimedValue

__all__ = ["Admission", "AdmissionFront", "OutOfOrderPolicy"]

_KINDS = ("raise", "drop", "buffer")


class OutOfOrderPolicy:
    """What an ingestion surface does with an item behind the clock.

    The policy doubles as the run's lateness ledger: both the lossy kinds
    record every item they discard in ``dropped_count`` and
    ``dropped_weight``, so a caller tolerating late data can still audit
    how much of it there was.
    """

    __slots__ = ("kind", "max_lateness", "dropped_count", "dropped_weight")

    def __init__(self, kind: str = "raise", *, max_lateness: int = 0) -> None:
        if kind not in _KINDS:
            raise InvalidParameterError(
                f"policy kind must be one of {_KINDS}, got {kind!r}"
            )
        if max_lateness < 0:
            raise InvalidParameterError(
                f"max_lateness must be >= 0, got {max_lateness}"
            )
        if max_lateness and kind != "buffer":
            raise InvalidParameterError(
                "max_lateness only applies to the 'buffer' policy"
            )
        self.kind = kind
        self.max_lateness = int(max_lateness)
        self.dropped_count = 0
        self.dropped_weight = 0.0

    @classmethod
    def raising(cls) -> "OutOfOrderPolicy":
        """Late items are an error (the library-wide default)."""
        return cls("raise")

    @classmethod
    def dropping(cls) -> "OutOfOrderPolicy":
        """Late items are skipped, counted and weight-accounted."""
        return cls("drop")

    @classmethod
    def buffered(cls, max_lateness: int) -> "OutOfOrderPolicy":
        """Items up to ``max_lateness`` ticks late are reordered in."""
        return cls("buffer", max_lateness=max_lateness)

    def note_dropped(self, value: float) -> None:
        """Record one discarded item on the policy's ledger.

        A negative, NaN or infinite weight is refused, not ledgered: it
        would poison ``dropped_weight`` for every later audit.
        """
        if not 0 <= value < math.inf:
            raise InvalidParameterError(
                f"value must be finite and >= 0, got {value}"
            )
        self.dropped_count += 1
        self.dropped_weight += value

    def __repr__(self) -> str:
        window = (
            f", max_lateness={self.max_lateness}"
            if self.kind == "buffer"
            else ""
        )
        return f"OutOfOrderPolicy({self.kind!r}{window})"


def _fractional(values: Iterable[float]) -> bool:
    """Whether any value lies off the integers (NaN and inf included)."""
    return any(v % 1 for v in values)


def _refuse(key: str, values: list[float], integer: bool) -> NoReturn:
    """Reject a fold with a weight outside the front's domain, or with
    finite weights whose total overflows.

    The engines reject such weights too, but a sharded router ledgers a
    fold before its worker sees it.  A NaN or an infinity anywhere makes
    the batch sum non-finite, and a negative value makes the minimum
    negative: two C-level passes per fold keep all of them off every
    ingest ledger, and an integer domain adds one pass for fractions.
    """
    bad = next((v for v in values if not 0 <= v < math.inf), None)
    if bad is not None:
        raise InvalidParameterError(
            f"value must be finite and >= 0, got {bad} on {key!r}"
        )
    bad = next((v for v in values if integer and v % 1), None)
    if bad is not None:
        raise InvalidParameterError(
            f"value must be a non-negative integer, got {bad} on {key!r}"
        )
    raise InvalidParameterError(f"weights on {key!r} sum to infinity")


class AdmissionFront(Protocol):
    """What a front offers its admission stage.

    ``_adv(when)`` moves the front's clock, ``_fold(key, values)`` folds
    one key's same-time values at the clock (one call per key per
    distinct arrival time), and ``_late(key, when, value)`` hands a late
    item to engines that take it natively (``add_at``).
    ``integer_weights`` is the front's weight domain: non-negative
    integers when true, non-negative finite floats otherwise.
    """

    @property
    def time(self) -> int: ...

    @property
    def native_out_of_order(self) -> bool: ...

    @property
    def integer_weights(self) -> bool: ...

    def _adv(self, when: int) -> None: ...

    def _fold(self, key: str, values: list[float]) -> None: ...

    def _late(self, key: str, when: int, value: float) -> None: ...


class Admission:
    """Out-of-order policy, lateness heap and ingest ledgers of one front.

    Every write -- ``observe``, ``observe_values``, ``observe_batch``
    (with ``until``), ``advance_to`` and ``flush`` -- goes through here,
    and comes out as ``_adv``/``_fold``/``_late`` calls on the front.
    One stage for every front is what makes their clocks, fold grouping
    and ledgers agree bit for bit.

    ``policy`` is the front-level policy; the ``buffer`` kind must be
    installed here (not per call) because its heap is state that survives
    across ingest batches: an item arriving one batch late still lands in
    the right key, and :meth:`flush` drains the heap when the feed ends.

    The stage keeps no reference to its front -- the front passes itself
    to every call -- so a stage forms no reference cycle with the store
    that owns it, and the clock (``front.time``) stays front state.
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
        the policy, or go to ``_late`` on natively order-insensitive
        fronts.
        """
        now = front.time
        when = now if when is None else int(when)
        policy = self.policy
        native = front.native_out_of_order
        if policy is not None and policy.kind == "buffer" and not native:
            self._push(now, key, when, value, front.integer_weights)
            self._drain(front, self.watermark - policy.max_lateness)
            return
        if when < now:
            self._admit_late(front, policy, key, when, value)
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
        ``_late`` on natively order-insensitive fronts and otherwise
        follow ``policy`` (default: the front's policy): ``raise`` fails
        after folding exactly the items before the offending one, ``drop``
        counts them on the policy ledger, and the front-level ``buffer``
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
            integer = front.integer_weights
            try:
                for item in items:
                    self._push(now, item.key, item.time, item.value, integer)
            finally:
                # A refused item still releases what is due before it.
                now = self._drain(front, self.watermark - pol.max_lateness)
        else:
            pending: dict[str, list[float]] = {}
            for item in items:
                when = item.time
                if when < now:
                    try:
                        self._admit_late(front, pol, item.key, when, item.value)
                    except ReproError:
                        # Fold exactly the items before the offending one.
                        self._fold_pending(front, pending)
                        raise
                    continue
                if when > now:
                    self._fold_pending(front, pending)
                    front._adv(when)
                    now = when
                pending.setdefault(item.key, []).append(item.value)
            self._fold_pending(front, pending)
        if until is not None:
            self.advance_to(front, until)

    def advance_to(self, front: AdmissionFront, when: int) -> None:
        """Move the clock to ``when``; it never moves back."""
        now = front.time
        if when < now:
            raise TimeOrderError(
                f"cannot move the clock back: {now} -> {when}"
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

    def _admit_late(
        self,
        front: AdmissionFront,
        policy: OutOfOrderPolicy | None,
        key: str,
        when: int,
        value: float,
    ) -> None:
        """One item behind the clock: ``_late``, a drop, or an error."""
        if front.native_out_of_order:
            self._late(front, key, when, value)
        elif policy is not None and policy.kind != "raise":
            policy.note_dropped(value)
        else:
            raise TimeOrderError(
                f"item time {when} precedes the clock {front.time}; "
                "sort the feed or pass an OutOfOrderPolicy"
            )

    def _fold(
        self, front: AdmissionFront, key: str, values: list[float]
    ) -> None:
        weight = float(sum(values))
        integer = front.integer_weights
        if not (weight < math.inf and min(values) >= 0) or (
            integer and _fractional(values)
        ):
            _refuse(key, values, integer)
        front._fold(key, values)
        self.ingested_items += len(values)
        self.ingested_weight += weight

    def _late(
        self, front: AdmissionFront, key: str, when: int, value: float
    ) -> None:
        integer = front.integer_weights
        if not 0 <= value < math.inf or (integer and value % 1):
            _refuse(key, [value], integer)
        front._late(key, when, value)
        self.ingested_items += 1
        self.ingested_weight += float(value)

    def _fold_pending(
        self, front: AdmissionFront, pending: dict[str, list[float]]
    ) -> None:
        # _fold, inlined: this runs once per key per tick of every batch.
        fold = front._fold
        inf = math.inf
        integer = front.integer_weights
        for key, values in pending.items():
            weight = float(sum(values))
            if not (weight < inf and min(values) >= 0) or (
                integer and _fractional(values)
            ):
                _refuse(key, values, integer)
            fold(key, values)
            self.ingested_items += len(values)
            self.ingested_weight += weight
        pending.clear()

    def _push(
        self, now: int, key: str, when: int, value: float, integer: bool
    ) -> None:
        """Admit one item to the heap, or drop it behind the window.

        A negative time or a weight outside the front's domain is refused
        before it can reach the heap, the watermark or a ledger.
        """
        policy = self.policy
        assert policy is not None
        if when < 0:
            raise InvalidParameterError(f"time must be >= 0, got {when}")
        if not 0 <= value < math.inf or (integer and value % 1):
            _refuse(key, [value], integer)
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
