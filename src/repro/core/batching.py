"""Shared batch-ingestion helpers for decaying-sum engines.

Every engine exposes the same three batch entry points:

* ``add_batch(values)`` -- several items at the current clock instant;
* ``advance_to(when)`` -- jump the clock to an absolute time;
* ``ingest(items)`` -- consume a whole time-sorted ``(time, value)`` trace.

Engines implement ``add_batch`` natively (a register fold for the EXPD
family, a binary-decomposition bulk insert for the EH family, a live-bucket
fold for WBMH); the engine-independent parts -- clock arithmetic and the
group-by-arrival-time replay loop -- live here so per-engine code stays a
thin, fast fold.

Equivalence contract (enforced by ``tests/property/test_property_batching``):
for every engine, ``add_batch(values)`` is *bit-identical* to
``for v in values: add(v)``, and ``ingest(items)`` is bit-identical to the
item-at-a-time replay loop ``advance-to-arrival; add``.  Batching therefore
amortizes per-item overhead without perturbing the paper's certified
brackets by even one ulp.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Protocol, Sequence

from repro.core.errors import NotApplicableError, TimeOrderError
from repro.core.timeorder import Admission, OutOfOrderPolicy

__all__ = [
    "TimedValue",
    "KeyedTimedValue",
    "BatchEngine",
    "advance_engine_to",
    "ingest_trace",
]


class TimedValue(Protocol):
    """Structural trace item: an integer arrival time and a value.

    :class:`~repro.streams.generators.StreamItem` and
    :class:`~repro.streams.io.KeyedItem` both match.
    """

    __slots__ = ()

    @property
    def time(self) -> int: ...

    @property
    def value(self) -> float: ...


class KeyedTimedValue(TimedValue, Protocol):
    """A trace item tagged with the stream it belongs to (keyed traces)."""

    __slots__ = ()

    @property
    def key(self) -> Hashable: ...


class BatchEngine(Protocol):
    """Minimal structural surface the batch helpers drive.

    Narrower than :class:`~repro.core.interfaces.DecayingSum` so that bare
    histogram substrates (:class:`~repro.histograms.eh.ExponentialHistogram`,
    :class:`~repro.histograms.domination.DominationHistogram`) can share the
    same helpers even though they carry no decay function.
    """

    __slots__ = ()

    @property
    def time(self) -> int: ...

    def advance(self, steps: int = 1) -> None: ...

    def add(self, value: float = 1.0) -> None: ...

    def add_batch(self, values: Sequence[float]) -> None: ...


def advance_engine_to(engine: BatchEngine, when: int) -> None:
    """Advance ``engine``'s clock to the absolute time ``when``.

    Raises :class:`TimeOrderError` if ``when`` precedes the engine clock --
    decaying-sum clocks are monotone (paper section 2).
    """
    if when < engine.time:
        raise TimeOrderError(
            f"cannot move the clock back: {engine.time} -> {when}"
        )
    if when > engine.time:
        engine.advance(when - engine.time)


def ingest_trace(  # lintkit: hot
    engine: BatchEngine,
    items: Iterable[TimedValue],
    *,
    until: int | None = None,
    policy: OutOfOrderPolicy | None = None,
) -> None:
    """Replay a time-sorted ``(time, value)`` trace through the batch path.

    Consecutive items sharing an arrival time are folded into a single
    ``add_batch`` call (a lone item goes through ``add``, which is
    bit-identical by the batch contract) and the clock advances once per
    *distinct* arrival time, so the per-item work is amortized over each
    batch instead of being paid per call.  ``until`` advances the clock
    past the last item (for queries "later on").

    ``policy`` decides what happens to an item whose time precedes the
    engine clock (see :class:`~repro.core.timeorder.OutOfOrderPolicy`):
    the default ``raise`` policy fails with :class:`TimeOrderError` on the
    first out-of-order item, ``drop`` skips and counts them, and
    ``buffer`` reorders them within a bounded lateness window through the
    keyed stores' :class:`~repro.core.timeorder.Admission` stage, run
    over the engine as a one-key front.  The heap drains when the trace
    ends, so the engine equals the sorted replay of the surviving items,
    bit for bit.  Engines advertising ``supports_out_of_order`` (the
    forward-decay family) take late items directly via ``add_at`` under
    every policy.
    """
    native = getattr(engine, "supports_out_of_order", False)
    if policy is not None and policy.kind == "buffer" and not native:
        front = _EngineFront(engine)
        admission = Admission(policy)
        for item in items:
            admission.observe(front, "", item.value, item.time)
        admission.flush(front)
        if until is not None:
            admission.advance_to(front, until)
        return
    drop = policy is not None and policy.kind == "drop"
    # Hand-rolled lookahead loop instead of itertools.groupby: the engine
    # clock is tracked in a local int (``advance`` moves it by exactly the
    # requested steps, a protocol invariant), singleton groups -- the common
    # case on dense traces -- go through ``add`` without materializing a
    # one-element list, and each item's attributes are read exactly once.
    # This is the ingestion hot path; batched mode must beat the bare
    # advance/add item loop, so every per-item allocation here counts.
    now = engine.time
    advance = engine.advance
    add = engine.add
    add_batch = engine.add_batch
    it = iter(items)
    item = next(it, None)
    while item is not None:
        when = item.time
        if when != now:
            if when < now:
                if native:
                    engine.add_at(when, item.value)  # type: ignore[attr-defined]
                elif drop and policy is not None:
                    policy.note_dropped(item.value)
                else:
                    raise TimeOrderError(
                        f"trace time {when} precedes engine clock {now}; "
                        "sort the trace or pass an OutOfOrderPolicy"
                    )
                item = next(it, None)
                continue
            advance(when - now)
            now = when
        value = item.value
        item = next(it, None)
        if item is None or item.time != when:
            add(value)
            continue
        values = [value, item.value]
        item = next(it, None)
        while item is not None and item.time == when:
            values.append(item.value)
            item = next(it, None)
        add_batch(values)
    if until is not None:
        if until < engine.time:
            raise TimeOrderError(
                f"until={until} precedes the clock after replay "
                f"({engine.time}); clocks are monotone"
            )
        if until > engine.time:
            engine.advance(until - engine.time)


class _EngineFront:
    """One engine as a one-key :class:`~repro.core.timeorder.Admission`
    front: the ``buffer`` policy of :func:`ingest_trace`."""

    __slots__ = ("_engine", "integer_weights")

    #: Order-insensitive engines never reach a buffering front.
    native_out_of_order = False

    def __init__(self, engine: BatchEngine) -> None:
        self._engine = engine
        #: The engine's declared weight domain, checked at admission.
        self.integer_weights = bool(getattr(engine, "integer_weights", False))

    @property
    def time(self) -> int:
        return self._engine.time

    def _adv(self, when: int) -> None:
        self._engine.advance(when - self._engine.time)

    def _fold(self, key: str, values: list[float]) -> None:
        self._engine.add_batch(values)

    def _late(self, key: str, when: int, value: float) -> None:
        raise NotApplicableError("a one-engine front takes no late items")
