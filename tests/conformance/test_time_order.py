"""Satellite: every engine's batch path honors the time-order contract.

Backward engines must raise :class:`~repro.core.errors.TimeOrderError`
on out-of-order timestamps (never silently mis-weight); engines whose
specs advertise ``order_insensitive`` (the forward-decay family) must
instead *accept* disordered traces bit-identically to the sorted replay
(conformance law CL007 as amended).  ``advance_to`` must refuse to move
the clock backwards on every engine, and genuinely late data has a
sanctioned route for the backward engines: the ``buffer``
:class:`~repro.core.timeorder.OutOfOrderPolicy` re-orders bounded
lateness in front of any engine.
"""

from __future__ import annotations

import pytest

from repro.conformance.engines import default_specs
from repro.core.batching import ingest_trace
from repro.core.errors import TimeOrderError
from repro.core.timeorder import OutOfOrderPolicy
from repro.serialize import engine_to_dict
from repro.streams.generators import StreamItem

SPECS = default_specs()

DISORDERED = [
    StreamItem(4, 1.0),
    StreamItem(9, 2.0),
    StreamItem(6, 1.0),  # out of order
]


@pytest.mark.parametrize("name", sorted(SPECS), ids=str)
class TestEveryEngineRejectsDisorder:
    def test_ingest_unsorted_raises_or_matches_sorted(self, name: str) -> None:
        spec = SPECS[name]
        engine = spec.build()
        if spec.order_insensitive:
            engine.ingest(DISORDERED)
            reference = spec.build()
            reference.ingest(sorted(DISORDERED, key=lambda i: i.time))
            assert engine.query().value == reference.query().value
        else:
            with pytest.raises(TimeOrderError):
                engine.ingest(DISORDERED)

    def test_ingest_before_clock_raises(self, name: str) -> None:
        spec = SPECS[name]
        engine = spec.build()
        engine.advance(10)
        if spec.order_insensitive:
            engine.ingest([StreamItem(4, 1.0)])
            assert engine.time == 10
        else:
            with pytest.raises(TimeOrderError):
                engine.ingest([StreamItem(4, 1.0)])

    def test_ingest_until_before_last_item_raises(self, name: str) -> None:
        engine = SPECS[name].build()
        with pytest.raises(TimeOrderError):
            engine.ingest([StreamItem(8, 1.0)], until=5)

    def test_advance_to_backwards_raises(self, name: str) -> None:
        engine = SPECS[name].build()
        engine.advance(7)
        with pytest.raises(TimeOrderError):
            engine.advance_to(3)

    def test_advance_to_current_time_is_noop(self, name: str) -> None:
        engine = SPECS[name].build()
        engine.advance(7)
        engine.advance_to(7)
        assert engine.time == 7


@pytest.mark.parametrize("name", sorted(SPECS), ids=str)
def test_lateness_buffer_is_the_sanctioned_route(name: str) -> None:
    """Disordered events under the buffer policy match the in-order run,
    bit for bit: answer, snapshot and drop ledger."""
    events = [(3, 1.0), (1, 2.0), (5, 1.0), (2, 4.0), (8, 1.0)]
    policy = OutOfOrderPolicy.buffered(7)
    buffered = SPECS[name].build()
    ingest_trace(
        buffered, [StreamItem(t, v) for t, v in events], until=13,
        policy=policy,
    )
    reference = SPECS[name].build()
    reference.ingest([StreamItem(t, v) for t, v in sorted(events)], until=13)
    est_b, est_r = buffered.query(), reference.query()
    assert (est_b.value, est_b.lower, est_b.upper) == (
        est_r.value,
        est_r.lower,
        est_r.upper,
    )
    assert engine_to_dict(buffered) == engine_to_dict(reference)
    assert (policy.dropped_count, policy.dropped_weight) == (0, 0.0)
