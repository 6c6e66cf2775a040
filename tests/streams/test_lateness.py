"""Unit tests for bounded lateness: the ``buffer`` out-of-order policy.

One implementation serves every surface: the keyed stores hold late items
in their :class:`~repro.core.timeorder.Admission` heap until the
watermark (the newest arrival seen) is ``max_lateness`` ticks past them,
and ``ingest_trace`` runs the same stage over a single engine, draining
the heap when the trace ends.
"""

import random
from collections import namedtuple

import pytest

from repro.core.batching import ingest_trace
from repro.core.decay import PolynomialDecay
from repro.core.errors import InvalidParameterError, TimeOrderError
from repro.core.exact import ExactDecayingSum
from repro.core.timeorder import OutOfOrderPolicy
from repro.service import ServiceStore
from repro.streams.generators import StreamItem
from repro.streams.io import KeyedItem

DECAY = PolynomialDecay(1.0)

#: A bare trace row: unlike ``StreamItem`` it lets negative times and
#: weights through, so the buffer's own checks are what is tested.
Row = namedtuple("Row", "time value")


def shuffled_trace(length, max_lateness, seed):
    """In-order trace plus a bounded shuffle: item t delivered within L."""
    rng = random.Random(seed)
    events = [(t, rng.uniform(0.5, 2.0)) for t in range(length)
              if rng.random() < 0.6]
    delivered = sorted(
        events, key=lambda e: e[0] + rng.randint(0, max_lateness) * 0.9
    )
    return events, delivered


def buffered(events, max_lateness, engine=None):
    """``events`` through the buffer policy; returns (engine, policy)."""
    engine = ExactDecayingSum(DECAY) if engine is None else engine
    policy = OutOfOrderPolicy.buffered(max_lateness)
    ingest_trace(
        engine, [StreamItem(t, v) for t, v in events], policy=policy
    )
    return engine, policy


def replayed(events, engine=None):
    """The sorted replay: ``events`` stably sorted by time, folded."""
    engine = ExactDecayingSum(DECAY) if engine is None else engine
    ingest_trace(
        engine,
        [StreamItem(t, v) for t, v in sorted(events, key=lambda e: e[0])],
    )
    return engine


def store_for(max_lateness):
    return ServiceStore(
        DECAY,
        policy=OutOfOrderPolicy.buffered(max_lateness),
        engine_factory=lambda: ExactDecayingSum(DECAY),
    )


class TestOrderingContract:
    def test_matches_in_order_reference_at_frontier(self):
        # Mid-feed, the store has folded exactly the items at or before
        # the frontier (watermark - L), in time order.
        L = 8
        events, delivered = shuffled_trace(400, L, seed=3)
        store = store_for(L)
        store.observe_batch(KeyedItem("k", t, v) for t, v in delivered)
        frontier = store.stats()["watermark"] - L
        reference = replayed([e for e in events if e[0] <= frontier])
        assert store.time == reference.time
        assert store.query("k").value == reference.query().value
        assert store.stats()["buffered"] == sum(
            1 for t, _ in events if t > frontier
        )
        assert store.stats()["dropped_count"] == 0

    def test_engine_never_sees_regression(self):
        class Watched(ExactDecayingSum):
            def add_batch(self, values):
                seen.append(self.time)
                super().add_batch(values)

        seen = []
        rng = random.Random(4)
        times = list(range(100))
        rng.shuffle(times)
        # Deliver in a random order but bounded by construction below.
        delivered = sorted(times, key=lambda t: t + rng.randint(0, 5))
        engine, policy = buffered([(t, 1.0) for t in delivered], 5,
                                  engine=Watched(DECAY))
        assert seen == sorted(seen)
        assert engine.time == 99
        assert policy.dropped_count == 0

    def test_too_late_events_dropped_and_counted(self):
        # watermark 100, frontier 98: 50 is too late, 99 is within bound.
        engine, policy = buffered([(100, 1.0), (50, 1.0), (99, 1.0)], 2)
        assert policy.dropped_count == 1
        assert engine.query().value == replayed(
            [(99, 1.0), (100, 1.0)]
        ).query().value


class TestWatermark:
    def test_frontier_lags_by_bound(self):
        store = store_for(10)
        store.observe("k", 1.0, when=25)
        assert store.stats()["watermark"] == 25
        # The event itself sits past the frontier (15), still buffered.
        assert store.stats()["buffered"] == 1
        assert "k" not in store
        assert store.time == 0

    def test_watermark_regression_rejected(self):
        store = store_for(1)
        store.advance_to(10)
        with pytest.raises(TimeOrderError):
            store.advance_to(5)

    def test_zero_lateness_is_strict_ordering(self):
        store = store_for(0)
        store.observe("k", 1.0, when=5)
        assert store.time == 5
        assert store.stats()["buffered"] == 0
        store.observe("k", 1.0, when=4)
        assert store.stats()["dropped_count"] == 1


class TestValidation:
    def test_rejects_bad_args(self):
        with pytest.raises(InvalidParameterError):
            OutOfOrderPolicy.buffered(-1)
        for row in (Row(-1, 1.0), Row(1, -1.0), Row(1, float("nan"))):
            policy = OutOfOrderPolicy.buffered(1)
            with pytest.raises(InvalidParameterError):
                ingest_trace(ExactDecayingSum(DECAY), [row], policy=policy)
            assert policy.dropped_count == 0

    def test_mid_stream_engine_starts_at_its_clock(self):
        # The buffer policy takes engines that have already run: anything
        # behind the engine clock is (correctly) too late.
        engine = ExactDecayingSum(DECAY)
        engine.advance(3)
        engine, policy = buffered([(2, 5.0), (4, 1.0)], 1, engine=engine)
        assert policy.dropped_count == 1
        assert policy.dropped_weight == 5.0
        assert engine.time == 4
        reference = ExactDecayingSum(DECAY)
        reference.advance(3)
        assert engine.query().value == replayed(
            [(4, 1.0)], engine=reference
        ).query().value

    def test_storage_report_notes_buffer(self):
        # The store's ledger block reports what the buffer holds.
        store = store_for(10)
        store.observe("k", 1.0, when=25)
        stats = store.stats()
        assert stats["buffered"] == 1
        assert stats["dropped_count"] == 0
        assert stats["dropped_weight"] == 0.0

    def test_storage_report_carries_the_dropped_weight(self):
        store = store_for(2)
        store.observe("k", 1.0, when=100)
        store.observe("k", 2.5, when=50)  # too late
        stats = store.stats()
        assert stats["dropped_count"] == 1
        assert stats["dropped_weight"] == 2.5


class TestDrain:
    def test_drain_flushes_the_window(self):
        store = store_for(10)
        store.observe("k", 1.0, when=25)
        store.observe("k", 2.0, when=20)
        assert store.stats()["buffered"] == 2
        store.flush()
        assert store.stats()["buffered"] == 0
        # The clock sits at the newest accepted timestamp...
        assert store.time == 25
        # ...and the watermark did not move.
        assert store.stats()["watermark"] == 25

    def test_drain_matches_sorted_replay(self):
        events = [(7, 1.0), (3, 2.0), (9, 4.0), (5, 1.0)]
        engine, policy = buffered(events, 10)
        reference = replayed(events)
        assert engine.time == reference.time == 9
        assert engine.query().value == reference.query().value
        assert policy.dropped_count == 0

    def test_drain_on_empty_buffer_is_a_noop(self):
        store = store_for(10)
        store.flush()
        assert store.time == 0
        engine, _ = buffered([], 10)
        assert engine.time == 0
