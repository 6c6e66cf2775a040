"""One out-of-order policy, every ingestion surface.

The contract: ``ingest_trace``, ``streams.io.replay`` and
``ServiceStore.observe_batch`` all route late items through the same
:class:`OutOfOrderPolicy`, with the default ``raise`` kind preserving
the historical ``TimeOrderError`` behavior, ``drop`` matching the
on-time-survivor replay plus an audited ledger, and ``buffer`` matching
the sorted replay of the surviving items bit for bit.
Order-insensitive engines (the forward family) accept late items
directly under *every* policy.
"""

import random

import pytest

from repro.conformance.engines import default_specs
from repro.core.batching import ingest_trace
from repro.core.decay import ExponentialDecay, PolynomialDecay
from repro.core.errors import TimeOrderError
from repro.core.ewma import ExponentialSum
from repro.core.exact import ExactDecayingSum
from repro.core.forward import ForwardDecay, ForwardDecaySum
from repro.core.interfaces import make_decaying_sum
from repro.core.timeorder import OutOfOrderPolicy
from repro.serialize import engine_to_dict
from repro.service import ServiceStore
from repro.streams.generators import StreamItem
from repro.streams.io import KeyedItem, replay


SPECS = default_specs()


def triplet(engine):
    est = engine.query()
    return est.value, est.lower, est.upper


def close(engine, reference):
    """Triplet agreement, bit for bit.

    The buffered path moves the clock from released item to released
    item, exactly as the sorted replay does, so even registers that
    multiply per advance (ewma) agree to the last ulp.
    """
    return triplet(engine) == triplet(reference)


def fresh_engines():
    """One engine per family that rejects out-of-order input natively."""
    return [
        ExactDecayingSum(PolynomialDecay(1.0)),
        ExponentialSum(ExponentialDecay(0.1)),
        make_decaying_sum(PolynomialDecay(1.0), epsilon=0.1),
    ]


LATE_TRACE = [
    StreamItem(0, 1.0),
    StreamItem(5, 2.0),
    StreamItem(3, 4.0),  # 2 ticks late
    StreamItem(8, 1.0),
    StreamItem(1, 8.0),  # 7 ticks late
    StreamItem(9, 1.0),
]
ON_TIME = [i for i in LATE_TRACE if i.time not in (3, 1)]
SORTED_TRACE = sorted(LATE_TRACE, key=lambda i: i.time)


class TestIngestTraceMatrix:
    def test_default_and_explicit_raise(self):
        for engine in fresh_engines():
            with pytest.raises(TimeOrderError):
                ingest_trace(engine, LATE_TRACE)
        for engine in fresh_engines():
            with pytest.raises(TimeOrderError):
                ingest_trace(
                    engine, LATE_TRACE, policy=OutOfOrderPolicy.raising()
                )

    def test_policies_neutral_on_sorted_traces(self):
        # Every policy is bit-identical to the plain replay on sorted input.
        for make_policy in (
            OutOfOrderPolicy.raising,
            OutOfOrderPolicy.dropping,
            lambda: OutOfOrderPolicy.buffered(4),
        ):
            for engine, reference in zip(fresh_engines(), fresh_engines()):
                policy = make_policy()
                ingest_trace(engine, SORTED_TRACE, until=12, policy=policy)
                ingest_trace(reference, SORTED_TRACE, until=12)
                assert close(engine, reference)
                assert policy.dropped_count == 0

    def test_drop_matches_survivor_replay_and_ledger(self):
        for engine, reference in zip(fresh_engines(), fresh_engines()):
            policy = OutOfOrderPolicy.dropping()
            ingest_trace(engine, LATE_TRACE, until=12, policy=policy)
            ingest_trace(reference, ON_TIME, until=12)
            assert triplet(engine) == triplet(reference)
            assert policy.dropped_count == 2
            assert policy.dropped_weight == 12.0

    def test_buffer_window_recovers_sorted_replay(self):
        # A window covering the worst lateness (7) loses nothing.
        for engine, reference in zip(fresh_engines(), fresh_engines()):
            policy = OutOfOrderPolicy.buffered(7)
            ingest_trace(engine, LATE_TRACE, until=12, policy=policy)
            ingest_trace(reference, SORTED_TRACE, until=12)
            assert close(engine, reference)
            assert policy.dropped_count == 0

    def test_buffer_window_drops_the_stragglers(self):
        # A window of 2 admits the 2-tick-late item, drops the 7-tick one.
        survivors = sorted(
            (i for i in LATE_TRACE if i.time != 1), key=lambda i: i.time
        )
        for engine, reference in zip(fresh_engines(), fresh_engines()):
            policy = OutOfOrderPolicy.buffered(2)
            ingest_trace(engine, LATE_TRACE, until=12, policy=policy)
            ingest_trace(reference, survivors, until=12)
            assert close(engine, reference)
            assert policy.dropped_count == 1
            assert policy.dropped_weight == 8.0

    @pytest.mark.parametrize(
        "name",
        sorted(n for n, spec in SPECS.items() if not spec.order_insensitive),
    )
    def test_buffer_equals_sorted_survivor_replay_on_every_cell(self, name):
        # Survivors are the items no older than the running watermark
        # minus the window; everything else lands on the drop ledger.
        rng = random.Random(name)
        for _ in range(40):
            window = rng.randrange(0, 6)
            trace = [
                StreamItem(rng.randrange(0, 50), float(rng.randrange(1, 5)))
                for _ in range(rng.randrange(0, 40))
            ]
            watermark, survivors, dropped = -1, [], []
            for item in trace:
                watermark = max(watermark, item.time)
                bucket = dropped if item.time < watermark - window else survivors
                bucket.append(item)
            policy = OutOfOrderPolicy.buffered(window)
            engine = SPECS[name].build()
            ingest_trace(engine, trace, until=60, policy=policy)
            reference = SPECS[name].build()
            ingest_trace(
                reference, sorted(survivors, key=lambda i: i.time), until=60
            )
            assert triplet(engine) == triplet(reference)
            assert engine_to_dict(engine) == engine_to_dict(reference)
            assert policy.dropped_count == len(dropped)
            assert policy.dropped_weight == sum(i.value for i in dropped)

    def test_forward_engines_bypass_every_policy(self):
        for make_policy in (
            lambda: None,
            OutOfOrderPolicy.raising,
            OutOfOrderPolicy.dropping,
            lambda: OutOfOrderPolicy.buffered(2),
        ):
            policy = make_policy()
            engine = ForwardDecaySum(ForwardDecay("exp", 0.05))
            reference = ForwardDecaySum(ForwardDecay("exp", 0.05))
            ingest_trace(engine, LATE_TRACE, until=12, policy=policy)
            ingest_trace(reference, SORTED_TRACE, until=12)
            assert triplet(engine) == triplet(reference)
            if policy is not None:
                assert policy.dropped_count == 0


class TestReplaySurface:
    def test_replay_threads_the_policy(self):
        policy = OutOfOrderPolicy.dropping()
        engine = replay(
            LATE_TRACE,
            ExactDecayingSum(PolynomialDecay(1.0)),
            until=12,
            policy=policy,
        )
        reference = replay(
            ON_TIME, ExactDecayingSum(PolynomialDecay(1.0)), until=12
        )
        assert triplet(engine) == triplet(reference)
        assert policy.dropped_count == 2

    def test_replay_default_still_raises(self):
        with pytest.raises(TimeOrderError):
            replay(LATE_TRACE, ExactDecayingSum(PolynomialDecay(1.0)))


class TestFleetSurface:
    """The keyed store: the same policy, keyed items reordered whole."""

    KEYED_LATE = [
        KeyedItem("a", 0, 1.0),
        KeyedItem("b", 5, 2.0),
        KeyedItem("a", 3, 4.0),  # late
        KeyedItem("b", 8, 1.0),
    ]

    def test_default_raises(self):
        store = ServiceStore(PolynomialDecay(1.0), epsilon=0.1)
        with pytest.raises(TimeOrderError):
            store.observe_batch(self.KEYED_LATE)

    def test_drop_counts_on_the_ledger(self):
        store = ServiceStore(PolynomialDecay(1.0), epsilon=0.1)
        policy = OutOfOrderPolicy.dropping()
        store.observe_batch(self.KEYED_LATE, policy=policy)
        reference = ServiceStore(PolynomialDecay(1.0), epsilon=0.1)
        reference.observe_batch(
            [i for i in self.KEYED_LATE if i.time != 3]
        )
        assert policy.dropped_count == 1
        assert policy.dropped_weight == 4.0
        for key in ("a", "b"):
            assert triplet_of(store, key) == triplet_of(reference, key)

    def test_buffer_reorders_whole_keyed_items(self):
        policy = OutOfOrderPolicy.buffered(5)
        store = ServiceStore(PolynomialDecay(1.0), epsilon=0.1, policy=policy)
        store.observe_batch(self.KEYED_LATE)
        store.flush()
        reference = ServiceStore(PolynomialDecay(1.0), epsilon=0.1)
        reference.observe_batch(
            sorted(self.KEYED_LATE, key=lambda i: i.time)
        )
        assert policy.dropped_count == 0
        assert store.time == reference.time
        for key in ("a", "b"):
            assert triplet_of(store, key) == triplet_of(reference, key)


def triplet_of(store, key):
    est = store.query(key)
    return est.value, est.lower, est.upper


class TestCrossSurfaceAgreement:
    def test_drop_policy_agrees_across_surfaces(self):
        rng = random.Random(17)
        trace = [
            StreamItem(max(0, rng.randrange(0, 60) - rng.choice([0, 0, 9])), 1.0)
            for _ in range(200)
        ]
        direct = ExactDecayingSum(PolynomialDecay(1.0))
        direct_policy = OutOfOrderPolicy.dropping()
        ingest_trace(direct, trace, until=70, policy=direct_policy)
        via_replay = replay(
            trace,
            ExactDecayingSum(PolynomialDecay(1.0)),
            until=70,
            policy=OutOfOrderPolicy.dropping(),
        )
        assert triplet(direct) == triplet(via_replay)
