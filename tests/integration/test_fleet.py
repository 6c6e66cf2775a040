"""Integration tests for the keyed store as the §1.1 many-streams fleet.

One decayed summary per customer is :class:`ServiceStore`'s job: keys are
created lazily on a shared clock, WBMH keys share one region schedule,
storage is reported with shared bits counted once, and two stores that
saw disjoint halves of the traffic fold together key by key through
``merge_into(key, other.export_engine(key))`` -- which is also how a
keyed trace is backfilled in partitions split by ``shard_of``.
"""

import random

import pytest

from repro.core.decay import (
    ExponentialDecay,
    PolyexponentialDecay,
    PolynomialDecay,
    SlidingWindowDecay,
)
from repro.core.errors import InvalidParameterError, TimeOrderError
from repro.core.exact import ExactDecayingSum
from repro.core.interfaces import make_decaying_sum
from repro.service import ServiceStore
from repro.service.sharded import shard_of
from repro.streams.io import KeyedItem


def triplet(estimate):
    return estimate.value, estimate.lower, estimate.upper


def absorb(store, other):
    """Fold every key of ``other`` into ``store`` (the shard-merge path)."""
    for key in other.keys():
        store.merge_into(key, other.export_engine(key))


class TestBasics:
    def test_lazy_keys_and_ratings(self):
        store = ServiceStore(PolynomialDecay(1.0), epsilon=0.1)
        store.observe("a", 1.0)
        store.observe("b", 5.0)
        store.advance(10)
        assert len(store) == 2
        assert store.query("b").value > store.query("a").value
        with pytest.raises(KeyError):
            store.query("missing")
        assert "missing" not in store

    def test_late_joining_key_gets_current_clock(self):
        store = ServiceStore(PolynomialDecay(1.0), epsilon=0.1)
        store.observe("early", 1.0)
        store.advance(50)
        store.observe("late", 1.0)
        # Both engines share the store clock.
        assert store.export_engine("late").time == store.time == 50
        assert store.export_engine("early").time == 50

    def test_observe_at_time(self):
        store = ServiceStore(ExponentialDecay(0.1))
        store.observe("a", 1.0, when=5)
        store.observe("a", 1.0, when=9)
        assert store.time == 9
        with pytest.raises(TimeOrderError):
            store.observe("a", 1.0, when=3)

    def test_accuracy_against_exact(self):
        decay = PolynomialDecay(1.0)
        store = ServiceStore(decay, epsilon=0.1)
        exact = {k: ExactDecayingSum(decay) for k in ("a", "b")}
        rng = random.Random(2)
        for _ in range(500):
            for k in ("a", "b"):
                if rng.random() < 0.5:
                    v = rng.uniform(0.5, 2.0)
                    store.observe(k, v)
                    exact[k].add(v)
            store.advance(1)
            for e in exact.values():
                e.advance(1)
        for k in ("a", "b"):
            assert store.query(k).contains(exact[k].query().value)


class TestEngineSelection:
    def test_wbmh_schedules_are_shared(self):
        store = ServiceStore(PolynomialDecay(1.0), epsilon=0.2)
        store.observe("a", 1.0)
        store.observe("b", 1.0)
        # One schedule object for the whole store.
        assert store.engine("a").schedule is store.engine("b").schedule

    def test_sliwin_and_expd_fleets(self):
        for decay in (SlidingWindowDecay(32), ExponentialDecay(0.1)):
            store = ServiceStore(decay, epsilon=0.2)
            store.observe("k", 1.0)
            store.advance(5)
            assert store.query("k").value >= 0.0

    def test_polyexponential_fleet_uses_the_factory_engine(self):
        # Polyexponential weights rise before they fall, so only the exact
        # register pipeline make_decaying_sum picks certifies its bracket.
        decay = PolyexponentialDecay(2, 0.1)
        store = ServiceStore(decay)
        direct = make_decaying_sum(decay, 0.1)
        for t in range(20):
            store.observe("k", 1.0 + t % 3, when=t)
            direct.advance_to(t)
            direct.add(1.0 + t % 3)
        assert triplet(store.query("k")) == triplet(direct.query())

    def test_custom_factory(self):
        decay = PolynomialDecay(1.0)
        store = ServiceStore(
            decay, engine_factory=lambda: ExactDecayingSum(decay)
        )
        store.observe("k", 2.0)
        store.advance(3)
        assert store.query("k").value == pytest.approx(2.0 * decay.weight(3))


class TestStorageAccounting:
    def test_shared_bits_counted_once(self):
        store = ServiceStore(PolynomialDecay(1.0), epsilon=0.2)
        for k in range(20):
            store.observe(str(k), 1.0)
        for _ in range(200):
            store.advance(1)
            for k in range(20):
                store.observe(str(k), 1.0)
        rep = store.storage_report()
        one = store.key_storage_report("0")
        assert rep.shared_bits == one.shared_bits  # once, not 20x
        assert rep.per_stream_bits >= 20 * one.per_stream_bits * 0.5

    def test_per_key_bits(self):
        store = ServiceStore(PolynomialDecay(1.0), epsilon=0.2)
        store.observe("a", 1.0)
        store.advance(10)
        assert store.keys() == ["a"]
        bits = store.key_storage_report("a").per_stream_bits
        assert bits > 0
        assert store.storage_report().per_stream_bits == bits


class TestShardMerge:
    def test_absorb_shards(self):
        decay = ExponentialDecay(0.05)
        shard1 = ServiceStore(decay)
        shard2 = ServiceStore(decay)
        union = ServiceStore(decay)
        rng = random.Random(5)
        for _ in range(200):
            for key in ("a", "b", "c"):
                x = rng.random()
                y = rng.random()
                shard1.observe(key, x)
                shard2.observe(key, y)
                union.observe(key, x + y)
            shard1.advance(1)
            shard2.advance(1)
            union.advance(1)
        absorb(shard1, shard2)
        for key in ("a", "b", "c"):
            assert shard1.query(key).value == pytest.approx(
                union.query(key).value
            )

    def test_absorb_disjoint_keys(self):
        decay = ExponentialDecay(0.05)
        shard1 = ServiceStore(decay)
        shard2 = ServiceStore(decay)
        shard1.observe("only1", 1.0)
        shard2.observe("only2", 2.0)
        shard1.advance(1)
        shard2.advance(1)
        absorb(shard1, shard2)
        assert shard1.keys() == ["only1", "only2"]
        assert shard1.query("only2").value == shard2.query("only2").value

    def test_absorb_validation(self):
        store = ServiceStore(ExponentialDecay(0.1))
        store.observe("k", 1.0)
        other = ServiceStore(PolynomialDecay(1.0))
        other.observe("k", 1.0)
        with pytest.raises(InvalidParameterError):
            store.merge_into("k", other.export_engine("k"))
        assert store.query("k").value == 1.0


class TestObserveBatch:
    """Keyed batch ingestion: grouped per key, one clock advance per tick."""

    def _random_keyed_trace(self, n, seed):
        rng = random.Random(seed)
        t = 0
        items = []
        for _ in range(n):
            t += rng.randrange(3)
            items.append(
                KeyedItem(rng.choice("abcd"), t, float(rng.randrange(4)))
            )
        return items

    @pytest.mark.parametrize(
        "decay",
        [ExponentialDecay(0.05), SlidingWindowDecay(64), PolynomialDecay(1.0)],
    )
    def test_bit_identical_to_sequential_observe(self, decay):
        items = self._random_keyed_trace(300, seed=5)
        sequential = ServiceStore(decay, 0.1)
        for item in items:
            sequential.observe(item.key, item.value, when=item.time)
        batched = ServiceStore(decay, 0.1)
        batched.observe_batch(items)
        assert batched.time == sequential.time
        assert batched.keys() == sequential.keys()
        for key in sequential.keys():
            assert triplet(batched.query(key)) == triplet(
                sequential.query(key)
            )

    def test_rejects_time_regress(self):
        store = ServiceStore(ExponentialDecay(0.1))
        store.advance(10)
        with pytest.raises(TimeOrderError):
            store.observe_batch([KeyedItem("a", 3, 1.0)])

    def test_new_keys_join_at_current_clock(self):
        store = ServiceStore(SlidingWindowDecay(32), 0.1)
        store.observe_batch(
            [KeyedItem("old", 0, 1.0), KeyedItem("new", 20, 1.0)]
        )
        assert store.time == 20
        for key in ("old", "new"):
            assert store.export_engine(key).time == 20


def _keyed_trace(seed):
    rng = random.Random(seed)
    keys = ["alpha", "beta", "gamma", "delta"]
    items, t = [], 0
    for _ in range(400):
        t += rng.choice([0, 1, 1])
        items.append(KeyedItem(rng.choice(keys), t, float(rng.randint(1, 3))))
    return items, t + 2, keys


def _serial(decay, items, end):
    store = ServiceStore(decay, 0.1)
    store.observe_batch(items, until=end)
    return store


def _partitioned(decay, items, end, shards):
    """Backfill each key partition alone, then fold them into one store."""
    parts = [ServiceStore(decay, 0.1) for _ in range(shards)]
    for index, part in enumerate(parts):
        part.observe_batch(
            [i for i in items if shard_of(i.key, shards) == index], until=end
        )
    for part in parts[1:]:
        absorb(parts[0], part)
    return parts[0]


def _ranking(store):
    return sorted(store.keys(), key=lambda k: (-store.query(k).value, k))


class TestParallelFleetIngest:
    """Key-partitioned backfill: split a keyed trace by ``shard_of``,
    ingest each partition into its own store, fold the stores."""

    @pytest.mark.parametrize(
        "decay",
        [ExponentialDecay(0.1), SlidingWindowDecay(50)],
        ids=lambda d: d.describe(),
    )
    def test_pool_fleet_matches_serial_fleet(self, decay):
        items, end, keys = _keyed_trace(31)
        serial = _serial(decay, items, end)
        pooled = _partitioned(decay, items, end, shards=2)
        assert pooled.keys() == serial.keys()
        assert pooled.time == end
        for key in keys:
            assert pooled.query(key).value == pytest.approx(
                serial.query(key).value, rel=1e-9
            )

    def test_rankings_survive_the_pool(self):
        items, end, _ = _keyed_trace(32)
        decay = ExponentialDecay(0.05)
        serial = _serial(decay, items, end)
        pooled = _partitioned(decay, items, end, shards=2)
        assert _ranking(pooled)[:3] == _ranking(serial)[:3]

    def test_single_shard_no_pool(self):
        items, end, keys = _keyed_trace(33)
        pooled = _partitioned(ExponentialDecay(0.1), items, end, shards=1)
        assert pooled.keys() == sorted({item.key for item in items})


class TestFleetMergeAndAdopt:
    def test_fleet_merge_generalizes_absorb(self):
        decay = SlidingWindowDecay(40)
        items, end, keys = _keyed_trace(41)
        serial = _serial(decay, items, end)
        # Key-partition by hand, merge the two halves.
        left = ServiceStore(decay, 0.1)
        right = ServiceStore(decay, 0.1)
        for item in items:
            target = left if item.key < "c" else right
            target.observe(item.key, item.value, when=item.time)
        left.advance_to(end)
        right.advance_to(end)
        absorb(left, right)
        for key in keys:
            got = left.query(key)
            want = serial.query(key)
            assert got.lower <= want.value <= got.upper or (
                got.value == pytest.approx(want.value, rel=1e-9)
            )

    def test_merge_advances_younger_fleet(self):
        decay = ExponentialDecay(0.1)
        a = ServiceStore(decay, 0.1)
        b = ServiceStore(decay, 0.1)
        a.observe("x", 2.0, when=10)
        b.observe("y", 3.0)  # at t=0; b's clock then moves to 4
        b.advance_to(4)
        a.merge_into("y", b.export_engine("y"))
        assert a.time == 10
        # y's mass decayed from t=0 to t=10 during alignment.
        assert a.query("y").value == pytest.approx(
            3.0 * decay.weight(10 - 0), rel=1e-9
        )
