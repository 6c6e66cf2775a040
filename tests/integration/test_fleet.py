"""Integration tests for StreamFleet (the §1.1 many-streams scenario)."""

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
from repro.fleet import StreamFleet


class TestBasics:
    def test_lazy_keys_and_ratings(self):
        fleet = StreamFleet(PolynomialDecay(1.0), epsilon=0.1)
        fleet.observe("a", 1.0)
        fleet.observe("b", 5.0)
        fleet.advance(10)
        assert len(fleet) == 2
        assert fleet.rating("b").value > fleet.rating("a").value
        assert fleet.rating("missing").value == 0.0

    def test_late_joining_key_gets_current_clock(self):
        fleet = StreamFleet(PolynomialDecay(1.0), epsilon=0.1)
        fleet.observe("early", 1.0)
        fleet.advance(50)
        fleet.observe("late", 1.0)
        # Both engines share the fleet clock.
        assert fleet._engines["late"].time == fleet.time == 50

    def test_observe_at_time(self):
        fleet = StreamFleet(ExponentialDecay(0.1))
        fleet.observe("a", 1.0, when=5)
        fleet.observe("a", 1.0, when=9)
        assert fleet.time == 9
        with pytest.raises(TimeOrderError):
            fleet.observe("a", 1.0, when=3)

    def test_top_bottom(self):
        fleet = StreamFleet(PolynomialDecay(1.0))
        for key, count in (("x", 1), ("y", 3), ("z", 7)):
            for _ in range(count):
                fleet.observe(key, 1.0)
        fleet.advance(1)
        assert [k for k, _ in fleet.top(2)] == ["z", "y"]
        assert [k for k, _ in fleet.bottom(1)] == ["x"]
        with pytest.raises(InvalidParameterError):
            fleet.top(-1)

    def test_accuracy_against_exact(self):
        decay = PolynomialDecay(1.0)
        fleet = StreamFleet(decay, epsilon=0.1)
        exact = {k: ExactDecayingSum(decay) for k in ("a", "b")}
        rng = random.Random(2)
        for _ in range(500):
            for k in ("a", "b"):
                if rng.random() < 0.5:
                    v = rng.uniform(0.5, 2.0)
                    fleet.observe(k, v)
                    exact[k].add(v)
            fleet.advance(1)
            for e in exact.values():
                e.advance(1)
        for k in ("a", "b"):
            assert fleet.rating(k).contains(exact[k].query().value)


class TestEngineSelection:
    def test_wbmh_schedules_are_shared(self):
        fleet = StreamFleet(PolynomialDecay(1.0), epsilon=0.2)
        fleet.observe("a", 1.0)
        fleet.observe("b", 1.0)
        a = fleet._engines["a"]
        b = fleet._engines["b"]
        assert a.schedule is b.schedule  # one object for the whole fleet

    def test_sliwin_and_expd_fleets(self):
        for decay in (SlidingWindowDecay(32), ExponentialDecay(0.1)):
            fleet = StreamFleet(decay, epsilon=0.2)
            fleet.observe("k", 1.0)
            fleet.advance(5)
            assert fleet.rating("k").value >= 0.0

    def test_polyexponential_fleet_uses_the_factory_engine(self):
        # Polyexponential weights rise before they fall, so only the exact
        # register pipeline make_decaying_sum picks certifies its bracket.
        decay = PolyexponentialDecay(2, 0.1)
        fleet = StreamFleet(decay)
        direct = make_decaying_sum(decay, 0.1)
        for t in range(20):
            fleet.observe("k", 1.0 + t % 3, when=t)
            direct.advance_to(t)
            direct.add(1.0 + t % 3)
        got, want = fleet.rating("k"), direct.query()
        assert (got.value, got.lower, got.upper) == (
            want.value, want.lower, want.upper
        )

    def test_custom_factory(self):
        decay = PolynomialDecay(1.0)
        fleet = StreamFleet(
            decay, engine_factory=lambda: ExactDecayingSum(decay)
        )
        fleet.observe("k", 2.0)
        fleet.advance(3)
        assert fleet.rating("k").value == pytest.approx(2.0 * decay.weight(3))


class TestStorageAccounting:
    def test_shared_bits_counted_once(self):
        fleet = StreamFleet(PolynomialDecay(1.0), epsilon=0.2)
        for k in range(20):
            fleet.observe(k, 1.0)
        for _ in range(200):
            fleet.advance(1)
            for k in range(20):
                fleet.observe(k, 1.0)
        rep = fleet.storage_report()
        one = fleet._engines[0].storage_report()
        assert rep.shared_bits == one.shared_bits  # once, not 20x
        assert rep.per_stream_bits >= 20 * one.per_stream_bits * 0.5

    def test_per_key_bits(self):
        fleet = StreamFleet(PolynomialDecay(1.0), epsilon=0.2)
        fleet.observe("a", 1.0)
        fleet.advance(10)
        bits = fleet.per_key_bits()
        assert set(bits) == {"a"}
        assert bits["a"] > 0


class TestShardMerge:
    def test_absorb_shards(self):
        decay = ExponentialDecay(0.05)
        shard1 = StreamFleet(decay)
        shard2 = StreamFleet(decay)
        union = StreamFleet(decay)
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
        shard1.absorb(shard2)
        for key in ("a", "b", "c"):
            assert shard1.rating(key).value == pytest.approx(
                union.rating(key).value
            )

    def test_absorb_disjoint_keys(self):
        decay = ExponentialDecay(0.05)
        shard1 = StreamFleet(decay)
        shard2 = StreamFleet(decay)
        shard1.observe("only1", 1.0)
        shard2.observe("only2", 2.0)
        shard1.advance(1)
        shard2.advance(1)
        shard1.absorb(shard2)
        assert set(shard1.keys()) == {"only1", "only2"}

    def test_absorb_validation(self):
        fleet = StreamFleet(ExponentialDecay(0.1))
        with pytest.raises(InvalidParameterError):
            fleet.absorb(fleet)
        other = StreamFleet(ExponentialDecay(0.1))
        other.advance(1)
        with pytest.raises(TimeOrderError):
            fleet.absorb(other)


class TestObserveBatch:
    """Keyed batch ingestion: grouped per key, one clock advance per tick."""

    def _random_keyed_trace(self, n, seed):
        from repro.streams.io import KeyedItem

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
        sequential = StreamFleet(decay, 0.1)
        for item in items:
            sequential.observe(item.key, item.value, when=item.time)
        batched = StreamFleet(decay, 0.1)
        batched.observe_batch(items)
        assert batched.time == sequential.time
        assert set(batched.keys()) == set(sequential.keys())
        for key in sequential.keys():
            a = batched.rating(key)
            b = sequential.rating(key)
            assert (a.value, a.lower, a.upper) == (b.value, b.lower, b.upper)

    def test_rejects_time_regress(self):
        from repro.streams.io import KeyedItem

        fleet = StreamFleet(ExponentialDecay(0.1))
        fleet.advance(10)
        with pytest.raises(TimeOrderError):
            fleet.observe_batch([KeyedItem("a", 3, 1.0)])

    def test_new_keys_join_at_current_clock(self):
        from repro.streams.io import KeyedItem

        fleet = StreamFleet(SlidingWindowDecay(32), 0.1)
        fleet.observe_batch(
            [KeyedItem("old", 0, 1.0), KeyedItem("new", 20, 1.0)]
        )
        assert fleet.time == 20
        for engine in [fleet._engine_for("old"), fleet._engine_for("new")]:
            assert engine.time == 20
