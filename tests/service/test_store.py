"""Unit tests for :class:`repro.service.store.ServiceStore`.

The store is the synchronous heart of the service layer; everything here
runs without an event loop.  The contracts under test: single-key folds
are bit-identical to a directly-driven factory engine, TTL eviction is
clock-driven and ledgered, lossy paths always account their losses, and
snapshots continue bit-identically.
"""

from __future__ import annotations

import json
import math
import random
from collections import namedtuple

import pytest

from repro.core.decay import (
    ExponentialDecay,
    PolynomialDecay,
    SlidingWindowDecay,
)
from repro.core.errors import (
    InvalidParameterError,
    NotApplicableError,
    TimeOrderError,
)
from repro.core.estimate import Estimate
from repro.core.exact import ExactDecayingSum
from repro.core.forward import ForwardDecay
from repro.core.interfaces import DecayingSum, make_decaying_sum
from repro.core.timeorder import OutOfOrderPolicy
from repro.histograms.domination import widen_merged_estimate
from repro.histograms.matias import ApproxBoundaryCEH
from repro.histograms.wbmh import WBMH
from repro.service.store import EvictionLedger, ServiceStore
from repro.streams.generators import StreamItem
from repro.streams.io import KeyedItem

#: A bare keyed item: unlike ``KeyedItem`` it lets non-finite weights
#: through, so the store's own admission checks are what is tested.
Row = namedtuple("Row", "key time value")


def _triplet(estimate: Estimate) -> tuple[float, float, float]:
    return (estimate.value, estimate.lower, estimate.upper)


class TestConstruction:
    def test_epsilon_validated(self) -> None:
        with pytest.raises(InvalidParameterError):
            ServiceStore(ExponentialDecay(0.05), 0.0)
        with pytest.raises(InvalidParameterError):
            ServiceStore(ExponentialDecay(0.05), 1.0)

    def test_ttl_validated(self) -> None:
        with pytest.raises(InvalidParameterError):
            ServiceStore(ExponentialDecay(0.05), ttl=0)

    def test_clock_validation(self) -> None:
        store = ServiceStore(ExponentialDecay(0.05))
        store.advance_to(5)
        with pytest.raises(InvalidParameterError):
            store.advance(-1)
        with pytest.raises(TimeOrderError):
            store.advance_to(3)


class TestFolding:
    def test_single_key_batch_matches_direct_engine(self) -> None:
        rows = [(0, 2.0), (0, 1.0), (3, 4.0), (7, 1.0), (7, 2.0)]
        store = ServiceStore(SlidingWindowDecay(16), 0.1)
        store.observe_batch(
            [KeyedItem("k", t, v) for t, v in rows], until=10
        )
        direct = make_decaying_sum(SlidingWindowDecay(16), 0.1)
        direct.ingest([StreamItem(t, v) for t, v in rows], until=10)
        assert store.time == direct.time == 10
        assert _triplet(store.query("k")) == _triplet(direct.query())

    def test_wbmh_keys_share_one_region_schedule(self) -> None:
        decay = PolynomialDecay(1.0)
        rows = [("a", 0, 1.0), ("b", 2, 3.0), ("a", 5, 2.0)]
        store = ServiceStore(decay, 0.1)
        store.observe_batch([KeyedItem(k, t, v) for k, t, v in rows], until=9)
        a, b = store.engine("a"), store.engine("b")
        assert isinstance(a, WBMH) and isinstance(b, WBMH)
        assert a.schedule is b.schedule
        direct = make_decaying_sum(decay, 0.1)
        for key, t, v in rows:
            direct.advance_to(t)
            if key == "a":
                direct.add(v)
        direct.advance_to(9)
        assert _triplet(store.query("a")) == _triplet(direct.query())

    def test_observe_singletons_match_batch(self) -> None:
        rows = [(1, 1.0), (4, 2.0), (4, 3.0), (9, 1.0)]
        one = ServiceStore(ExponentialDecay(0.05))
        for t, v in rows:
            one.observe("k", v, when=t)
        batch = ServiceStore(ExponentialDecay(0.05))
        batch.observe_batch([KeyedItem("k", t, v) for t, v in rows])
        assert _triplet(one.query("k")) == _triplet(batch.query("k"))

    def test_late_engine_creation_joins_the_shared_clock(self) -> None:
        store = ServiceStore(ExponentialDecay(0.05))
        store.observe("a", 1.0, when=0)
        store.advance_to(12)
        engine = store.engine("b")
        assert engine.time == 12
        assert store.query("b").value == 0.0

    def test_observe_values_folds_at_the_current_clock(self) -> None:
        store = ServiceStore(ExponentialDecay(0.05))
        store.advance_to(4)
        store.observe_values("k", [1.0, 2.0])
        store.observe_values("k", [])
        direct = make_decaying_sum(ExponentialDecay(0.05), 0.1)
        direct.advance(4)
        direct.add_batch([1.0, 2.0])
        assert _triplet(store.query("k")) == _triplet(direct.query())
        assert store.ingested_items == 2

    def test_infinite_weight_is_refused_with_ledgers_unchanged(self) -> None:
        # An infinite WBMH count would raise OverflowError out of a merge
        # a dozen ticks later, mid-advance; admission refuses it up front.
        store = ServiceStore(PolynomialDecay(1.0), 0.1)
        store.observe("a", 2.0, when=0)
        store.advance_to(1)
        before = store.stats()
        with pytest.raises(InvalidParameterError):
            store.observe("k", math.inf, when=1)
        with pytest.raises(InvalidParameterError):
            store.observe_batch([Row("k", 1, 1.0), Row("k", 1, math.inf)])
        assert store.stats() == before
        assert store.keys() == ["a"]
        store.advance_to(400)
        direct = make_decaying_sum(PolynomialDecay(1.0), 0.1)
        direct.add(2.0)
        direct.advance_to(400)
        assert _triplet(store.query("a")) == _triplet(direct.query())

    def test_query_unknown_key_raises_keyerror(self) -> None:
        store = ServiceStore(ExponentialDecay(0.05))
        with pytest.raises(KeyError):
            store.query("ghost")

    @staticmethod
    def _view(store: ServiceStore) -> tuple[object, ...]:
        return (store.keys(), store.key_stats(), store.stats()["keys"])

    def test_refused_fold_leaves_no_key(self) -> None:
        # EH takes integer counts: the engine refuses 1.5 after admission
        # let it through, and the new key must not outlive the refusal.
        store = ServiceStore(SlidingWindowDecay(8), ttl=4)
        store.observe("good", 1.0, when=10)
        before = self._view(store)
        with pytest.raises(InvalidParameterError):
            store.observe("bad", 1.5, when=10)
        with pytest.raises(InvalidParameterError):
            store.observe_batch([KeyedItem("bad", 10, 1.5)])
        assert self._view(store) == before
        store.advance_to(1000)
        assert store.keys() == [] and store.eviction.evicted_keys == 1

    def test_refused_late_item_leaves_no_key(self) -> None:
        # Forward decay takes late items through add_at, which refuses a
        # negative time.
        store = ServiceStore(ForwardDecay("exp", 0.05), ttl=4)
        store.observe("good", 1.0, when=5)
        before = self._view(store)
        with pytest.raises(InvalidParameterError):
            store.observe("bad", 1.0, when=-1)
        assert self._view(store) == before

    def test_refused_merge_leaves_no_key(self) -> None:
        store = ServiceStore(ExponentialDecay(0.05), ttl=4)
        store.observe("good", 1.0, when=3)
        before = self._view(store)
        other = make_decaying_sum(ExponentialDecay(0.5), 0.1)
        other.advance(3)
        with pytest.raises(InvalidParameterError):
            store.merge_into("bad", other)
        assert self._view(store) == before

    def test_keys_sorted_and_membership(self) -> None:
        store = ServiceStore(ExponentialDecay(0.05))
        store.observe("b", 1.0)
        store.observe("a", 1.0)
        assert store.keys() == ["a", "b"]
        assert "a" in store and "ghost" not in store
        assert len(store) == 2


class TestLateItems:
    def test_late_item_raises_by_default(self) -> None:
        store = ServiceStore(ExponentialDecay(0.05))
        store.advance_to(10)
        with pytest.raises(TimeOrderError):
            store.observe("k", 1.0, when=4)
        with pytest.raises(TimeOrderError):
            store.observe_batch([KeyedItem("k", 4, 1.0)])

    def test_drop_policy_counts_what_it_discards(self) -> None:
        policy = OutOfOrderPolicy.dropping()
        store = ServiceStore(ExponentialDecay(0.05), policy=policy)
        store.observe("k", 1.0, when=10)
        store.observe_batch([KeyedItem("k", 3, 5.0)])
        store.observe("k", 2.5, when=1)
        assert policy.dropped_count == 2
        assert policy.dropped_weight == 7.5
        assert store.stats()["dropped_count"] == 2

    def test_until_cannot_move_backwards(self) -> None:
        store = ServiceStore(ExponentialDecay(0.05))
        store.advance_to(9)
        with pytest.raises(TimeOrderError):
            store.observe_batch([], until=5)

    def test_per_call_buffer_policy_is_rejected(self) -> None:
        store = ServiceStore(ExponentialDecay(0.05))
        with pytest.raises(InvalidParameterError):
            store.observe_batch(
                [KeyedItem("k", 0, 1.0)],
                policy=OutOfOrderPolicy.buffered(4),
            )


class TestTTLEviction:
    def test_idle_key_is_evicted_on_advance(self) -> None:
        store = ServiceStore(ExponentialDecay(0.05), ttl=10)
        store.observe("old", 4.0, when=0)
        store.observe("young", 1.0, when=5)
        expected = make_decaying_sum(ExponentialDecay(0.05), 0.1)
        expected.add(4.0)
        expected.advance(5)  # store advanced 0 -> 5 at young's arrival
        expected.advance(5)  # and 5 -> 10 at the sweep that evicts
        store.advance_to(10)
        assert store.keys() == ["young"]
        assert store.eviction.evicted_keys == 1
        assert store.eviction.evicted_weight == expected.query().value

    def test_fresh_observation_resets_the_ttl(self) -> None:
        store = ServiceStore(ExponentialDecay(0.05), ttl=10)
        store.observe("k", 1.0, when=0)
        store.observe("k", 1.0, when=8)  # stale heap entry superseded
        store.advance_to(12)
        assert store.keys() == ["k"]
        store.advance_to(18)
        assert store.keys() == []
        assert store.eviction.evicted_keys == 1

    def test_evicted_key_restarts_from_scratch(self) -> None:
        store = ServiceStore(ExponentialDecay(0.05), ttl=5)
        store.observe("k", 100.0, when=0)
        store.advance_to(5)
        assert "k" not in store
        store.observe("k", 1.0)
        fresh = make_decaying_sum(ExponentialDecay(0.05), 0.1)
        fresh.advance(5)
        fresh.add(1.0)
        assert _triplet(store.query("k")) == _triplet(fresh.query())

    def test_hot_key_keeps_one_expiry_entry(self) -> None:
        # The TTL index grows with keys, not with touches.
        store = ServiceStore(ExponentialDecay(0.05), ttl=10**6)
        store.observe_batch(KeyedItem("hot", t, 1.0) for t in range(50_000))
        assert store.keys() == ["hot"]
        assert store._last_seen == {"hot": 49_999}

    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_eviction_ledger_matches_a_model(self, seed) -> None:
        # Keys due at the same tick leave in the order of their first
        # touch at their last-seen tick; evicted_weight sums in that order.
        rng = random.Random(seed)
        decay = ExponentialDecay(0.05)
        ttl = rng.choice((1, 3, 7))
        store = ServiceStore(decay, ttl=ttl)
        model = _TTLModel(decay, ttl)
        now = 0
        for _ in range(40):
            batch = []
            for _ in range(rng.randrange(1, 8)):
                now += rng.choice((0, 0, 1, 2, 5))
                batch.append(
                    KeyedItem(rng.choice("abcdef"), now, rng.uniform(0.5, 3))
                )
            store.observe_batch(batch)
            for item in batch:
                model.observe(item)
            if rng.random() < 0.3:
                now += rng.randrange(1, 2 * ttl + 2)
                store.advance_to(now)
                model.advance_to(now)
            assert store.keys() == sorted(model.engines)
            assert store.eviction.evicted_keys == model.evicted_keys
            assert store.eviction.evicted_weight == model.evicted_weight
            # The TTL index holds every live key, in eviction order.
            assert list(store._last_seen) == sorted(
                model.engines, key=lambda k: (model.last[k], model.first[k])
            )
            for key, engine in model.engines.items():
                assert _triplet(store.query(key)) == _triplet(engine.query())

    def test_ledger_repr_and_counts(self) -> None:
        ledger = EvictionLedger()
        ledger.note(2.0)
        ledger.note(3.0)
        assert ledger.evicted_keys == 2
        assert ledger.evicted_weight == 5.0
        assert "EvictionLedger" in repr(ledger)


class _TTLModel:
    """Per-key engines in lock-step; due keys leave in (expiry, first
    touch at the last-seen tick) order, each weighed at the sweep tick."""

    def __init__(self, decay, ttl: int) -> None:
        self.decay = decay
        self.ttl = ttl
        self.time = 0
        self.engines: dict[str, DecayingSum] = {}
        self.last: dict[str, int] = {}
        self.first: dict[str, int] = {}
        self.touches = 0
        self.evicted_keys = 0
        self.evicted_weight = 0.0

    def advance_to(self, when: int) -> None:
        if when <= self.time:
            return
        for engine in self.engines.values():
            engine.advance(when - self.time)
        self.time = when
        due = sorted(
            (self.last[key] + self.ttl, self.first[key], key)
            for key in self.engines
            if self.last[key] + self.ttl <= when
        )
        for _, _, key in due:
            self.evicted_keys += 1
            self.evicted_weight += self.engines.pop(key).query().value
            del self.last[key], self.first[key]

    def observe(self, item: KeyedItem) -> None:
        self.advance_to(item.time)
        engine = self.engines.get(item.key)
        if engine is None:
            engine = make_decaying_sum(self.decay, 0.1)
            engine.advance(self.time)
            self.engines[item.key] = engine
        engine.add(item.value)
        if self.last.get(item.key) != self.time:
            self.touches += 1
            self.first[item.key] = self.touches
            self.last[item.key] = self.time


class TestStats:
    def test_stats_track_the_ledgers(self) -> None:
        store = ServiceStore(ExponentialDecay(0.05), ttl=4)
        store.observe("a", 2.0, when=0)
        store.observe("b", 3.0, when=1)
        store.advance_to(4)
        stats = store.stats()
        assert stats["time"] == 4
        assert stats["keys"] == 1
        assert stats["ingested_items"] == 2
        assert stats["ingested_weight"] == 5.0
        assert stats["evicted_keys"] == 1

    def test_key_stats_report_idleness(self) -> None:
        store = ServiceStore(ExponentialDecay(0.05))
        store.observe("a", 1.0, when=2)
        store.advance_to(7)
        assert store.key_stats() == {"a": {"last_seen": 2, "idle": 5}}

    def test_storage_report_aggregates_engines(self) -> None:
        store = ServiceStore(SlidingWindowDecay(16))
        store.observe_batch(
            [KeyedItem("a", 0, 1.0), KeyedItem("b", 1, 1.0)]
        )
        report = store.storage_report()
        assert report.engine == "service[2]"
        single = store.engine("a").storage_report()
        assert report.buckets >= single.buckets


class TestMemoization:
    def test_memoized_matches_unmemoized_bit_for_bit(self) -> None:
        # The read memo keys on (clock, per-key write generation): any
        # interleaving of reads and writes must be invisible in results,
        # so every memoized read equals a fresh read of the key's engine.
        store = ServiceStore(ExponentialDecay(0.05), 0.1)
        items = [
            KeyedItem(f"k{i % 3}", t, 0.5 + (i % 4))
            for i, t in enumerate(range(0, 36, 2))
        ]
        for item in items:
            store.observe(item.key, item.value, when=item.time)
            for key in store.keys():  # interleaved reads on every write
                assert _triplet(store.query(key)) == _triplet(
                    store.engine(key).query()
                )
        store.advance(3)
        for key in store.keys():
            assert _triplet(store.query(key)) == _triplet(
                store.engine(key).query()
            )

    def test_repeat_read_returns_identical_estimate(self) -> None:
        store = ServiceStore(ExponentialDecay(0.05), 0.1)
        store.observe("k", 2.0)
        first = store.query("k")
        assert store.query("k") is first  # served from the memo
        store.observe("k", 1.0)  # write generation bump invalidates
        assert store.query("k") is not first
        before = store.query("k")
        store.advance(1)  # clock motion re-keys the memo
        assert store.query("k") is not before


class TestUnmergeableFallback:
    """Engine families without a structural merge (the randomized
    :class:`ApproxBoundaryCEH`) still answer ``query_total``: the
    certified per-key brackets add up instead."""

    @staticmethod
    def _store() -> tuple[ServiceStore, ExactDecayingSum]:
        decay = PolynomialDecay(1.0)
        store = ServiceStore(
            decay,
            0.2,
            engine_factory=lambda: ApproxBoundaryCEH(decay, 0.2, seed=11),
        )
        oracle = ExactDecayingSum(decay)
        for i in range(120):
            store.observe(f"k{i % 3}", 1.0, when=i // 3)
            oracle.advance_to(i // 3)
            oracle.add(1.0)
        return store, oracle

    def test_falls_back_to_widened_answers(self) -> None:
        store, oracle = self._store()
        keys = store.keys()
        assert keys == ["k0", "k1", "k2"]
        want = store.query(keys[0])
        for key in keys[1:]:
            want = widen_merged_estimate(want, store.query(key))
        total = store.query_total()
        assert _triplet(total) == _triplet(want)
        assert total.lower <= oracle.query().value <= total.upper

    def test_fold_engine_raises_not_applicable(self) -> None:
        store, _ = self._store()
        with pytest.raises(NotApplicableError):
            store.fold_engine()


class TestSnapshot:
    @staticmethod
    def _seeded(ttl: int | None = None) -> ServiceStore:
        store = ServiceStore(SlidingWindowDecay(16), 0.1, ttl=ttl)
        store.observe_batch(
            [
                KeyedItem("a", 0, 2.0),
                KeyedItem("b", 3, 1.0),
                KeyedItem("a", 3, 1.0),
                KeyedItem("b", 7, 4.0),
            ]
        )
        return store

    def test_a_shard_merged_sliding_window_key_restores(self) -> None:
        # A sliding-window key that takes a merge every 50 writes holds an
        # interleaved bucket list; its later cascades must keep every count
        # a power of two, or its snapshot (and a sharded worker's
        # checkpoint) cannot be restored.
        for seed in range(200):
            rng = random.Random(seed)
            store = ServiceStore(SlidingWindowDecay(64), 0.2)
            donor = ServiceStore(SlidingWindowDecay(64), 0.2)
            when = 0
            for i in range(1, 401):
                when += rng.choice((0, 0, 1, 2))
                store.observe("k", rng.randint(1, 3), when=when)
                donor.observe("k", rng.randint(1, 3), when=when)
                if i % 50 == 0:
                    store.merge_into("k", donor.export_engine("k"))
            snapshot = store.to_dict()
            assert ServiceStore.from_dict(snapshot).to_dict() == snapshot, seed

    def test_roundtrip_continues_bit_identically(self) -> None:
        store = self._seeded(ttl=12)
        clone = ServiceStore.from_dict(store.to_dict())
        tail = [KeyedItem("a", 9, 1.0), KeyedItem("c", 15, 2.0)]
        store.observe_batch(tail, until=30)
        clone.observe_batch(tail, until=30)
        assert clone.keys() == store.keys()
        for key in store.keys():
            assert _triplet(clone.query(key)) == _triplet(store.query(key))
        assert clone.stats() == store.stats()

    def test_restore_keeps_the_ttl_order(self) -> None:
        # "a" and "c" share last-seen tick 2, where "c" was written first
        # although "a" was created first.  The restored store must evict
        # them in that order, or evicted_weight drifts in the last ulp.
        store = ServiceStore(ExponentialDecay(0.05), ttl=6)
        store.observe_batch(
            [
                KeyedItem("b", 0, 2.0),
                KeyedItem("a", 1, 1.0),
                KeyedItem("c", 2, 4.0),
                KeyedItem("a", 2, 1.0),
            ]
        )
        snapshot = store.to_dict()
        assert list(snapshot["keys"]) == ["b", "c", "a"]
        clone = ServiceStore.from_dict(snapshot)
        tail = [KeyedItem("b", 6, 4.0), KeyedItem("b", 8, 3.0)]
        store.observe_batch(tail)
        clone.observe_batch(tail)
        assert store.eviction.evicted_keys == 3
        assert clone.stats() == store.stats()
        assert clone.to_dict() == store.to_dict()

    def test_restored_wbmh_keys_share_one_schedule(self) -> None:
        # Restore (from_dict, POST /restore, a sharded worker's checkpoint
        # replay) rebuilds every key on the schedule fresh keys share.
        rng = random.Random(8)
        items = []
        when = 0
        for _ in range(3_000):
            when += rng.random() < 0.5
            items.append(
                KeyedItem(f"k{rng.randrange(8)}", when, rng.randint(1, 4))
            )
        store = ServiceStore(PolynomialDecay(1.0), 0.1)
        store.observe_batch(items[:2_000])
        twin = ServiceStore.from_dict(json.loads(json.dumps(store.to_dict())))
        in_place = ServiceStore(PolynomialDecay(1.0), 0.1)
        in_place.restore(store.to_dict())
        for restored in (twin, in_place):
            engines = [restored.engine(key) for key in restored.keys()]
            assert len(engines) == 8
            assert len({id(e.schedule) for e in engines}) == 1
            fresh = restored.engine("fresh")
            assert fresh.schedule is engines[0].schedule
        store.engine("fresh")  # the twin made it above
        store.observe_batch(items[2_000:], until=when + 50)
        twin.observe_batch(items[2_000:], until=when + 50)
        assert twin.to_dict() == store.to_dict()
        for key in store.keys():
            assert _triplet(twin.query(key)) == _triplet(store.query(key))

    def test_restore_replaces_state_in_place(self) -> None:
        store = self._seeded()
        snapshot = store.to_dict()
        store.observe("a", 50.0, when=20)
        store.restore(snapshot)
        assert store.time == 7
        assert store.keys() == ["a", "b"]

    def test_snapshot_preserves_ledgers_and_policy(self) -> None:
        policy = OutOfOrderPolicy.dropping()
        store = ServiceStore(ExponentialDecay(0.05), policy=policy)
        store.observe("k", 1.0, when=5)
        store.observe("k", 9.0, when=2)  # dropped
        clone = ServiceStore.from_dict(store.to_dict())
        assert clone.policy is not None
        assert clone.policy.kind == "drop"
        assert clone.policy.dropped_count == 1
        assert clone.policy.dropped_weight == 9.0

    def test_custom_factory_refuses_to_snapshot(self) -> None:
        def factory() -> DecayingSum:
            return make_decaying_sum(ExponentialDecay(0.05), 0.1)

        store = ServiceStore(ExponentialDecay(0.05), engine_factory=factory)
        store.observe("k", 1.0)
        with pytest.raises(InvalidParameterError):
            store.to_dict()

    def test_replica_keys_rejected_and_older_fields_ignored(self) -> None:
        data = self._seeded().to_dict()
        # Older snapshots carry a store-level "shards" field and a per-key
        # "sharded" flag; unflagged keys still restore.
        older = {
            **data,
            "shards": None,
            "keys": {
                key: {**state, "sharded": False}
                for key, state in data["keys"].items()
            },
        }
        assert ServiceStore.from_dict(older).stats() == self._seeded().stats()
        replicas = {
            **data,
            "keys": {
                **data["keys"],
                "a": {"sharded": True, "round_robin": 0, "replicas": [],
                      "last_seen": 3},
            },
        }
        with pytest.raises(InvalidParameterError):
            ServiceStore.from_dict(replicas)

    def test_bad_snapshots_are_rejected(self) -> None:
        store = self._seeded()
        data = store.to_dict()
        with pytest.raises(InvalidParameterError):
            ServiceStore.from_dict({**data, "version": 99})
        with pytest.raises(InvalidParameterError):
            ServiceStore.from_dict({**data, "kind": "mystery"})
