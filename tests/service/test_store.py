"""Unit tests for :class:`repro.service.store.ServiceStore`.

The store is the synchronous heart of the service layer; everything here
runs without an event loop.  The contracts under test: single-key folds
are bit-identical to a directly-driven factory engine, TTL eviction is
clock-driven and ledgered, lossy paths always account their losses, and
snapshots continue bit-identically.
"""

from __future__ import annotations

import pytest

from repro.core.decay import (
    ExponentialDecay,
    PolynomialDecay,
    SlidingWindowDecay,
)
from repro.core.errors import InvalidParameterError, TimeOrderError
from repro.core.estimate import Estimate
from repro.core.interfaces import DecayingSum, make_decaying_sum
from repro.core.timeorder import OutOfOrderPolicy
from repro.histograms.wbmh import WBMH
from repro.service.store import EvictionLedger, ServiceStore
from repro.streams.generators import StreamItem
from repro.streams.io import KeyedItem


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

    def test_query_unknown_key_raises_keyerror(self) -> None:
        store = ServiceStore(ExponentialDecay(0.05))
        with pytest.raises(KeyError):
            store.query("ghost")

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

    def test_ledger_repr_and_counts(self) -> None:
        ledger = EvictionLedger()
        ledger.note(2.0)
        ledger.note(3.0)
        assert ledger.evicted_keys == 2
        assert ledger.evicted_weight == 5.0
        assert "EvictionLedger" in repr(ledger)


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
        # interleaving of reads and writes must be invisible in results.
        memo = ServiceStore(ExponentialDecay(0.05), 0.1, memoize=True)
        plain = ServiceStore(ExponentialDecay(0.05), 0.1, memoize=False)
        items = [
            KeyedItem(f"k{i % 3}", t, 0.5 + (i % 4))
            for i, t in enumerate(range(0, 36, 2))
        ]
        for store in (memo, plain):
            for item in items:
                store.observe(item.key, item.value, when=item.time)
                store.query(item.key)  # interleaved read on every write
            store.advance(3)
        for key in plain.keys():
            want = plain.query(key)
            got = memo.query(key)
            assert (got.value, got.lower, got.upper) == (
                want.value,
                want.lower,
                want.upper,
            )
        want_total = plain.query_total()
        got_total = memo.query_total()
        assert (got_total.value, got_total.lower, got_total.upper) == (
            want_total.value,
            want_total.lower,
            want_total.upper,
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

    def test_memoize_is_a_runtime_knob_not_snapshot_state(self) -> None:
        # Snapshots carry stream state, not serving configuration: a
        # restore keeps the receiving store's memoize choice.
        source = ServiceStore(ExponentialDecay(0.05), 0.1)
        source.observe("k", 1.0)
        receiver = ServiceStore(ExponentialDecay(0.05), 0.1, memoize=False)
        receiver.restore(source.to_dict())
        assert receiver._memoize is False
        assert receiver.query("k").value == source.query("k").value


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
