"""Unit tests for :class:`repro.service.sharded.ShardedServiceStore`.

The differential suite (test_sharded_differential.py) proves the
multi-process front computes the same numbers as the single store; this
file pins the machinery itself: crc32 routing, the lock-step shared
clock across workers, the batched IPC plane's journaling/checkpoint
lifecycle, snapshot portability in both directions (sharded <-> plain,
including worker-count changes), the router-owned lateness buffer, and
the StoreFront seam the daemon/server/adapter consume.
"""

from __future__ import annotations

import math
import zlib
from collections import namedtuple

import pytest

from repro.core.decay import (
    ExponentialDecay,
    PolynomialDecay,
    SlidingWindowDecay,
)
from repro.core.errors import InvalidParameterError, TimeOrderError
from repro.core.estimate import Estimate
from repro.core.interfaces import make_decaying_sum
from repro.core.timeorder import OutOfOrderPolicy
from repro.service import sharded
from repro.service.ipc import decode_frame
from repro.service.sharded import (
    ShardedServiceStore,
    flatten_snapshot,
    shard_of,
)
from repro.service.store import ServiceStore, StoreFront
from repro.streams.io import KeyedItem

#: A bare keyed item: unlike ``KeyedItem`` it lets non-finite weights
#: through, so the router's own admission checks are what is tested.
Row = namedtuple("Row", "key time value")


def _triplet(estimate: Estimate) -> tuple[float, float, float]:
    return (estimate.value, estimate.lower, estimate.upper)


@pytest.fixture()
def store():
    front = ShardedServiceStore(ExponentialDecay(0.05), 0.1, workers=3)
    yield front
    front.close()


class TestConstruction:
    def test_parameters_validated(self) -> None:
        with pytest.raises(InvalidParameterError):
            ShardedServiceStore(ExponentialDecay(0.05), 0.0)
        with pytest.raises(InvalidParameterError):
            ShardedServiceStore(ExponentialDecay(0.05), workers=0)
        with pytest.raises(InvalidParameterError):
            ShardedServiceStore(ExponentialDecay(0.05), ttl=0)

    def test_satisfies_store_front_protocol(self, store) -> None:
        assert isinstance(store, StoreFront)
        assert isinstance(ServiceStore(ExponentialDecay(0.05)), StoreFront)

    def test_spawns_one_process_per_worker(self, store) -> None:
        pids = store.worker_pids()
        assert len(pids) == 3
        assert len(set(pids)) == 3

    def test_close_is_idempotent(self) -> None:
        front = ShardedServiceStore(ExponentialDecay(0.05), 0.1, workers=2)
        front.close()
        front.close()
        with pytest.raises(InvalidParameterError):
            front.observe("k", 1.0)

    def test_context_manager_closes(self) -> None:
        with ShardedServiceStore(
            ExponentialDecay(0.05), 0.1, workers=2
        ) as front:
            front.observe("k", 2.0)
            assert "k" in front
        # Memoized reads of "k" would still hit the router cache; a
        # fresh key must cross the (closed) IPC plane and fail loudly.
        with pytest.raises(InvalidParameterError):
            front.query("other")


class TestShardOf:
    KEYS = ["alpha", "beta", "key0", "key17", 42, ("a", 7), None, "k\u00e9y"]

    def test_deterministic_and_in_range(self) -> None:
        for key in ["alpha", 42, ("a", 7), None]:
            idx = shard_of(key, 5)
            assert 0 <= idx < 5
            assert idx == shard_of(key, 5)

    def test_rejects_nonpositive_shards(self) -> None:
        with pytest.raises(InvalidParameterError):
            shard_of("k", 0)

    def test_routing_is_crc32_of_repr(self) -> None:
        # Routing is part of the snapshot contract (restore re-splits
        # keys by it), so the function is pinned, not just its range.
        for shards in (1, 2, 3, 7):
            for key in self.KEYS:
                assert shard_of(key, shards) == (
                    zlib.crc32(repr(key).encode("utf-8")) % shards
                )
        assert [shard_of(key, 7) for key in self.KEYS] == [
            2, 4, 0, 6, 3, 4, 4, 3
        ]
        assert [shard_of(key, 3) for key in self.KEYS] == [
            1, 1, 1, 2, 2, 2, 0, 1
        ]


class TestRouting:
    def test_keys_land_on_their_crc32_shard(self, store) -> None:
        keys = [f"key{i}" for i in range(20)]
        for key in keys:
            store.observe(key, 1.0)
        per_worker = store.stats()["per_worker"]
        for key in keys:
            owner = shard_of(key, 3)
            # The owning worker's key census must include this key.
            assert per_worker[owner]["keys"] >= 1
        assert sum(w["keys"] for w in per_worker) == len(keys)
        assert sorted(store.keys()) == sorted(keys)
        assert len(store) == 20

    def test_workers_share_one_lockstep_clock(self, store) -> None:
        store.observe("a", 1.0, when=4)
        store.observe("b", 1.0, when=9)
        assert store.time == 9
        # Every worker's shard store sits at the same clock, even the
        # one(s) holding neither key.
        for worker in store.stats()["per_worker"]:
            assert worker["time"] == 9

    def test_clock_validation(self, store) -> None:
        store.advance_to(5)
        with pytest.raises(InvalidParameterError):
            store.advance(-1)
        with pytest.raises(TimeOrderError):
            store.advance_to(3)

    def test_missing_key_raises_unless_created(self, store) -> None:
        with pytest.raises(KeyError):
            store.query("ghost")
        created = store.query("ghost", create=True)
        assert created.value == 0.0
        assert "ghost" in store


class TestReadsAndWrites:
    def test_observe_values_folds_at_current_clock(self, store) -> None:
        store.advance_to(3)
        store.observe_values("k", [1.0, 2.0, 3.0])
        twin = ServiceStore(ExponentialDecay(0.05), 0.1)
        twin.advance_to(3)
        twin.observe_values("k", [1.0, 2.0, 3.0])
        assert _triplet(store.query("k")) == _triplet(twin.query("k"))
        assert store.stats()["ingested_weight"] == 6.0

    def test_query_total_spans_workers(self, store) -> None:
        for index in range(9):
            store.observe(f"key{index}", 1.0)
        total = store.query_total()
        assert total.lower <= total.value <= total.upper
        assert total.value == pytest.approx(9.0)
        with ShardedServiceStore(
            ExponentialDecay(0.05), 0.1, workers=1
        ) as empty:
            assert _triplet(empty.query_total()) == _triplet(
                Estimate.exact(0.0)
            )

    def test_merge_into_and_export_engine(self, store) -> None:
        other = make_decaying_sum(ExponentialDecay(0.05), 0.1)
        other.add(5.0)
        store.observe("k", 1.0)
        store.merge_into("k", other)
        exported = store.export_engine("k")
        assert _triplet(exported.query()) == _triplet(store.query("k"))
        assert exported.query().value == pytest.approx(6.0)

    def test_worker_refusals_keep_their_type_and_text(self, store) -> None:
        # A worker's refusal reads exactly as the single store's: the
        # same type, the same message, no repr nested inside.
        single = ServiceStore(ExponentialDecay(0.05), 0.1)
        other = make_decaying_sum(ExponentialDecay(0.1), 0.1)
        refusals = []
        for front in (single, store):
            front.observe("a", 1.0)
            with pytest.raises(InvalidParameterError) as refusal:
                front.merge_into("a", other)
            refusals.append(repr(refusal.value))
        assert refusals[0] == refusals[1]
        assert refusals[0].count("InvalidParameterError") == 1

    def test_key_stats_and_reports(self, store) -> None:
        store.observe("a", 1.0)
        store.observe("b", 2.0, when=3)
        stats = store.key_stats()
        assert set(stats) == {"a", "b"}
        assert stats["b"]["last_seen"] == 3
        report = store.storage_report()
        assert report.total_bits > 0
        key_report = store.key_storage_report("a")
        assert key_report.total_bits > 0

    def test_buffer_policy_is_router_owned(self) -> None:
        policy = OutOfOrderPolicy.buffered(4)
        front = ShardedServiceStore(
            ExponentialDecay(0.05), 0.1, workers=2, policy=policy
        )
        try:
            twin = ServiceStore(
                ExponentialDecay(0.05), 0.1,
                policy=OutOfOrderPolicy.buffered(4),
            )
            items = [
                KeyedItem("a", 6, 1.0),
                KeyedItem("b", 4, 2.0),  # late: buffered at the router
                KeyedItem("a", 8, 1.5),
            ]
            front.observe_batch(items)
            twin.observe_batch(items)
            assert front.stats()["buffered"] == twin.stats()["buffered"] >= 1
            front.flush()
            twin.flush()
            assert front.stats()["buffered"] == 0
            for key in ("a", "b"):
                assert _triplet(front.query(key)) == _triplet(twin.query(key))
            with pytest.raises(InvalidParameterError):
                front.observe_batch(
                    [KeyedItem("a", 9, 1.0)],
                    policy=OutOfOrderPolicy.buffered(2),
                )
        finally:
            front.close()


    def test_infinite_weight_is_refused_before_the_router_ledgers(
        self,
    ) -> None:
        # The router ledgers a fold before its worker's engine sees it, so
        # admission must refuse the infinite weight itself.
        front = ShardedServiceStore(PolynomialDecay(1.0), 0.1, workers=2)
        try:
            front.observe("a", 2.0, when=0)
            front.advance_to(1)
            before = front.stats()
            with pytest.raises(InvalidParameterError):
                front.observe("k", math.inf, when=1)
            with pytest.raises(InvalidParameterError):
                front.observe_batch([Row("k", 1, 1.0), Row("k", 1, math.inf)])
            assert front.stats() == before
            assert front.keys() == ["a"]
            front.advance_to(400)
            twin = ServiceStore(PolynomialDecay(1.0), 0.1)
            twin.observe("a", 2.0, when=0)
            twin.advance_to(400)
            assert _triplet(front.query("a")) == _triplet(twin.query("a"))
        finally:
            front.close()


    def test_refused_write_leaves_no_key_on_the_worker(self) -> None:
        # The worker's EH engine refuses 1.5 (it takes integer counts);
        # neither the fold nor the merge may leave the new key behind.
        front = ShardedServiceStore(
            SlidingWindowDecay(8), 0.1, workers=2, ttl=4
        )
        try:
            front.observe("good", 1.0, when=10)
            before = (front.keys(), front.key_stats(), front.stats()["keys"])
            with pytest.raises(InvalidParameterError):
                front.observe("bad", 1.5, when=10)
            other = make_decaying_sum(SlidingWindowDecay(9), 0.1)
            other.advance(10)
            with pytest.raises(InvalidParameterError):
                front.merge_into("bad", other)
            assert (
                front.keys(), front.key_stats(), front.stats()["keys"]
            ) == before
            front.advance_to(1000)
            assert front.keys() == []
        finally:
            front.close()


class TestMemoization:
    def test_repeat_queries_hit_the_router_memo(self, store) -> None:
        store.observe("k", 2.0)
        first = store.query("k")
        again = store.query("k")
        assert _triplet(first) == _triplet(again)
        # A write invalidates; an advance re-keys the memo.
        store.observe("k", 1.0)
        assert store.query("k").value != first.value
        before = _triplet(store.query("k"))
        store.advance(2)
        assert _triplet(store.query("k")) != before

    def test_memoized_matches_unmemoized(self) -> None:
        # Router-memoized reads equal the single-process store fed the
        # same items (the differential contract), hits included.
        items = [
            KeyedItem(f"k{i % 4}", t, float(i % 3) + 0.5)
            for i, t in enumerate(range(0, 40, 2))
        ]
        single = ServiceStore(ExponentialDecay(0.05), 0.1)
        with ShardedServiceStore(
            ExponentialDecay(0.05), 0.1, workers=2
        ) as memo:
            for front in (memo, single):
                front.observe_batch(items[:10])
                for key in front.keys():
                    front.query(key)
                front.observe_batch(items[10:], until=50)
            for key in single.keys():
                for _ in range(2):  # the second read is a memo hit
                    assert _triplet(memo.query(key)) == _triplet(
                        single.engine(key).query()
                    )
            assert memo.query_total().value == pytest.approx(
                single.query_total().value, rel=1e-12
            )


def _pipe_log(monkeypatch, front) -> list[tuple]:
    """Record the router's pipe traffic: ``("send", shard, op)`` per frame
    sent, ``("recv", shard)`` per reply read."""
    shard_at = {id(shard.conn): i for i, shard in enumerate(front._shards)}
    events: list[tuple] = []
    send, recv = sharded.send_frame, sharded.recv_frame_bytes

    def logged_send(conn, data):
        events.append(("send", shard_at[id(conn)], decode_frame(data)["op"]))
        send(conn, data)

    def logged_recv(conn):
        events.append(("recv", shard_at[id(conn)]))
        return recv(conn)

    monkeypatch.setattr(sharded, "send_frame", logged_send)
    monkeypatch.setattr(sharded, "recv_frame_bytes", logged_recv)
    return events


class TestFrameCounts:
    """The router's IPC work as exact counts, on a 3-worker front."""

    #: 12 keys over 30 ticks; every shard owns at least one key.
    ITEMS = [KeyedItem(f"k{i % 12}", i // 4, 1.0) for i in range(120)]

    def test_one_ingest_frame_per_shard_per_write_call(
        self, store, monkeypatch
    ) -> None:
        assert {shard_of(item.key, 3) for item in self.ITEMS} == {0, 1, 2}
        events = _pipe_log(monkeypatch, store)
        store.observe_batch(self.ITEMS)
        ingest = [event for event in events if event[2:] == ("ingest",)]
        assert ingest == [("send", 0, "ingest"), ("send", 1, "ingest"),
                          ("send", 2, "ingest")]

    def test_every_frame_is_sent_before_any_reply_is_read(
        self, store, monkeypatch
    ) -> None:
        # The workers fold concurrently only if the router sends all its
        # frames before it blocks on the first reply.
        events = _pipe_log(monkeypatch, store)
        store.observe_batch(self.ITEMS)
        assert events[:6] == [
            ("send", 0, "ingest"), ("send", 1, "ingest"),
            ("send", 2, "ingest"), ("recv", 0), ("recv", 1), ("recv", 2),
        ]
        del events[:]
        store.stats()
        assert events == [
            ("send", 0, "stats"), ("send", 1, "stats"),
            ("send", 2, "stats"), ("recv", 0), ("recv", 1), ("recv", 2),
        ]

    def test_repeat_reads_in_a_tick_cost_one_frame(
        self, store, monkeypatch
    ) -> None:
        store.observe_batch(self.ITEMS)
        events = _pipe_log(monkeypatch, store)
        for _ in range(5):
            for key in ("k0", "k1", "k2"):
                store.query(key)
        queries = [event for event in events if event[0] == "send"]
        assert len(queries) == 3
        assert {event[2] for event in queries} == {"query"}


class TestSnapshot:
    @staticmethod
    def _seed(front) -> None:
        items = [
            KeyedItem(f"k{i % 5}", t, 1.0 + (i % 3))
            for i, t in enumerate(range(0, 30, 3))
        ]
        front.observe_batch(items, until=32)

    def test_round_trip_preserves_queries(self, store) -> None:
        self._seed(store)
        data = store.to_dict()
        assert data["kind"] == "sharded-service-store"
        clone = ShardedServiceStore.from_dict(data)
        try:
            assert clone.workers == store.workers
            assert clone.time == store.time
            for key in store.keys():
                assert _triplet(clone.query(key)) == _triplet(
                    store.query(key)
                )
            assert clone.stats()["ingested_weight"] == (
                store.stats()["ingested_weight"]
            )
        finally:
            clone.close()

    def test_restore_across_worker_counts(self, store) -> None:
        self._seed(store)
        wider = ShardedServiceStore.from_dict(store.to_dict(), workers=5)
        try:
            assert wider.workers == 5
            for key in store.keys():
                assert _triplet(wider.query(key)) == _triplet(
                    store.query(key)
                )
        finally:
            wider.close()

    def test_flatten_to_plain_service_store(self, store) -> None:
        self._seed(store)
        plain_data = flatten_snapshot(store.to_dict())
        assert plain_data["kind"] == "service-store"
        plain = ServiceStore.from_dict(plain_data)
        assert plain.time == store.time
        for key in store.keys():
            assert _triplet(plain.query(key)) == _triplet(store.query(key))
        stats = plain.stats()
        assert stats["ingested_weight"] == store.stats()["ingested_weight"]

    def test_restore_accepts_plain_snapshot(self, store) -> None:
        twin = ServiceStore(ExponentialDecay(0.05), 0.1)
        self._seed(twin)
        store.restore(twin.to_dict())
        assert store.time == twin.time
        for key in twin.keys():
            assert _triplet(store.query(key)) == _triplet(twin.query(key))

    def test_snapshot_doubles_as_checkpoint(self, store) -> None:
        self._seed(store)
        store.to_dict()
        # After a snapshot every journal is truncated onto a checkpoint.
        for shard in store._shards:
            assert shard.journal == []
            assert shard.checkpoint is not None
