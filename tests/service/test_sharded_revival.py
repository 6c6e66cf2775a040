"""Byte-level revival state of :class:`ShardedServiceStore`.

The router keeps each worker's revival journal and checkpoint as the
exact bytes of the pipe.  These tests pin what that has to preserve and
what it buys:

* revival after SIGKILL at three points (right after a checkpoint,
  mid-journal, right after ``restore()``) on a forward-decay cell with
  native late entries stays bit-identical to a single ``ServiceStore``;
* a worker revived under a TTL evicts in the single store's order, so
  ``evicted_weight`` stays bit-identical too;
* every journal entry and checkpoint is ``bytes``, and the router
  retains about what the wire carried, not decoded programs;
* the per-worker ``journal_frames``/``journal_bytes``/``checkpoint_bytes``
  counters in ``stats()`` and their resets;
* a rejected ``restore()`` leaves keys, answers, worker engines, ledgers
  and revival state exactly as they were;
* the router's read memo stays bounded under key churn.
"""

from __future__ import annotations

import copy
import gc
import os
import random
import signal
import tracemalloc

import pytest

from repro.core.decay import ExponentialDecay
from repro.core.errors import TimeOrderError
from repro.core.forward import ForwardDecay
from repro.serialize import engine_to_dict
from repro.service.sharded import ShardedServiceStore, shard_of
from repro.service.store import ServiceStore
from repro.streams.io import KeyedItem

WORKERS = 2


def _kill(front: ShardedServiceStore, index: int) -> None:
    """SIGKILL one worker and wait until it is gone (reaped, not a zombie)."""
    process = front._shards[index].process
    os.kill(front.worker_pids()[index], signal.SIGKILL)
    process.join(timeout=10)
    assert not process.is_alive()


def _late_batches(seed: int, count: int = 14) -> list[list[KeyedItem]]:
    """Batches of in-order items with ~20% late ones (before the clock)."""
    rng = random.Random(seed)
    clock = 0
    batches = []
    for _ in range(count):
        batch = []
        for _ in range(12):
            if clock > 3 and rng.random() < 0.2:
                when = clock - rng.randint(1, 3)
            else:
                clock += rng.randint(0, 2)
                when = clock
            batch.append(
                KeyedItem(f"k{rng.randrange(6)}", when, rng.randint(1, 9) / 4)
            )
        batches.append(batch)
    return batches


def _answers(store) -> dict[str, tuple[float, float, float]]:
    out = {}
    for key in store.keys():
        estimate = store.query(key)
        out[key] = (estimate.value, estimate.lower, estimate.upper)
    return out


def _worker_engines(front: ShardedServiceStore) -> dict[str, object]:
    """Each key's engine as its worker holds it, past the router's memo."""
    return {
        key: engine_to_dict(front.export_engine(key)) for key in front.keys()
    }


def _assert_bit_identical(
    single: ServiceStore, front: ShardedServiceStore
) -> None:
    assert front.time == single.time
    assert _answers(front) == _answers(single)
    want, got = single.stats(), front.stats()
    for field in ("keys", "ingested_items", "ingested_weight",
                  "evicted_keys", "evicted_weight", "dropped_count",
                  "buffered"):
        assert got[field] == want[field], field


def _assert_wire_bytes(front: ShardedServiceStore) -> None:
    for shard in front._shards:
        assert all(type(frame) is bytes for frame in shard.journal)
        assert shard.checkpoint is None or type(shard.checkpoint) is bytes


def _fwd_pair() -> tuple[ServiceStore, ShardedServiceStore]:
    decay = ForwardDecay("exp", 0.05)
    front = ShardedServiceStore(
        decay, 0.1, workers=WORKERS, checkpoint_every=4
    )
    assert front.native_out_of_order
    return ServiceStore(decay, 0.1), front


class TestRevivalFromWireBytes:
    @pytest.mark.parametrize("seed", (3, 8))
    def test_kill_right_after_checkpoint(self, seed: int) -> None:
        single, front = _fwd_pair()
        try:
            killed = False
            for batch in _late_batches(seed):
                single.observe_batch(batch)
                front.observe_batch(batch)
                _assert_wire_bytes(front)
                shard = front._shards[0]
                if not killed and shard.checkpoint and not shard.journal:
                    _kill(front, 0)
                    killed = True
            assert killed and front.revived_workers == 1
            _assert_bit_identical(single, front)
        finally:
            front.close()

    @pytest.mark.parametrize("seed", (3, 8))
    def test_kill_mid_journal(self, seed: int) -> None:
        single, front = _fwd_pair()
        try:
            kills = 0
            for batch in _late_batches(seed):
                single.observe_batch(batch)
                front.observe_batch(batch)
                _assert_wire_bytes(front)
                # Once before the first checkpoint, once on top of one.
                if len(front._shards[1].journal) == 2 and kills < 2:
                    _kill(front, 1)
                    kills += 1
            assert kills == 2 and front.revived_workers == 2
            _assert_bit_identical(single, front)
        finally:
            front.close()

    def test_kill_right_after_restore(self) -> None:
        single, front = _fwd_pair()
        batches = _late_batches(5)
        try:
            for batch in batches[:3]:
                single.observe_batch(batch)
                front.observe_batch(batch)
            snapshot = single.to_dict()
            for batch in batches[3:7]:
                single.observe_batch(batch)
                front.observe_batch(batch)
            # Roll both fronts back; the restore frames become the
            # checkpoints a revived worker replays.
            single.restore(snapshot)
            front.restore(snapshot)
            _assert_wire_bytes(front)
            for index in range(WORKERS):
                _kill(front, index)
            for batch in batches[7:]:
                single.observe_batch(batch)
                front.observe_batch(batch)
            assert front.revived_workers == WORKERS
            _assert_wire_bytes(front)
            _assert_bit_identical(single, front)
        finally:
            front.close()


class TestRevivalKeepsTheTTLOrder:
    @staticmethod
    def _batches(seed: int) -> list[list[KeyedItem]]:
        """In-order batches over six keys, many sharing a tick."""
        rng = random.Random(seed)
        clock = 0
        batches = []
        for _ in range(10):
            batch = []
            for _ in range(8):
                clock += rng.choice((0, 0, 1, 3))
                batch.append(
                    KeyedItem(f"k{rng.randrange(6)}", clock,
                              rng.randint(1, 9) / 4)
                )
            batches.append(batch)
        return batches

    @pytest.mark.parametrize("seed", range(10))
    def test_kill_every_batch_under_a_ttl(self, seed: int) -> None:
        # One worker, so evicted_weight sums in the single store's order;
        # every batch's frame is a checkpoint the next revival restores.
        decay = ExponentialDecay(0.05)
        single = ServiceStore(decay, 0.1, ttl=4)
        front = ShardedServiceStore(
            decay, 0.1, workers=1, checkpoint_every=1, ttl=4
        )
        try:
            batches = self._batches(seed)
            for batch in batches:
                single.observe_batch(batch)
                front.observe_batch(batch)
                _kill(front, 0)
            single.advance_to(single.time + 10)
            front.advance_to(single.time)
            assert front.revived_workers == len(batches)
            _assert_bit_identical(single, front)
        finally:
            front.close()


class TestRouterMemory:
    def test_router_retains_wire_bytes_not_programs(self) -> None:
        batches = [
            [
                KeyedItem(f"k{(b * 40 + i) % 64}", b * 8 + i // 5,
                          float(i % 7) + 0.5)
                for i in range(40)
            ]
            for b in range(61)
        ]
        front = ShardedServiceStore(
            ExponentialDecay(0.05), 0.1, workers=WORKERS,
            checkpoint_every=100_000,
        )
        try:
            # Warm-up batch: lazily built router state is not retention.
            front.observe_batch(batches[0])
            journal_before = sum(s.journal_bytes for s in front._shards)
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for batch in batches[1:]:
                    front.observe_batch(batch)
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            _assert_wire_bytes(front)
            journal = sum(
                len(frame) for shard in front._shards for frame in shard.journal
            )
            assert journal == sum(s.journal_bytes for s in front._shards)
            assert retained <= 2 * (journal - journal_before)
        finally:
            front.close()

    def test_read_memo_bounded_under_key_churn(self) -> None:
        memo = ShardedServiceStore(
            ExponentialDecay(0.05), 0.1, workers=WORKERS, ttl=8
        )
        plain = ServiceStore(ExponentialDecay(0.05), 0.1, ttl=8)
        try:
            for start in range(0, 5_000, 100):
                # One fresh key per tick; the TTL evicts them behind us.
                items = [
                    KeyedItem(f"key{t}", t, 1.0 + t % 3)
                    for t in range(start, start + 100)
                ]
                memo.observe_batch(items)
                plain.observe_batch(items)
                for item in items[-5:]:
                    want = plain.engine(item.key).query()
                    for _ in range(2):  # the second poll is a memo hit
                        got = memo.query(item.key)
                        assert (got.value, got.lower, got.upper) == (
                            want.value, want.lower, want.upper
                        )
                assert len(memo._memo) <= 5
            assert memo.stats()["evicted_keys"] > 4_900
        finally:
            memo.close()


class TestRevivalStats:
    @staticmethod
    def _revival(front: ShardedServiceStore) -> list[tuple[int, int, int]]:
        rows = []
        for shard, worker in zip(front._shards, front.stats()["per_worker"]):
            assert worker["journal_frames"] == len(shard.journal)
            assert worker["journal_bytes"] == sum(map(len, shard.journal))
            assert worker["checkpoint_bytes"] == (
                0 if shard.checkpoint is None else len(shard.checkpoint)
            )
            rows.append(
                (worker["journal_frames"], worker["journal_bytes"],
                 worker["checkpoint_bytes"])
            )
        return rows

    def test_counters_track_and_reset(self) -> None:
        front = ShardedServiceStore(
            ExponentialDecay(0.05), 0.1, workers=WORKERS, checkpoint_every=3
        )
        try:
            front.observe("a", 1.0, when=1)
            front.advance(1)
            for frames, size, checkpoint in self._revival(front):
                assert frames == 2 and size > 0 and checkpoint == 0
            front.advance(1)  # the third journaled frame: checkpoint
            for frames, size, checkpoint in self._revival(front):
                assert frames == 0 and size == 0 and checkpoint > 0
            front.observe("b", 2.0, when=5)
            assert all(row[0] == 1 for row in self._revival(front))
            snapshot = front.to_dict()
            for frames, size, checkpoint in self._revival(front):
                assert frames == 0 and size == 0 and checkpoint > 0
            front.advance(2)
            assert all(row[0] == 1 for row in self._revival(front))
            front.restore(snapshot)
            for frames, size, checkpoint in self._revival(front):
                assert frames == 0 and size == 0 and checkpoint > 0
            _assert_wire_bytes(front)
        finally:
            front.close()


class TestAtomicRestore:
    def test_rejected_restore_changes_nothing(self) -> None:
        assert shard_of("a", WORKERS) == 0 and shard_of("b", WORKERS) == 1
        front = ShardedServiceStore(
            ExponentialDecay(0.05), 0.1, workers=WORKERS, checkpoint_every=3
        )
        try:
            front.observe_batch(
                [KeyedItem(k, t, 1.0 + t) for t, k in enumerate("abcdefabcdef")]
            )
            snapshot = front.to_dict()
            front.observe_batch([KeyedItem("b", 20, 2.0)])
            bad = copy.deepcopy(snapshot)
            del bad["shards"][0]["keys"]["a"]
            bad["shards"][1]["keys"]["b"]["engine"]["time"] = 999

            # Exports are journaled, so they run before the state capture.
            engines = _worker_engines(front)
            keys, answers, stats = front.keys(), _answers(front), front.stats()
            revival = [
                (shard.checkpoint, list(shard.journal))
                for shard in front._shards
            ]
            with pytest.raises(TimeOrderError):
                front.restore(bad)
            assert front.keys() == keys == list("abcdef")
            assert _answers(front) == answers
            assert front.stats() == stats
            assert [
                (shard.checkpoint, list(shard.journal))
                for shard in front._shards
            ] == revival
            assert _worker_engines(front) == engines
            # A later revival replays the kept state, not the rejected one.
            for index in range(WORKERS):
                _kill(front, index)
            assert _answers(front) == answers
            assert _worker_engines(front) == engines
            assert front.revived_workers == WORKERS
        finally:
            front.close()
