"""Byte-level revival state of :class:`ShardedServiceStore`.

The router keeps each worker's revival journal and checkpoint as the
exact bytes of the pipe.  These tests pin what that has to preserve and
what it buys:

* revival after SIGKILL at three points (right after a checkpoint,
  mid-journal, right after ``restore()``) on a forward-decay cell with
  native late entries stays bit-identical to a single ``ServiceStore``;
* a worker revived under a TTL evicts in the single store's order, so
  ``evicted_weight`` stays bit-identical too;
* a worker that dies on its checkpoint exchange -- after a journaled
  frame's reply, before the ``snapshot`` frame -- is revived from its old
  checkpoint and journal and checkpointed again;
* every journal entry and checkpoint is ``bytes``, and the router
  retains about what the wire carried, not decoded programs;
* the byte rule: between calls a journal stays under twice its
  checkpoint, whatever the batch sizes;
* a worker's ``snapshot`` reply, encoded one key at a time, equals the
  one-shot encoding of ``store.to_dict()`` byte for byte and peaks at a
  small multiple of its own size;
* the per-worker ``journal_frames``/``journal_bytes``/``checkpoint_bytes``
  /``checkpoints`` counters in ``stats()`` and their resets;
* a rejected ``restore()`` leaves keys, answers, worker engines, ledgers
  and revival state exactly as they were;
* the router's read memo stays bounded under key churn.
"""

from __future__ import annotations

import copy
import gc
import json
import os
import random
import signal
import tracemalloc

import pytest

from repro.conformance.engines import default_specs
from repro.core.decay import (
    ExponentialDecay,
    PolynomialDecay,
    SlidingWindowDecay,
)
from repro.core.errors import TimeOrderError
from repro.core.forward import ForwardDecay
from repro.serialize import engine_to_dict
from repro.service.ipc import decode_frame, encode_frame
from repro.service.sharded import (
    ShardedServiceStore,
    _worker_dispatch,
    flatten_snapshot,
    shard_of,
)
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


def _held(front: ShardedServiceStore) -> int:
    """The revival state's wire bytes: every journal and checkpoint."""
    return sum(
        shard.journal_bytes + len(shard.checkpoint or b"")
        for shard in front._shards
    )


def _assert_wire_bytes(front: ShardedServiceStore) -> None:
    for shard in front._shards:
        assert all(type(frame) is bytes for frame in shard.journal)
        assert shard.checkpoint is None or type(shard.checkpoint) is bytes


def _fwd_pair() -> tuple[ServiceStore, ShardedServiceStore]:
    decay = ForwardDecay("exp", 0.05)
    front = ShardedServiceStore(decay, 0.1, workers=WORKERS)
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
                # Twice on top of a checkpoint, with two journaled frames
                # to replay (the byte rule checkpoints the first frame).
                shard = front._shards[1]
                if len(shard.journal) == 2 and kills < 2:
                    assert shard.checkpoint is not None
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
        # every batch ends in a checkpoint (forced by to_dict) that the
        # next revival restores.
        decay = ExponentialDecay(0.05)
        single = ServiceStore(decay, 0.1, ttl=4)
        front = ShardedServiceStore(decay, 0.1, workers=1, ttl=4)
        try:
            batches = self._batches(seed)
            for batch in batches:
                single.observe_batch(batch)
                front.observe_batch(batch)
                front.to_dict()
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
            ExponentialDecay(0.05), 0.1, workers=WORKERS
        )
        try:
            # Warm-up batch: lazily built router state is not retention.
            front.observe_batch(batches[0])
            held_before = _held(front)
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
            # What the router keeps is the journal plus the checkpoint:
            # wire bytes, with little more than their object headers.
            assert retained <= 2 * (_held(front) - held_before)
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
    def _revival(
        front: ShardedServiceStore,
    ) -> list[tuple[int, int, int, int]]:
        rows = []
        for shard, worker in zip(front._shards, front.stats()["per_worker"]):
            assert worker["journal_frames"] == len(shard.journal)
            assert worker["journal_bytes"] == sum(map(len, shard.journal))
            assert worker["checkpoint_bytes"] == (
                0 if shard.checkpoint is None else len(shard.checkpoint)
            )
            assert worker["checkpoints"] == shard.checkpoints
            rows.append(
                (worker["journal_frames"], worker["journal_bytes"],
                 worker["checkpoint_bytes"], worker["checkpoints"])
            )
        return rows

    def test_counters_track_and_reset(self) -> None:
        front = ShardedServiceStore(
            ExponentialDecay(0.05), 0.1, workers=WORKERS
        )
        try:
            # Nothing journaled: no checkpoint, not even at start-up.
            assert self._revival(front) == [(0, 0, 0, 0)] * WORKERS
            # Before the first checkpoint a shard's counts as 0 bytes, so
            # its first journaled frame is checkpointed at once.
            front.observe("a", 1.0, when=1)
            for frames, size, checkpoint, taken in self._revival(front):
                assert (frames, size, taken) == (0, 0, 1) and checkpoint > 0
            # Clock steps journal until a journal reaches twice its
            # checkpoint's bytes; that call checkpoints it.
            rows = self._revival(front)
            for step in range(2, 200):
                front.advance(1)
                frame = len(
                    encode_frame({"op": "ingest", "prog": [["adv", step]]})
                )
                want = []
                for frames, size, checkpoint, taken in rows:
                    if size + frame >= 2 * checkpoint:
                        want.append((0, 0, taken + 1))
                    else:
                        want.append((frames + 1, size + frame, taken))
                rows = self._revival(front)
                assert [(f, s, t) for f, s, _, t in rows] == want
                for frames, size, checkpoint, _ in rows:
                    assert size < 2 * checkpoint
                if all(taken >= 3 for *_, taken in rows):
                    break
            else:
                pytest.fail("the byte rule never checkpointed twice more")
            # to_dict() and restore() checkpoint every shard, and count.
            counts = [row[3] for row in self._revival(front)]
            snapshot = front.to_dict()
            for (frames, size, checkpoint, taken), count in zip(
                self._revival(front), counts
            ):
                assert (frames, size, taken) == (0, 0, count + 1)
                assert checkpoint > 0
            front.observe("b", 2.0, when=front.time + 3)
            assert [row[0] for row in self._revival(front)] == [1] * WORKERS
            front.restore(snapshot)
            for (frames, size, checkpoint, taken), count in zip(
                self._revival(front), counts
            ):
                assert (frames, size, taken) == (0, 0, count + 2)
                assert checkpoint > 0
            _assert_wire_bytes(front)
        finally:
            front.close()


class TestAtomicRestore:
    def test_rejected_restore_changes_nothing(self) -> None:
        assert shard_of("a", WORKERS) == 0 and shard_of("b", WORKERS) == 1
        front = ShardedServiceStore(
            ExponentialDecay(0.05), 0.1, workers=WORKERS
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


class TestDeathOnCheckpointExchange:
    """SIGKILL after a journaled frame's reply, before its checkpoint."""

    @staticmethod
    def _dying(front: ShardedServiceStore, index: int) -> list[int]:
        """Kill shard ``index`` whenever ``_maybe_checkpoint`` is about to
        snapshot it; returns the list of journal lengths at each kill."""
        checkpoint = front._maybe_checkpoint
        kills: list[int] = []

        def dying_checkpoint() -> None:
            shard = front._shards[index]
            if shard.due():
                kills.append(len(shard.journal))
                _kill(front, index)
            checkpoint()

        front._maybe_checkpoint = dying_checkpoint
        return kills

    @pytest.mark.parametrize("seed", range(4))
    def test_revives_and_checkpoints_again_under_a_ttl(self, seed: int) -> None:
        # One worker, so its snapshot is the single store's to_dict() and
        # evicted_weight sums in the single store's order.
        decay = ExponentialDecay(0.05)
        single = ServiceStore(decay, 0.1, ttl=4)
        front = ShardedServiceStore(decay, 0.1, workers=1, ttl=4)
        kills = self._dying(front, 0)
        try:
            for batch in TestRevivalKeepsTheTTLOrder._batches(seed):
                shard = front._shards[0]
                before = (len(kills), shard.checkpoints, front.revived_workers)
                single.observe_batch(batch)
                front.observe_batch(batch)
                if len(kills) == before[0]:
                    continue
                # Revived from the old checkpoint (none, the first time)
                # plus the journal, then checkpointed again.
                assert shard.checkpoints == before[1] + 1
                assert front.revived_workers == before[2] + 1
                assert shard.journal == [] and shard.journal_bytes == 0
                assert decode_frame(shard.checkpoint)["data"] == single.to_dict()
            # The first kill had no checkpoint to restore; the others did.
            assert kills[0] == 1 and len(kills) >= 2
            single.advance_to(single.time + 10)
            front.advance_to(single.time)
            _assert_bit_identical(single, front)
            assert flatten_snapshot(front.to_dict()) == single.to_dict()
            assert front.stats()["evicted_weight"].hex() == (
                single.stats()["evicted_weight"].hex()
            )
        finally:
            front.close()

    @pytest.mark.parametrize("seed", (3, 8))
    def test_revives_a_forward_shard_with_late_entries(self, seed: int) -> None:
        single, front = _fwd_pair()
        kills = self._dying(front, 1)
        try:
            for batch in _late_batches(seed):
                single.observe_batch(batch)
                front.observe_batch(batch)
                _assert_wire_bytes(front)
            assert len(kills) >= 2
            assert front.revived_workers == len(kills)
            assert front._shards[1].checkpoints == len(kills)
            _assert_bit_identical(single, front)
            assert _worker_engines(front) == {
                key: engine_to_dict(single.engine(key)) for key in single.keys()
            }
        finally:
            front.close()


def _batch_sizes(rng: random.Random, count: int) -> list[int]:
    """``count`` batch sizes from 1 to 5,000, spread over the decades."""
    sizes = [1, 5_000, 1, 2, 5_000, 1]
    while len(sizes) < count:
        sizes.append(min(5_000, int(10 ** rng.uniform(0, 3.7))))
    return sizes


class TestJournalBound:
    @pytest.mark.parametrize(
        "decay",
        [ExponentialDecay(0.05), ForwardDecay("exp", 0.05)],
        ids=["expd", "fwd-exp"],
    )
    def test_journal_stays_under_twice_its_checkpoint(self, decay) -> None:
        rng = random.Random(17)
        front = ShardedServiceStore(decay, 0.1, workers=WORKERS)
        clock = 0
        try:
            for size in _batch_sizes(rng, 24):
                batch = []
                for _ in range(size):
                    clock += rng.choice((0, 0, 0, 1))
                    batch.append(
                        KeyedItem(f"k{rng.randrange(300)}", clock,
                                  rng.randint(1, 9) / 4)
                    )
                front.observe_batch(batch)
                for worker in front.stats()["per_worker"]:
                    if worker["journal_frames"] or worker["checkpoints"]:
                        assert worker["journal_bytes"] < (
                            2 * worker["checkpoint_bytes"]
                        )
        finally:
            front.close()


def _forward_shard() -> ServiceStore:
    """A shard of the 2-worker forward-decay benchmark: 512 keys, a fifth
    of the items late."""
    rng = random.Random(5)
    store = ServiceStore(ForwardDecay("exp", 0.05), 0.1)
    items = []
    for tick in range(4_000):
        for _ in range(3):
            late = rng.random() < 0.2
            items.append(
                KeyedItem(f"key-{rng.randrange(512)}",
                          tick - rng.randint(1, 20) if late and tick > 20
                          else tick,
                          rng.randint(1, 40) / 8)
            )
    store.observe_batch(items)
    return store


def _keyed_store(decay, keys: int, ticks: int, ttl=None) -> ServiceStore:
    """``keys`` keys on ``decay``, integer weights, every key written."""
    rng = random.Random(keys)
    store = ServiceStore(decay, 0.1, ttl=ttl)
    items = [
        KeyedItem(f"k{rng.randrange(keys)}", tick, float(rng.randint(1, 6)))
        for tick in range(ticks)
        for _ in range(3)
    ]
    items += [KeyedItem(f"k{i}", ticks, 1.0) for i in range(keys)]
    store.observe_batch(items)
    return store


def _one_shot(store: ServiceStore) -> bytes:
    return encode_frame({"ok": True, "op": "restore", "data": store.to_dict()})


def _streamed(store: ServiceStore) -> bytearray:
    """The worker's snapshot reply: the buffer it was built in, which the
    worker sends as is (no ``bytes`` copy)."""
    reply = _worker_dispatch(store, {"op": "snapshot"})
    assert type(reply) is bytearray
    return reply


class TestSnapshotFrame:
    @pytest.mark.parametrize("cell", sorted(default_specs()))
    def test_equals_the_one_shot_encoding_on_every_cell(self, cell) -> None:
        spec = default_specs()[cell]
        store = ServiceStore(spec.decay, spec.epsilon)
        assert _streamed(store) == _one_shot(store)  # empty
        rng = random.Random(len(cell))
        clock = 0
        items = []
        for _ in range(400):
            clock += rng.choice((0, 1, 2))
            items.append(
                KeyedItem(f"k{rng.randrange(9)}", clock,
                          float(rng.randint(1, 7)))
            )
        store.observe_batch(items, until=clock + 5)
        assert _streamed(store) == _one_shot(store)

    def test_equals_the_one_shot_encoding_with_a_private_lattice_key(
        self,
    ) -> None:
        store = _keyed_store(PolynomialDecay(1.0), 6, 600)
        store.merge_into("k0", store.export_engine("k1"))
        assert store.engine("k0").lattice is not store._keyed._lattice
        assert _streamed(store) == _one_shot(store)

    def test_equals_the_one_shot_encoding_after_evictions_and_restore(
        self,
    ) -> None:
        store = _keyed_store(ExponentialDecay(0.05), 40, 300, ttl=5)
        store.advance(3)
        assert store.eviction.evicted_keys > 0
        assert _streamed(store) == _one_shot(store)
        restored = ServiceStore.from_dict(json.loads(_one_shot(store))["data"])
        assert _streamed(restored) == _streamed(store)
        assert _streamed(restored) == _one_shot(restored)

    @pytest.mark.parametrize(
        "build",
        [
            _forward_shard,
            lambda: _keyed_store(SlidingWindowDecay(64), 4_096, 2_000),
            lambda: _keyed_store(PolynomialDecay(1.0), 64, 3_000),
        ],
        ids=["fwd-512", "eh-4096", "wbmh-64"],
    )
    def test_encoding_peaks_at_a_small_multiple_of_the_frame(
        self, build
    ) -> None:
        store = build()
        assert _streamed(store) == _one_shot(store)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            frame = _streamed(store)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * len(frame)
