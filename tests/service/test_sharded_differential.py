"""Sharded-vs-single differential: the multi-process front changes nothing.

The acceptance contract of the sharded service PR: replaying the
differential service suite (same seven engine-family cells, same fuzz
seeds) through a 3-worker :class:`ShardedServiceStore` must be
bit-identical to the single-process :class:`ServiceStore` -- and, for
single-key traces, to the direct factory engine -- on every per-key
certified triplet.  Cross-shard ``query_total`` folds worker summaries
through engine ``merge``, so its guarantee is the CL008 one: a certified
interval containing the true total, with the point value reproducing the
single-store fold up to float summation order.

The crash clause: SIGKILL a worker mid-run and keep feeding.  The router
must revive it from checkpoint + journal replay and reconcile the
ledgers without losing a single unit of admitted weight.

The admission clause: both fronts run one admission stage, so late-item
traces under every out-of-order policy (and natively late items on the
forward-decay engines) leave both fronts with identical answers and
identical admission ledgers -- across a mid-stream snapshot that still
holds buffered items, too.

The refusal clause: an entry an engine refuses (a register overflow) is
skipped on every front and the rest of the write call applies, so the
split of a program by shard changes nothing -- not the clock, the keys,
the ledgers, the raised error, or whether a snapshot restores -- also
when the refusing worker was killed before the program reached it.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import time as _time
from typing import Callable

import pytest

from repro.conformance.engines import default_specs
from repro.conformance.fuzz import trace_for_seed
from repro.core import forward
from repro.core.decay import ExponentialDecay
from repro.core.errors import InvalidParameterError, TimeOrderError
from repro.core.forward import ForwardDecay, ForwardDecaySum
from repro.core.timeorder import OutOfOrderPolicy
from repro.service.daemon import IngestDaemon
from repro.service.loadgen import keyed_trace
from repro.streams.io import KeyedItem
from repro.service.sharded import ShardedServiceStore, shard_of
from repro.service.store import ServiceStore

#: Same seven storage architectures as tests/service/test_differential.py.
CELLS = (
    "expd",
    "fwd-exp",
    "fwd-poly",
    "sliwin",
    "polyd-wbmh",
    "linear-ceh",
    "polyexp",
)

N_SEEDS = 5

WORKERS = 3


def _replay_single_key(cell: str, seed: int) -> None:
    spec = default_specs()[cell]
    trace = trace_for_seed(seed)
    direct = spec.build()
    direct.ingest(trace.stream_items(), until=trace.end_time)
    expected = direct.query()

    rows = [KeyedItem("cell", t, v) for t, v in trace.items]
    single = ServiceStore(spec.decay, spec.epsilon)
    single.observe_batch(rows, until=trace.end_time)
    sharded = ShardedServiceStore(spec.decay, spec.epsilon, workers=WORKERS)
    try:
        sharded.observe_batch(rows, until=trace.end_time)
        if trace.n_items == 0:
            with pytest.raises(KeyError):
                sharded.query("cell")
            assert expected.value == 0.0
            return
        got = sharded.query("cell")
        want = single.query("cell")
        assert (got.value, got.lower, got.upper) == (
            want.value,
            want.lower,
            want.upper,
        ), f"{cell} seed {seed}: sharded diverged from single store"
        assert (got.value, got.lower, got.upper) == (
            expected.value,
            expected.lower,
            expected.upper,
        ), f"{cell} seed {seed}: sharded diverged from direct engine"
        assert sharded.time == single.time == direct.time
    finally:
        sharded.close()


class TestSingleKeyCells:
    @pytest.mark.parametrize("cell", CELLS)
    def test_cell_bit_identical_across_ipc_plane(self, cell: str) -> None:
        for seed in range(N_SEEDS):
            _replay_single_key(cell, seed)


def _pair(
    cell: str,
    ttl: int | None = None,
    policy: Callable[[], OutOfOrderPolicy] | None = None,
):
    """A single store and a sharded front, each with its own policy."""
    spec = default_specs()[cell]
    single = ServiceStore(
        spec.decay, spec.epsilon, ttl=ttl,
        policy=None if policy is None else policy(),
    )
    sharded = ShardedServiceStore(
        spec.decay, spec.epsilon, workers=WORKERS, ttl=ttl,
        policy=None if policy is None else policy(),
    )
    return single, sharded


def _assert_stores_agree(
    single: ServiceStore,
    sharded: ShardedServiceStore,
    *,
    exact_total: bool = True,
) -> None:
    assert sharded.time == single.time
    assert sorted(sharded.keys()) == sorted(single.keys())
    for key in single.keys():
        want = single.query(key)
        got = sharded.query(key)
        assert (got.value, got.lower, got.upper) == (
            want.value,
            want.lower,
            want.upper,
        ), f"key {key}: sharded diverged from single store"
    single_stats = single.stats()
    sharded_stats = sharded.stats()
    # Admission ledgers are router-owned and folded in the exact
    # single-store float order: identical, not merely close.
    for field in ("keys", "ingested_items", "ingested_weight",
                  "evicted_keys", "dropped_count", "dropped_weight",
                  "buffered", "watermark"):
        assert sharded_stats[field] == single_stats[field], field
    # Evicted weight sums per-worker floats in shard order.
    assert sharded_stats["evicted_weight"] == pytest.approx(
        single_stats["evicted_weight"], rel=1e-12, abs=1e-12
    )
    want_total = single.query_total()
    got_total = sharded.query_total()
    assert got_total.lower <= got_total.upper
    if not exact_total:
        # Histogram merges compose error budgets, so the fan-in total is
        # a different certified bracket around the same true total.
        assert got_total.lower <= want_total.upper
        assert want_total.lower <= got_total.upper
        return
    # CL008 composition: the fan-in fold reproduces the single-store
    # total up to float summation order, with bounds still certified.
    assert got_total.value == pytest.approx(want_total.value, rel=1e-9)
    assert got_total.lower <= want_total.value * (1 + 1e-9) + 1e-9
    assert want_total.value <= got_total.upper * (1 + 1e-9) + 1e-9


class TestMultiKeyWorkload:
    @pytest.mark.parametrize("cell", ("expd", "fwd-exp", "sliwin"))
    def test_keyed_workload_agrees(self, cell: str) -> None:
        items = keyed_trace(400, 8, seed=11)
        if cell == "sliwin":
            # The sliding-window EH counts integer arrivals.
            items = [
                KeyedItem(item.key, item.time, float(int(item.value) + 1))
                for item in items
            ]
        single, sharded = _pair(cell)
        try:
            single.observe_batch(items, until=items[-1].time + 3)
            sharded.observe_batch(items, until=items[-1].time + 3)
            _assert_stores_agree(single, sharded)
        finally:
            sharded.close()

    def test_ttl_eviction_agrees(self) -> None:
        items = keyed_trace(300, 6, seed=4)
        single, sharded = _pair("expd", ttl=5)
        try:
            single.observe_batch(items, until=items[-1].time + 40)
            sharded.observe_batch(items, until=items[-1].time + 40)
            # The long quiet tail expires every key on both fronts.
            assert single.stats()["evicted_keys"] > 0
            _assert_stores_agree(single, sharded)
        finally:
            sharded.close()


class TestWorkerCrash:
    def test_kill_worker_mid_run_loses_no_admitted_weight(self) -> None:
        items = keyed_trace(500, 8, seed=9)
        cut = len(items) // 2
        single = ServiceStore(ExponentialDecay(0.05), 0.1)
        sharded = ShardedServiceStore(
            ExponentialDecay(0.05), 0.1, workers=WORKERS
        )
        try:
            single.observe_batch(items[:cut])
            sharded.observe_batch(items[:cut])
            # The byte rule checkpointed the first journaled frame, so the
            # revival replays a checkpoint and not only a journal.
            assert sharded.stats()["per_worker"][1]["checkpoints"] >= 1
            victim = sharded.worker_pids()[1]
            os.kill(victim, signal.SIGKILL)
            deadline = _time.monotonic() + 10.0
            while _time.monotonic() < deadline:
                try:
                    os.kill(victim, 0)
                except ProcessLookupError:
                    break
                _time.sleep(0.05)
            single.observe_batch(items[cut:], until=items[-1].time + 2)
            sharded.observe_batch(items[cut:], until=items[-1].time + 2)
            assert sharded.revived_workers >= 1
            assert victim not in sharded.worker_pids()
            _assert_stores_agree(single, sharded)
            # The reconciliation clause, stated directly: every admitted
            # unit of weight survived the crash.
            assert (
                sharded.stats()["ingested_weight"]
                == single.stats()["ingested_weight"]
                == pytest.approx(sum(item.value for item in items))
            )
        finally:
            sharded.close()

    def test_kill_worker_between_queries_replays_reads(self) -> None:
        items = keyed_trace(200, 5, seed=2)
        single = ServiceStore(ExponentialDecay(0.05), 0.1)
        sharded = ShardedServiceStore(
            ExponentialDecay(0.05), 0.1, workers=WORKERS
        )
        try:
            single.observe_batch(items)
            sharded.observe_batch(items)
            assert all(
                worker["checkpoints"] >= 1
                for worker in sharded.stats()["per_worker"]
            )
            for victim in list(sharded.worker_pids()):
                os.kill(victim, signal.SIGKILL)
            # Every worker is dead: the next reads must revive all three
            # from their checkpoints + journals and still agree.
            _assert_stores_agree(single, sharded)
            assert sharded.revived_workers >= WORKERS
        finally:
            sharded.close()


def _late_trace(cell: str, seed: int) -> list[KeyedItem]:
    """A keyed trace where a fifth of the items arrive 1-8 ticks late."""
    rng = random.Random(seed)
    items = []
    for item in keyed_trace(400, 8, seed=seed, mean_gap=0.8):
        when = item.time
        if rng.random() < 0.2:
            when = max(0, when - rng.randint(1, 8))
        # The sliding-window EH counts integer arrivals.
        value = float(int(item.value) + 1) if cell == "sliwin" else item.value
        items.append(KeyedItem(item.key, when, value))
    return items


#: Cells whose engines merge exactly, so fan-in totals match point-wise.
_EXACT_MERGE = {"expd", "sliwin", "fwd-exp"}


def _feed(stores, items: list[KeyedItem], chunk: int = 37) -> None:
    for lo in range(0, len(items), chunk):
        for store in stores:
            store.observe_batch(items[lo:lo + chunk])


#: (cell, policy) pairs: both lossy-tolerant policies on the in-order
#: engine families, and natively late items on forward decay.
ADMISSION_CASES = [
    (cell, policy)
    for cell in ("expd", "sliwin", "polyd-wbmh")
    for policy in ("drop", "buffer")
] + [("fwd-exp", None)]

_POLICIES: dict[str | None, Callable[[], OutOfOrderPolicy] | None] = {
    "drop": OutOfOrderPolicy.dropping,
    "buffer": lambda: OutOfOrderPolicy.buffered(4),
    None: None,
}


class TestAdmissionAgrees:
    @pytest.mark.parametrize("cell,policy", ADMISSION_CASES)
    def test_late_items_agree(self, cell: str, policy: str | None) -> None:
        items = _late_trace(cell, seed=13)
        exact = cell in _EXACT_MERGE
        single, sharded = _pair(cell, policy=_POLICIES[policy])
        try:
            _feed((single, sharded), items)
            _assert_stores_agree(single, sharded, exact_total=exact)
            stats = single.stats()
            if policy is None:
                # Forward decay takes every late item natively.
                assert stats["ingested_items"] == len(items)
            else:
                assert stats["dropped_count"] > 0
            if policy == "buffer":
                assert stats["buffered"] > 0
                single.flush()
                sharded.flush()
                _assert_stores_agree(single, sharded, exact_total=exact)
        finally:
            sharded.close()

    @pytest.mark.parametrize("cell", ("expd", "polyd-wbmh"))
    def test_buffered_snapshot_crosses_fronts(self, cell: str) -> None:
        items = _late_trace(cell, seed=21)
        exact = cell in _EXACT_MERGE
        cut = len(items) // 2
        single, sharded = _pair(cell, policy=_POLICIES["buffer"])
        revived = None
        try:
            _feed((single, sharded), items[:cut])
            assert sharded.stats()["buffered"] > 0
            # Both fronts write one snapshot format, so the heap travels
            # both ways.
            adopted = ServiceStore.from_dict(sharded.to_dict())
            revived = ShardedServiceStore.from_dict(
                single.to_dict(), workers=WORKERS
            )
            _assert_stores_agree(adopted, sharded, exact_total=exact)
            _assert_stores_agree(single, revived, exact_total=exact)
            _feed((single, sharded, adopted, revived), items[cut:])
            for store in (single, sharded, adopted, revived):
                store.flush()
            for one, other in ((single, sharded), (adopted, sharded),
                               (single, revived)):
                _assert_stores_agree(one, other, exact_total=exact)
        finally:
            sharded.close()
            if revived is not None:
                revived.close()


#: Ticks per 64-bit scale block at forward rate 0.5 (64 / (0.5 log2 e)).
_FAST_BLOCK_TICKS = 89


def _long_forward_trace(seed: int) -> list[KeyedItem]:
    """A keyed forward trace at rate 0.5 crossing over 3 windows of blocks.

    A fifth of the items arrive 1-20 ticks late, and every 97th item is
    stamped more than a whole window of blocks in the past, so the
    engines drop it on write while the ledgers still count it.
    """
    rng = random.Random(seed)
    span = 3 * forward._WINDOW * _FAST_BLOCK_TICKS + 1000
    far = (forward._WINDOW + 2) * _FAST_BLOCK_TICKS
    items = []
    for index, when in enumerate(sorted(rng.sample(range(span), 900))):
        if index % 97 == 96 and when > far:
            when -= far + rng.randint(0, 200)
        elif rng.random() < 0.2:
            when = max(0, when - rng.randint(1, 20))
        value = round(rng.uniform(0.0, 4.0), 3)
        items.append(KeyedItem(f"k{rng.randrange(6)}", when, value))
    return items


class TestLongHorizonForward:
    def test_bounded_blocks_agree_across_a_worker_kill(self) -> None:
        decay = ForwardDecay("exp", 0.5)
        items = _long_forward_trace(seed=5)
        cut = len(items) // 2
        single = ServiceStore(decay, 0.1)
        sharded = ShardedServiceStore(decay, 0.1, workers=WORKERS)
        try:
            _feed((single, sharded), items[:cut])
            assert sharded.stats()["per_worker"][0]["checkpoints"] >= 1
            victim = sharded.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = _time.monotonic() + 10.0
            while _time.monotonic() < deadline:
                try:
                    os.kill(victim, 0)
                except ProcessLookupError:
                    break
                _time.sleep(0.05)
            _feed((single, sharded), items[cut:])
            assert sharded.revived_workers >= 1
            _assert_stores_agree(single, sharded)
            assert (
                sharded.stats()["ingested_items"]
                == single.stats()["ingested_items"]
                == len(items)
            )
            for key in single.keys():
                direct = ForwardDecaySum(decay)
                for item in items:
                    if item.key == key:
                        direct.add_at(item.time, item.value)
                direct.advance_to(single.time)
                want = direct.query()
                got = sharded.query(key)
                assert (got.value, got.lower, got.upper) == (
                    want.value, want.lower, want.upper
                ), key
            held = [
                len(state["engine"]["blocks"])
                for state in sharded.to_dict()["keys"].values()
            ]
            assert len(held) == len(single.keys())
            assert max(held) <= forward._WINDOW
        finally:
            sharded.close()


def _fronts() -> list[Callable[..., object]]:
    return [
        lambda **kw: ServiceStore(ExponentialDecay(0.05), 0.1, **kw),
        lambda **kw: ShardedServiceStore(
            ExponentialDecay(0.05), 0.1, workers=2, **kw
        ),
    ]


@pytest.mark.parametrize("front", _fronts(), ids=("single", "sharded"))
class TestAdmissionOnBothFronts:
    def test_raising_late_item_keeps_the_prefix(self, front) -> None:
        rows = [("a", 1, 1.0), ("b", 5, 2.0), ("c", 5, 3.0), ("d", 2, 4.0),
                ("e", 6, 5.0)]
        store = front()
        prefix = ServiceStore(ExponentialDecay(0.05), 0.1)
        try:
            with pytest.raises(TimeOrderError):
                store.observe_batch([KeyedItem(*row) for row in rows])
            prefix.observe_batch([KeyedItem(*row) for row in rows[:3]])
            assert store.time == prefix.time == 5
            assert store.keys() == ["a", "b", "c"]
            stats = store.stats()
            assert stats["ingested_items"] == 3
            assert stats["ingested_weight"] == 6.0
            for key in prefix.keys():
                got, want = store.query(key), prefix.query(key)
                assert (got.value, got.lower, got.upper) == (
                    want.value, want.lower, want.upper
                )
        finally:
            store.close()

    def test_restore_keeps_the_daemon_ingesting(self, front) -> None:
        # The POST /restore path under a buffered service: the daemon
        # passes its policy on every batch, so restore must keep that
        # very object installed.
        items = [KeyedItem(f"k{i % 3}", i, 1.0 + i) for i in range(20)]
        policy = OutOfOrderPolicy.buffered(4)
        store = front(policy=policy)

        async def main() -> IngestDaemon:
            daemon = IngestDaemon(store, policy=policy)
            await daemon.start()
            await daemon.submit_many(items[:10])
            await daemon.drain()
            store.restore(store.to_dict())
            await daemon.submit_many(items[10:])
            await daemon.drain()
            await daemon.stop(drain=False)
            return daemon

        try:
            daemon = asyncio.run(main())
            assert daemon.fold_errors == 0
            assert store.policy is policy
            stats = store.stats()
            assert stats["ingested_items"] == 16  # times 0..15 released
            assert stats["buffered"] == 4
            assert stats["watermark"] == 19
        finally:
            store.close()


def _bits(estimate) -> tuple[str, str, str]:
    return tuple(x.hex() for x in (estimate.value, estimate.lower, estimate.upper))


def _view(front) -> dict:
    """Everything a refusal may not split: clock, keys, answer bits and
    the ledgers."""
    stats = front.stats()
    return {
        "time": front.time,
        "keys": front.keys(),
        "answers": {key: _bits(front.query(key)) for key in front.keys()},
        **{
            field: stats[field]
            for field in ("ingested_items", "ingested_weight", "dropped_count",
                          "dropped_weight", "buffered", "watermark",
                          "evicted_keys", "evicted_weight")
        },
    }


def _assert_one_state(fronts) -> None:
    """Every front's view is the first front's, evicted weight (summed
    per worker, in shard order) up to float summation order."""
    want = _view(fronts[0])
    weight = want.pop("evicted_weight")
    for front in fronts[1:]:
        got = _view(front)
        assert got.pop("evicted_weight") == pytest.approx(weight, rel=1e-12)
        assert got == want


def _write(front, call) -> tuple[str, str] | None:
    """Run one write call; the type and message of what it raised."""
    try:
        call(front)
    except (InvalidParameterError, TimeOrderError) as exc:
        return type(exc).__name__, str(exc)
    return None


def _restores_everywhere(front) -> None:
    """``front``'s snapshot restores into both front kinds, which then
    answer every key as ``front`` does."""
    data = front.to_dict()
    want = {key: _bits(front.query(key)) for key in front.keys()}
    plain = ServiceStore.from_dict(data)
    assert {key: _bits(plain.query(key)) for key in plain.keys()} == want
    with ShardedServiceStore.from_dict(data, workers=2) as wide:
        assert {key: _bits(wide.query(key)) for key in wide.keys()} == want


#: (cell, weight): a weight one EWMA register takes once but not twice
#: within about 30 ticks, and one no polyexponential (2, 0.1) key takes.
REFUSAL_CELLS = [("expd", 1.5e308), ("polyexp", 1e307)]


def _refusal_trace(huge: float, seed: int, late: float) -> list[KeyedItem]:
    """A keyed trace over 5 keys with about 1 in 12 weights ``huge``
    and a ``late`` share of the items 1-6 ticks late."""
    rng = random.Random(seed)
    items, now = [], 0
    for _ in range(96):
        now += rng.random() < 0.4
        when = max(0, now - rng.randint(1, 6)) if rng.random() < late else now
        value = huge if rng.random() < 1 / 12 else round(rng.uniform(0.0, 4.0), 3)
        items.append(KeyedItem(f"k{rng.randrange(5)}", when, value))
    return items


class TestRefusals:
    """An engine refusal is skipped on every front, the same way."""

    def test_refused_fold_leaves_every_front_in_one_state(self) -> None:
        decay = ExponentialDecay(0.05)
        assert shard_of("a", 2) != shard_of("d", 2)
        items = [KeyedItem("a", 1, 1e308), KeyedItem("b", 1, 1.0),
                 KeyedItem("a", 2, 1e308), KeyedItem("d", 3, 1.0)]
        fronts = [
            ServiceStore(decay, 0.1),
            ShardedServiceStore(decay, 0.1, workers=1),
            ShardedServiceStore(decay, 0.1, workers=2),
        ]
        try:
            for front in fronts:
                with pytest.raises(
                    InvalidParameterError, match="register finite"
                ):
                    front.observe_batch(items)
                assert (front.time, front.keys()) == (3, ["a", "b", "d"])
                assert front.stats()["ingested_items"] == 3
                assert [w["time"] for w in front.stats().get(
                    "per_worker", [])] in ([], [3], [3, 3])
                _restores_everywhere(front)
            _assert_one_state(fronts)
        finally:
            for front in fronts:
                front.close()

    def test_a_partly_banked_refusal_reads_the_same_on_both_fronts(
        self,
    ) -> None:
        # A forward-decay batch keeps the values it banked before the one
        # it refuses, so no front may answer from this tick's read memo.
        decay = ForwardDecay("exp", 0.05)
        fronts = [ServiceStore(decay, 0.1),
                  ShardedServiceStore(decay, 0.1, workers=1)]
        try:
            for front in fronts:
                front.observe("k", 1.0, when=100)
                front.query("k")
                with pytest.raises(InvalidParameterError, match="overflows"):
                    front.observe_values("k", [1.0, 1.7e308])
            _assert_one_state(fronts)
        finally:
            for front in fronts:
                front.close()

    @pytest.mark.parametrize("policy", ("raise", "drop", "buffer"))
    @pytest.mark.parametrize("cell,huge", REFUSAL_CELLS)
    def test_seeded_refusals_agree(self, cell, huge, policy) -> None:
        spec = default_specs()[cell]
        make_policy = {
            "raise": lambda: None,
            "drop": OutOfOrderPolicy.dropping,
            "buffer": lambda: OutOfOrderPolicy.buffered(4),
        }[policy]
        refused = 0
        for seed in range(3):
            # Without a policy a late item refuses the rest of its call,
            # so that trace holds only a few.
            items = _refusal_trace(huge, seed, 0.02 if policy == "raise" else 0.2)
            fronts = [
                ServiceStore(
                    spec.decay, spec.epsilon, ttl=8, policy=make_policy()
                ),
                *(
                    ShardedServiceStore(
                        spec.decay, spec.epsilon, workers=workers, ttl=8,
                        policy=make_policy(),
                    )
                    for workers in (1, 3)
                ),
            ]
            try:
                calls = [
                    lambda f, lo=lo: f.observe_batch(items[lo:lo + 12])
                    for lo in range(0, len(items), 12)
                ] + [lambda f: f.flush(),
                     lambda f: f.observe_values("k0", [huge, 1.0]),
                     lambda f: f.advance_to(f.time + 9)]
                for call in calls:
                    errors = [_write(front, call) for front in fronts]
                    assert errors[1] == errors[0] and errors[2] == errors[0]
                    refused += errors[0] is not None and "finite" in errors[0][1]
                    _assert_one_state(fronts)
                for front in fronts:
                    _restores_everywhere(front)
            finally:
                for front in fronts:
                    front.close()
        assert refused, "no engine refused a weight: the trace tests nothing"

    def test_a_revived_worker_refuses_as_an_unkilled_one(self) -> None:
        decay = ExponentialDecay(0.05)
        victim_shard = shard_of("a", 2)
        assert shard_of("b", 2) != victim_shard
        before = [KeyedItem("a", 1, 1.5e308), KeyedItem("b", 1, 1.0),
                  KeyedItem("d", 2, 1.0)]
        refused = [KeyedItem("a", 3, 1.5e308), KeyedItem("b", 3, 2.0),
                   KeyedItem("d", 4, 1.0), KeyedItem("a", 5, 1.0)]
        single = ServiceStore(decay, 0.1, ttl=6)
        killed = ShardedServiceStore(decay, 0.1, workers=2, ttl=6)
        unkilled = ShardedServiceStore(decay, 0.1, workers=2, ttl=6)
        fronts = (single, killed, unkilled)
        try:
            for front in fronts:
                front.observe_batch(before)
            killed.to_dict()  # a checkpoint, and then a journal to replay
            killed.observe("b", 1.0)
            unkilled.observe("b", 1.0)
            single.observe("b", 1.0)
            victim = killed.worker_pids()[victim_shard]
            os.kill(victim, signal.SIGKILL)
            deadline = _time.monotonic() + 10.0
            while _time.monotonic() < deadline:
                try:
                    os.kill(victim, 0)
                except ProcessLookupError:
                    break
                _time.sleep(0.05)
            errors = [
                _write(front, lambda f: f.observe_batch(refused, until=9))
                for front in fronts
            ]
            assert errors[0] is not None and "register finite" in errors[0][1]
            assert errors[1] == errors[0] and errors[2] == errors[0]
            assert killed.revived_workers == 1
            assert unkilled.revived_workers == 0
            _assert_one_state(fronts)
            assert killed.to_dict() == unkilled.to_dict()
        finally:
            killed.close()
            unkilled.close()
