"""Process-pool ingestion vs serial replay, and key-partitioned backfill.

A keyed trace is backfilled the same way without a process pool: split
it by key with :func:`~repro.parallel.shard_of`, ingest each partition
into its own :class:`~repro.service.ServiceStore`, and fold the
partitions together with ``merge_into(key, other.export_engine(key))``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.decay import (
    ExponentialDecay,
    PolynomialDecay,
    SlidingWindowDecay,
)
from repro.core.errors import InvalidParameterError
from repro.core.exact import ExactDecayingSum
from repro.core.interfaces import make_decaying_sum
from repro.parallel import parallel_ingest, shard_of
from repro.service import ServiceStore
from repro.streams.generators import StreamItem
from repro.streams.io import KeyedItem

# Pool tests pay process spawn cost; keep the traces small and the shard
# counts low -- correctness here, scale in benchmarks/.
TRACE_N = 400


def _trace(seed: int):
    rng = random.Random(seed)
    items, t = [], 0
    for _ in range(TRACE_N):
        t += rng.choice([0, 1, 1, 2])
        items.append(StreamItem(t, float(rng.randint(1, 4))))
    return items, t + 2


def _keyed_trace(seed: int):
    rng = random.Random(seed)
    keys = ["alpha", "beta", "gamma", "delta"]
    items, t = [], 0
    for _ in range(TRACE_N):
        t += rng.choice([0, 1, 1])
        items.append(KeyedItem(rng.choice(keys), t, float(rng.randint(1, 3))))
    return items, t + 2, keys


class TestParallelIngest:
    @pytest.mark.parametrize(
        "decay",
        [ExponentialDecay(0.05), SlidingWindowDecay(64), PolynomialDecay(1.2)],
        ids=lambda d: d.describe(),
    )
    def test_pool_answer_brackets_serial_truth(self, decay) -> None:
        items, end = _trace(21)
        merged = parallel_ingest(decay, items, epsilon=0.1, shards=2, end=end)
        oracle = ExactDecayingSum(decay)
        oracle.ingest(items, until=end)
        true = oracle.query().value
        est = merged.query()
        slack = 1e-9 * max(1.0, est.upper)
        assert est.lower - slack <= true <= est.upper + slack
        assert merged.time == end

    def test_register_engine_matches_serial_within_ulps(self) -> None:
        decay = ExponentialDecay(0.05)
        items, end = _trace(22)
        merged = parallel_ingest(decay, items, epsilon=0.1, shards=2, end=end)
        serial = make_decaying_sum(decay, 0.1)
        serial.ingest(items, until=end)
        assert merged.query().value == pytest.approx(
            serial.query().value, rel=1e-12
        )

    def test_single_shard_is_serial_and_bit_identical(self) -> None:
        decay = SlidingWindowDecay(48)
        items, end = _trace(23)
        merged = parallel_ingest(decay, items, epsilon=0.1, shards=1, end=end)
        serial = make_decaying_sum(decay, 0.1)
        serial.ingest(items, until=end)
        a, b = merged.query(), serial.query()
        assert (a.value, a.lower, a.upper) == (b.value, b.lower, b.upper)

    def test_empty_trace_yields_fresh_engine(self) -> None:
        engine = parallel_ingest(
            ExponentialDecay(0.1), [], epsilon=0.1, shards=4, end=7
        )
        assert engine.time == 7
        assert engine.query().value == 0.0

    def test_rejects_bad_parameters(self) -> None:
        items, end = _trace(24)
        with pytest.raises(InvalidParameterError):
            parallel_ingest(ExponentialDecay(0.1), items, shards=0)
        with pytest.raises(InvalidParameterError):
            parallel_ingest(
                ExponentialDecay(0.1), items, shards=2, end=items[0].time - 1
            )


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
    merged = parts[0]
    for part in parts[1:]:
        for key in part.keys():
            merged.merge_into(key, part.export_engine(key))
    return merged


def _ranking(store):
    return sorted(store.keys(), key=lambda k: (-store.query(k).value, k))


class TestParallelFleetIngest:
    @pytest.mark.parametrize(
        "decay",
        [ExponentialDecay(0.1), SlidingWindowDecay(50)],
        ids=lambda d: d.describe(),
    )
    def test_pool_fleet_matches_serial_fleet(self, decay) -> None:
        items, end, keys = _keyed_trace(31)
        serial = _serial(decay, items, end)
        pooled = _partitioned(decay, items, end, shards=2)
        assert pooled.keys() == serial.keys()
        assert pooled.time == end
        for key in keys:
            assert pooled.query(key).value == pytest.approx(
                serial.query(key).value, rel=1e-9
            )

    def test_rankings_survive_the_pool(self) -> None:
        items, end, _ = _keyed_trace(32)
        decay = ExponentialDecay(0.05)
        serial = _serial(decay, items, end)
        pooled = _partitioned(decay, items, end, shards=2)
        assert _ranking(pooled)[:3] == _ranking(serial)[:3]

    def test_single_shard_no_pool(self) -> None:
        items, end, keys = _keyed_trace(33)
        pooled = _partitioned(ExponentialDecay(0.1), items, end, shards=1)
        assert pooled.keys() == sorted({item.key for item in items})


class TestFleetMergeAndAdopt:
    def test_fleet_merge_generalizes_absorb(self) -> None:
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
        for key in right.keys():
            left.merge_into(key, right.export_engine(key))
        for key in keys:
            got = left.query(key)
            want = serial.query(key)
            assert got.lower <= want.value <= got.upper or (
                got.value == pytest.approx(want.value, rel=1e-9)
            )

    def test_merge_advances_younger_fleet(self) -> None:
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
