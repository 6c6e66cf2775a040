"""Unit tests for the Exponential Histogram (paper section 4.1)."""

import collections
import math
import random

import pytest

from repro.core.decay import SlidingWindowDecay
from repro.core.errors import InvalidParameterError
from repro.core.exact import ExactDecayingSum
from repro.histograms.eh import ExponentialHistogram, SlidingWindowSum
from repro.histograms.soa import BucketColumns


def run_stream(eh, exact, length, p, seed):
    rng = random.Random(seed)
    for _ in range(length):
        if rng.random() < p:
            eh.add(1)
            exact.add(1)
        eh.advance(1)
        exact.advance(1)


class TestCorrectness:
    @pytest.mark.parametrize("epsilon", [0.5, 0.2, 0.1, 0.05])
    def test_window_count_within_epsilon(self, epsilon):
        window = 200
        eh = ExponentialHistogram(window, epsilon)
        exact = ExactDecayingSum(SlidingWindowDecay(window))
        rng = random.Random(1)
        for t in range(3000):
            if rng.random() < 0.5:
                eh.add(1)
                exact.add(1)
            eh.advance(1)
            exact.advance(1)
            if t % 97 == 0:
                true = exact.query().value
                if true > 0:
                    est = eh.query()
                    assert est.contains(true)
                    assert abs(est.value - true) / true <= epsilon

    def test_exact_until_first_expiry(self):
        eh = ExponentialHistogram(1000, 0.3)
        exact = 0
        rng = random.Random(5)
        for _ in range(500):  # never exceeds the window
            if rng.random() < 0.7:
                eh.add(1)
                exact += 1
            eh.advance(1)
        est = eh.query()
        assert est.lower == est.upper == float(exact)

    def test_dense_stream_every_tick(self):
        eh = ExponentialHistogram(64, 0.1)
        for _ in range(1000):
            eh.add(1)
            eh.advance(1)
        est = eh.query()
        assert est.contains(64 - 1)  # ages 1..63 inside after last advance

    def test_multivalued_add_counts_units(self):
        eh = ExponentialHistogram(100, 0.5)
        eh.add(5)
        assert eh.total_in_buckets == 5

    def test_rejects_fractional_values(self):
        eh = ExponentialHistogram(10, 0.1)
        with pytest.raises(InvalidParameterError):
            eh.add(1.5)
        with pytest.raises(InvalidParameterError):
            eh.add(-1)


class TestInvariants:
    def test_bucket_sizes_are_powers_of_two(self):
        eh = ExponentialHistogram(500, 0.2)
        rng = random.Random(3)
        for _ in range(2000):
            if rng.random() < 0.8:
                eh.add(1)
            eh.advance(1)
        for b in eh.bucket_view():
            size = int(b.count)
            assert size & (size - 1) == 0

    def test_sizes_non_increasing_oldest_to_newest(self):
        eh = ExponentialHistogram(500, 0.2)
        rng = random.Random(4)
        for _ in range(2000):
            if rng.random() < 0.8:
                eh.add(1)
            eh.advance(1)
        sizes = [int(b.count) for b in eh.bucket_view()]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_per_size_bound(self):
        eh = ExponentialHistogram(500, 0.25)
        m = eh.buckets_per_size
        rng = random.Random(5)
        for _ in range(3000):
            if rng.random() < 0.9:
                eh.add(1)
            eh.advance(1)
            counts = {}
            for b in eh.bucket_view():
                counts[int(b.count)] = counts.get(int(b.count), 0) + 1
            assert all(c <= m + 1 for c in counts.values())

    def test_logarithmic_bucket_count(self):
        # O((1/eps) log N) buckets.
        eh = ExponentialHistogram(None, 0.2)
        for _ in range(4096):
            eh.add(1)
            eh.advance(1)
        bound = (eh.buckets_per_size + 1) * (math.log2(4096) + 2)
        assert eh.bucket_count() <= bound

    def test_expiry_drops_old_buckets(self):
        eh = ExponentialHistogram(16, 0.2)
        for _ in range(200):
            eh.add(1)
            eh.advance(1)
        for b in eh.bucket_view():
            assert eh.time - b.end < 16


class TestSubWindowQueries:
    def test_lemma_4_1_all_windows(self):
        # One EH answers every window w <= N within epsilon.
        window = 256
        epsilon = 0.1
        eh = ExponentialHistogram(window, epsilon)
        exact = ExactDecayingSum(SlidingWindowDecay(window))
        run_stream(eh, exact, 2000, 0.6, seed=7)
        # Reference per sub-window using a fresh exact engine per w.
        rng = random.Random(7)
        arrivals = []
        t = 0
        for _ in range(2000):
            if rng.random() < 0.6:
                arrivals.append(t)
            t += 1
        now = 2000
        for w in (1, 3, 10, 50, 128, 256):
            true = sum(1 for a in arrivals if now - a < w)
            est = eh.query_window(w)
            assert est.contains(true)
            if true > 0:
                assert abs(est.value - true) / true <= epsilon

    def test_query_window_rejects_oversized(self):
        eh = ExponentialHistogram(10, 0.1)
        with pytest.raises(InvalidParameterError):
            eh.query_window(11)
        with pytest.raises(InvalidParameterError):
            eh.query_window(0)

    def test_unbounded_mode_never_expires(self):
        eh = ExponentialHistogram(None, 0.2)
        for _ in range(100):
            eh.add(1)
            eh.advance(1)
        assert eh.total_in_buckets == 100
        assert eh.query().value == 100.0


class TestStorage:
    def test_storage_grows_like_log_squared(self):
        bits = []
        for n in (1 << 8, 1 << 11, 1 << 14):
            eh = ExponentialHistogram(None, 0.1)
            for _ in range(n):
                eh.add(1)
                eh.advance(1)
            bits.append(eh.storage_report().per_stream_bits)
        # log^2 growth: bits ratio ~ (14/8)^2 ~ 3; definitely sub-linear.
        assert bits[2] < bits[0] * (1 << 6) / 4
        assert bits[2] / bits[0] == pytest.approx((14 / 8) ** 2, rel=0.5)


class TestSlidingWindowSumAdapter:
    def test_adapter_matches_eh(self):
        s = SlidingWindowSum(64, 0.1)
        for _ in range(300):
            s.add(1)
            s.advance(1)
        assert s.decay.window == 64
        assert s.storage_report().engine == "sliwin-eh"
        assert s.query().contains(63)


def snapshot(eh):
    """Full structural state: bucket list, per-size census, running total."""
    return (
        [(b.start, b.end, b.count, b.level) for b in eh.bucket_view()],
        list(eh._per_size),
        eh.total_in_buckets,
    )


class TestBulkInsert:
    """The O(v) -> O(m log v) `add` bugfix (binary-decomposition insert).

    `add(v)` must produce a structure *bit-identical* to the seed's unary
    loop (retained as `_add_ones_unary` exactly so these tests can
    differentially verify the rewrite), because the EH merge process is
    confluent: merges always consume the two oldest buckets of a size.
    """

    @pytest.mark.parametrize("epsilon", [0.5, 0.1, 0.04])
    def test_bulk_matches_unary_on_random_streams(self, epsilon):
        rng = random.Random(42)
        bulk = ExponentialHistogram(128, epsilon)
        unary = ExponentialHistogram(128, epsilon)
        for _ in range(400):
            v = rng.choice([0, 1, 2, 3, 7, 13, 64, 500])
            bulk.add(v)
            unary._add_ones_unary(v)
            assert snapshot(bulk) == snapshot(unary)
            steps = rng.randrange(3)
            bulk.advance(steps)
            unary.advance(steps)
            assert snapshot(bulk) == snapshot(unary)

    def test_large_value_single_add(self):
        eh = ExponentialHistogram(None, 0.1)
        eh.add(10**6)
        assert eh.total_in_buckets == 10**6
        # O(m log v) buckets, not O(v).
        assert eh.bucket_count() < 400
        unary = ExponentialHistogram(None, 0.1)
        unary._add_ones_unary(10**6)
        assert snapshot(eh) == snapshot(unary)

    def test_bulk_insert_work_is_logarithmic_in_value(self):
        """Proxy for the >=100x acceptance speedup without wall-clock in
        tier-1: the rewritten add must touch O(m log v) buckets where the
        unary loop performed v cascades."""
        eh = ExponentialHistogram(None, 0.01)
        eh.add(10**5)
        assert eh.bucket_count() <= eh.buckets_per_size * (10**5).bit_length() + 1

    def test_bulk_add_runs_no_unary_step(self, monkeypatch):
        """The bulk insert's speedup as a count: ``add(10**5)`` appends
        no size-1 bucket and runs no cascade step, where the unary loop
        runs 10**5 of each."""
        calls = collections.Counter()
        for cls, name in ((ExponentialHistogram, "_cascade"),
                          (BucketColumns, "append")):
            def counted(self, *args, _orig=getattr(cls, name), _name=name):
                calls[_name] += 1
                return _orig(self, *args)

            monkeypatch.setattr(cls, name, counted)
        ExponentialHistogram(None, 0.01).add(10**5)
        assert calls == {}
        ExponentialHistogram(None, 0.01)._add_ones_unary(10**5)
        assert calls == {"_cascade": 10**5, "append": 10**5}

    def test_add_batch_loops_bulk_add(self):
        a = ExponentialHistogram(64, 0.1)
        b = ExponentialHistogram(64, 0.1)
        a.add_batch([1, 5, 0, 1000])
        for v in [1, 5, 0, 1000]:
            b.add(v)
        assert snapshot(a) == snapshot(b)

    def test_bulk_rejects_fractional_and_negative(self):
        eh = ExponentialHistogram(64, 0.1)
        with pytest.raises(InvalidParameterError):
            eh.add(2.5)
        with pytest.raises(InvalidParameterError):
            eh.add(-1)
        with pytest.raises(InvalidParameterError):
            eh.add_batch([1, -3])


def census_of(eh):
    """The size census rebuilt from the buckets: entry ``j`` counts the
    buckets of size ``2**j``, up to the largest size present."""
    census = []
    for bucket in eh.bucket_view():
        j = int(bucket.count).bit_length() - 1
        census += [0] * (j + 1 - len(census))
        census[j] += 1
    return census


class TestPerSizePruning:
    """The size census stays bounded: its length is the largest live
    bucket size's exponent plus one, so long streams cannot grow it."""

    @staticmethod
    def bound(eh):
        return max((int(b.count).bit_length() for b in eh.bucket_view()),
                   default=0)

    def test_census_bounded_after_cascades(self):
        eh = ExponentialHistogram(None, 0.3)
        for _ in range(500):
            eh.add(1)
        assert len(eh._per_size) == self.bound(eh)

    def test_census_empty_after_expiry(self):
        eh = ExponentialHistogram(32, 0.3)
        for _ in range(300):
            eh.add(1)
            eh.advance(1)
            assert len(eh._per_size) <= self.bound(eh)
        eh.advance(64)  # expire everything
        assert eh.bucket_count() == 0
        assert eh._per_size == []

    def test_census_matches_buckets_exactly(self):
        rng = random.Random(9)
        eh = ExponentialHistogram(64, 0.1)
        for _ in range(400):
            eh.add(rng.choice([0, 1, 4]))
            eh.advance(rng.randrange(2))
            assert eh._per_size == census_of(eh)


class TestShardMergedCascade:
    """A shard-merged list interleaves two size runs, so its buckets of
    one size need not be contiguous; its cascades must still pair equal
    sizes, or a count stops being a power of two and the snapshot no
    longer restores."""

    @staticmethod
    def _fuzz(seed: int) -> ExponentialHistogram:
        # Three shards merged repeatedly into one histogram, between
        # unit adds, bulk adds, batches and advances on all four.
        rng = random.Random(seed)
        window = rng.choice((16, 64, 256))
        epsilon = rng.choice((0.1, 0.2, 0.5))
        main = ExponentialHistogram(window, epsilon)
        shards = [ExponentialHistogram(window, epsilon) for _ in range(3)]
        for _ in range(80):
            op = rng.random()
            target = rng.choice(shards + [main])
            if op < 0.35:
                target.add(rng.choice((1, 1, 1, 2, 3, 7, 40)))
            elif op < 0.55:
                target.add_batch(
                    [rng.randint(0, 4) for _ in range(rng.randint(1, 9))]
                )
            elif op < 0.8:
                target.advance(rng.randint(0, 4))
            else:
                main.merge(rng.choice(shards))
            for count in main.counts:
                assert int(count) & (int(count) - 1) == 0, (seed, count)
        return main

    def test_merged_fuzz_keeps_power_of_two_counts_and_restores(self):
        from repro.serialize import engine_from_dict, engine_to_dict

        merged = 0
        for seed in range(1_500):
            hist = self._fuzz(seed)
            merged += hist.effective_epsilon != hist.epsilon
            state = engine_to_dict(hist)
            assert engine_to_dict(engine_from_dict(state)) == state, seed
        assert merged > 1_000

    def test_census_counts_every_bucket_of_a_merged_list(self):
        for seed in range(200):
            hist = self._fuzz(seed)
            census = collections.Counter(
                int(c).bit_length() - 1 for c in hist.counts
            )
            assert hist._per_size == [
                census[j] for j in range(len(hist._per_size))
            ]
            assert sum(hist._per_size) == hist.bucket_count()
