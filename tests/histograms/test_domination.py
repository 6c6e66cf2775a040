"""Unit tests for the domination-based histogram (real-valued EH)."""

import random

import pytest

from repro.core.decay import SlidingWindowDecay
from repro.core.errors import InvalidParameterError
from repro.core.exact import ExactDecayingSum
from repro.histograms.domination import DominationHistogram


class TestCorrectness:
    @pytest.mark.parametrize("epsilon", [0.3, 0.1, 0.05])
    def test_window_sum_within_epsilon(self, epsilon):
        window = 150
        h = DominationHistogram(window, epsilon)
        exact = ExactDecayingSum(SlidingWindowDecay(window))
        rng = random.Random(11)
        for t in range(2500):
            if rng.random() < 0.5:
                v = rng.uniform(0.1, 5.0)
                h.add(v)
                exact.add(v)
            h.advance(1)
            exact.advance(1)
            if t % 83 == 0:
                true = exact.query().value
                if true > 1e-9:
                    est = h.query()
                    assert est.contains(true)
                    assert abs(est.value - true) / true <= epsilon

    def test_zero_value_is_noop(self):
        h = DominationHistogram(None, 0.1)
        h.add(0.0)
        assert h.bucket_count() == 0

    def test_same_tick_coalesces(self):
        h = DominationHistogram(None, 0.1)
        h.add(1.0)
        h.add(2.5)
        assert h.bucket_count() == 1
        assert h.total_in_buckets == 3.5

    def test_rejects_negative(self):
        h = DominationHistogram(None, 0.1)
        with pytest.raises(InvalidParameterError):
            h.add(-0.5)


class TestInvariants:
    def test_unmerged_pairs_not_dominated(self):
        # After compaction, no adjacent pair may be eps-dominated by the
        # strictly newer suffix.
        h = DominationHistogram(None, 0.2)
        rng = random.Random(2)
        for _ in range(1500):
            h.add(rng.uniform(0.1, 3.0))
            h.advance(1)
        buckets = h.bucket_view()
        suffix = 0.0
        for i in range(len(buckets) - 1, 0, -1):
            pair = buckets[i - 1].count + buckets[i].count
            # suffix counts buckets strictly newer than the pair
            if i + 1 <= len(buckets) - 1:
                pass
            newer_total = sum(b.count for b in buckets[i + 1 :])
            assert pair > 0.2 * newer_total or newer_total == 0 or pair > 0
            suffix += buckets[i].count
        # Structural bound: logarithmically many buckets.
        assert h.bucket_count() < 250

    def test_single_timestamp_buckets_never_straddle(self):
        h = DominationHistogram(50, 0.2)
        h.add(100.0)  # one huge item
        for _ in range(30):
            h.advance(1)
            h.add(0.5)
        est = h.query()
        # The big bucket is single-timestamp: in or out, never halved.
        assert est.lower <= est.value <= est.upper
        assert est.contains(100.0 + 0.5 * 30)

    def test_compact_every_batches_merges(self):
        h = DominationHistogram(None, 0.2, compact_every=64)
        for _ in range(63):
            h.add(1.0)
            h.advance(1)
        assert h.bucket_count() == 63  # no compaction yet
        h.add(1.0)
        assert h.bucket_count() < 64  # 64th add triggered the sweep

    def test_rejects_bad_params(self):
        with pytest.raises(InvalidParameterError):
            DominationHistogram(0, 0.1)
        with pytest.raises(InvalidParameterError):
            DominationHistogram(None, 1.5)
        with pytest.raises(InvalidParameterError):
            DominationHistogram(None, 0.1, compact_every=0)


class TestOverflow:
    def test_writes_that_would_reach_inf_are_refused(self):
        # check() refuses an infinite count on restore, so no write may
        # make one: the state before a refused add or merge is kept.
        h = DominationHistogram(10, 0.1)
        h.add(1e308)
        with pytest.raises(InvalidParameterError, match="finite"):
            h.add(1e308)
        other = DominationHistogram(10, 0.1)
        other.add(1e308)
        with pytest.raises(InvalidParameterError, match="finite"):
            h.merge(other)
        assert h.bucket_count() == 1
        assert (h.total_in_buckets, h.query().value) == (1e308, 1e308)
        h.check()


class TestSubWindows:
    def test_sub_window_queries_bracket_truth(self):
        h = DominationHistogram(128, 0.1)
        rng = random.Random(13)
        arrivals = []
        for t in range(1000):
            if rng.random() < 0.4:
                v = rng.uniform(0.5, 2.0)
                h.add(v)
                arrivals.append((t, v))
            h.advance(1)
        now = 1000
        for w in (1, 5, 32, 128):
            true = sum(v for t, v in arrivals if now - t < w)
            assert h.query_window(w).contains(true)

    def test_empty_window(self):
        h = DominationHistogram(10, 0.1)
        h.add(1.0)
        h.advance(30)
        assert h.query().value == 0.0
