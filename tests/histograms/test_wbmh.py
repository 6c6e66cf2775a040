"""Unit tests for the Weight-Based Merging Histogram (Lemma 5.1)."""

import math
import random
from types import SimpleNamespace

import pytest

from repro.core.decay import (
    ExponentialDecay,
    LinearDecay,
    LogarithmicDecay,
    PolynomialDecay,
    SlidingWindowDecay,
)
from repro.core.errors import InvalidParameterError, NotApplicableError
from repro.core.exact import ExactDecayingSum
from repro.histograms.soa import wbmh_bulk_ingest
from repro.histograms.wbmh import WBMH, Lattice


class TestApplicability:
    def test_accepts_polyd_expd_logd(self):
        for decay in (PolynomialDecay(1.0), ExponentialDecay(0.2), LogarithmicDecay()):
            WBMH(decay, 0.1)

    def test_rejects_sliwin_in_strict_mode(self):
        with pytest.raises(NotApplicableError):
            WBMH(SlidingWindowDecay(50), 0.1)

    def test_rejects_linear_in_strict_mode(self):
        with pytest.raises(NotApplicableError):
            WBMH(LinearDecay(50), 0.1)

    def test_non_strict_mode_accepts_anything(self):
        w = WBMH(LinearDecay(50), 0.1, strict=False)
        exact = ExactDecayingSum(LinearDecay(50))
        for _ in range(200):
            w.add(1)
            exact.add(1)
            w.advance(1)
            exact.advance(1)
        # Bracket validity survives; width may exceed epsilon.
        assert w.query().contains(exact.query().value)

    def test_rejects_bad_epsilon_and_ratio(self):
        with pytest.raises(InvalidParameterError):
            WBMH(PolynomialDecay(1.0), epsilon=0.0)
        with pytest.raises(InvalidParameterError):
            WBMH(PolynomialDecay(1.0), ratio=1.0)


class TestAccuracy:
    @pytest.mark.parametrize("epsilon", [0.3, 0.1, 0.05])
    @pytest.mark.parametrize(
        "decay",
        [PolynomialDecay(0.5), PolynomialDecay(1.0), PolynomialDecay(2.5),
         LogarithmicDecay()],
        ids=lambda d: d.describe(),
    )
    def test_within_epsilon_bernoulli(self, decay, epsilon):
        w = WBMH(decay, epsilon)
        exact = ExactDecayingSum(decay)
        rng = random.Random(31)
        for t in range(2000):
            if rng.random() < 0.5:
                w.add(1)
                exact.add(1)
            w.advance(1)
            exact.advance(1)
            if t % 113 == 0:
                true = exact.query().value
                if true > 1e-9:
                    est = w.query()
                    assert est.contains(true), decay.describe()
                    assert abs(est.value - true) / true <= epsilon + 1e-9

    def test_real_valued_stream(self):
        decay = PolynomialDecay(1.0)
        w = WBMH(decay, 0.1)
        exact = ExactDecayingSum(decay)
        rng = random.Random(37)
        for _ in range(1500):
            if rng.random() < 0.4:
                v = rng.uniform(0.1, 9.0)
                w.add(v)
                exact.add(v)
            w.advance(1)
            exact.advance(1)
        true = exact.query().value
        est = w.query()
        assert est.contains(true)
        assert abs(est.value - true) / true <= 0.1

    def test_quantization_stays_within_budget(self):
        decay = PolynomialDecay(1.0)
        quant = WBMH(decay, 0.1, quantize=True)
        exact_counts = WBMH(decay, 0.1, quantize=False)
        exact = ExactDecayingSum(decay)
        for _ in range(3000):
            for e in (quant, exact_counts, exact):
                e.add(1)
                e.advance(1)
        true = exact.query().value
        for engine in (quant, exact_counts):
            est = engine.query()
            assert est.contains(true)
            assert abs(est.value - true) / true <= 0.1

    def test_bursty_stream_with_gaps(self):
        decay = PolynomialDecay(2.0)
        w = WBMH(decay, 0.1)
        exact = ExactDecayingSum(decay)
        rng = random.Random(41)
        t = 0
        for _ in range(100):
            burst = rng.randint(1, 20)
            for _ in range(burst):
                w.add(1)
                exact.add(1)
            gap = rng.randint(1, 50)
            w.advance(gap)
            exact.advance(gap)
            t += gap
        true = exact.query().value
        est = w.query()
        assert est.contains(true)
        assert abs(est.value - true) / true <= 0.1


class TestStructure:
    def test_bucket_count_logarithmic_for_polyd(self):
        decay = PolynomialDecay(1.0)
        w = WBMH(decay, 0.1)
        for _ in range(1 << 13):
            w.add(1)
            w.advance(1)
        # Buckets ~ 2 * #regions = O(log_{1+eps/2} N**alpha).
        regions = math.log(decay.weight_ratio(1 << 13)) / math.log(1.05)
        assert w.bucket_count() <= 2 * regions + 4

    def test_bucket_count_linear_for_expd(self):
        # Section 5: WBMH needs a linear number of buckets for EXPD.
        w = WBMH(ExponentialDecay(0.5), 0.5)
        for _ in range(400):
            w.add(1)
            w.advance(1)
        assert w.bucket_count() > 100

    def test_boundaries_are_stream_independent(self):
        # Two different streams produce identical bucket intervals.
        decay = PolynomialDecay(1.0)
        a = WBMH(decay, 0.2)
        b = WBMH(decay, 0.2)
        rng = random.Random(43)
        for _ in range(800):
            a.add(1)  # dense stream
            if rng.random() < 0.2:
                b.add(3)  # sparse stream, different values
            a.advance(1)
            b.advance(1)
        spans_a = [(bb.start, bb.end) for bb in a.bucket_view()]
        spans_b = [(bb.start, bb.end) for bb in b.bucket_view()]
        # The bucket lattice is identical regardless of stream content
        # (empty intervals are sealed as zero-count buckets).
        assert spans_a == spans_b

    def test_expiry_for_bounded_support_nonstrict(self):
        w = WBMH(LinearDecay(60), 0.2, strict=False)
        for _ in range(500):
            w.add(1)
            w.advance(1)
        for b in w.bucket_view():
            assert w.time - b.end <= 60


class TestStorage:
    def test_per_stream_bits_beat_ceh_for_polyd(self):
        # Lemma 5.1's gap: O(log N log log N) vs O(log^2 N). The win is
        # asymptotic -- per-bucket bits are log log N + log(1/eps) against
        # the CEH's log N -- so it shows once log N clearly exceeds
        # log(1/eps) + log log N; eps=0.3 and N=2**15 is past the
        # crossover (the storage-scaling benchmark maps the whole curve).
        from repro.histograms.ceh import CascadedEH

        decay = PolynomialDecay(1.0)
        w = WBMH(decay, 0.3, horizon=1 << 15)
        c = CascadedEH(decay, 0.3)
        for _ in range(1 << 15):
            w.add(1)
            c.add(1)
            w.advance(1)
            c.advance(1)
        wb = w.storage_report().per_stream_bits
        cb = c.storage_report().per_stream_bits
        assert wb < cb

    def test_a_bucket_without_a_count_costs_its_one_bit_flag(self):
        # Rows hold only non-zero counts, and the report charges what the
        # stream stores: a 1-bit flag per bucket, then a quantized count
        # after the flag of each bucket that holds one.  The lattice seals
        # buckets whether or not the stream wrote, so a stream that never
        # wrote holds only flags.
        idle = WBMH(PolynomialDecay(1.0), 0.1)
        idle.advance(300)
        report = idle.storage_report()
        assert report.buckets > 5
        assert report.count_bits == report.buckets

    def test_shared_bits_reported_separately(self):
        w = WBMH(PolynomialDecay(1.0), 0.1)
        for _ in range(100):
            w.add(1)
            w.advance(1)
        rep = w.storage_report()
        assert rep.shared_bits > 0
        assert rep.timestamp_bits == 0  # no per-stream boundaries


class TestEdgeCases:
    def test_empty_stream_queries_zero(self):
        w = WBMH(PolynomialDecay(1.0), 0.1)
        assert w.query().value == 0.0
        w.advance(100)
        assert w.query().value == 0.0

    def test_zero_value_noop(self):
        w = WBMH(PolynomialDecay(1.0), 0.1)
        w.add(0.0)
        assert w.bucket_count() == 0

    def test_rejects_negative(self):
        w = WBMH(PolynomialDecay(1.0), 0.1)
        with pytest.raises(InvalidParameterError):
            w.add(-1.0)
        with pytest.raises(InvalidParameterError):
            w.advance(-1)

    def test_rejects_infinite_weight_on_every_write_path(self):
        # An infinite count would raise OverflowError out of a later
        # merge's quantization, about a dozen ticks after the write.
        inf = math.inf
        items = [SimpleNamespace(time=0, value=inf), SimpleNamespace(time=4, value=1.0)]
        writes = (
            lambda w: w.add(inf),
            lambda w: w.add_batch([1.0, inf]),
            lambda w: w.ingest(items),
        )
        for write in writes:
            w = WBMH(PolynomialDecay(1.0), 0.1)
            w.add(2.0)
            before = (w.time, w.bucket_view(), w._items)
            with pytest.raises(InvalidParameterError, match="finite"):
                write(w)
            assert (w.time, w.bucket_view(), w._items) == before
            w.advance(400)
            est = w.query()
            assert 0 < est.lower <= est.upper < inf
        # The bulk kernel's pre-scan declines, so a fresh engine's ingest
        # refuses through the organic replay too.
        assert not wbmh_bulk_ingest(WBMH(PolynomialDecay(1.0), 0.1), items)


class TestAddBatchSinglePass:
    def test_10k_batch_does_one_interval_check(self, monkeypatch):
        """The fused ``add_batch`` loop never touches the lattice interval,
        however large the batch: the live count is one number per column,
        and its interval is the lattice's.  The regression this pins is a
        double iteration (one validation pass, one fold pass), each
        consulting the schedule."""
        w = WBMH(PolynomialDecay(1.0), 0.1)
        calls = 0
        real = Lattice._live_interval

        def counting(self):
            nonlocal calls
            calls += 1
            return real(self)

        monkeypatch.setattr(Lattice, "_live_interval", counting)
        w.add_batch([1.0] * 10_000)
        assert calls == 0
        assert w.bucket_count() == 1
        assert w.query().value == 10_000.0

    def test_batch_matches_sequential_adds(self):
        batched = WBMH(PolynomialDecay(1.0), 0.1)
        sequential = WBMH(PolynomialDecay(1.0), 0.1)
        values = [0.0, 1.5, 2.0, 0.0, 3.25]
        batched.add_batch(values)
        for v in values:
            sequential.add(v)
        assert batched.bucket_view() == sequential.bucket_view()
        assert batched._items == sequential._items

    def test_batch_rejects_negative_without_mutation(self):
        w = WBMH(PolynomialDecay(1.0), 0.1)
        w.add(2.0)
        before = w.bucket_view()
        with pytest.raises(InvalidParameterError):
            w.add_batch([1.0, -0.5])
        assert w.bucket_view() == before
