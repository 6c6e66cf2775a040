"""Unit tests for the EWMA family (paper Eq. 1 and section 3.4)."""

import math
import random
import sys

import pytest

from repro.core.decay import ExponentialDecay, PolyexponentialDecay, PolynomialDecay
from repro.core.errors import EmptyAggregateError, InvalidParameterError
from repro.core.ewma import (
    EwmaRegister,
    ExponentialSum,
    PolyexpPipeline,
    PolyexponentialSum,
    QuantizedExponentialSum,
)
from repro.core.exact import ExactDecayingSum


class TestExponentialSum:
    def test_matches_exact_reference(self):
        lam = 0.05
        s = ExponentialSum(ExponentialDecay(lam))
        exact = ExactDecayingSum(ExponentialDecay(lam))
        rng = random.Random(0)
        for _ in range(400):
            if rng.random() < 0.5:
                v = rng.randint(1, 5)
                s.add(v)
                exact.add(v)
            s.advance(1)
            exact.advance(1)
        assert s.query().value == pytest.approx(exact.query().value, rel=1e-9)

    def test_recurrence_single_item(self):
        lam = 0.3
        s = ExponentialSum(ExponentialDecay(lam))
        s.add(1.0)
        s.advance(7)
        assert s.query().value == pytest.approx(math.exp(-lam * 7))

    def test_multi_step_advance_equals_repeated(self):
        a = ExponentialSum(ExponentialDecay(0.2))
        b = ExponentialSum(ExponentialDecay(0.2))
        a.add(3.0)
        b.add(3.0)
        a.advance(5)
        for _ in range(5):
            b.advance(1)
        assert a.query().value == pytest.approx(b.query().value)

    def test_requires_exponential_decay(self):
        with pytest.raises(InvalidParameterError):
            ExponentialSum(PolynomialDecay(1.0))

    def test_storage_grows_logarithmically(self):
        # Theta(log N): the register bits after N steps are O(log N).
        s = ExponentialSum(ExponentialDecay(0.1))
        s.add(1.0)
        s.advance(100)
        b100 = s.storage_report().per_stream_bits
        s.advance(10000 - 100)
        b10k = s.storage_report().per_stream_bits
        assert b10k > b100
        assert b10k < 4 * b100  # log-ish, not linear

    def test_rejects_negative(self):
        s = ExponentialSum(ExponentialDecay(0.1))
        with pytest.raises(InvalidParameterError):
            s.add(-1.0)
        with pytest.raises(InvalidParameterError):
            s.advance(-1)


class TestQuantizedExponentialSum:
    def test_bracket_contains_truth(self):
        lam = 0.02
        q = QuantizedExponentialSum(ExponentialDecay(lam), mantissa_bits=20)
        exact = ExactDecayingSum(ExponentialDecay(lam))
        for t in range(300):
            if t % 2 == 0:
                q.add(1.0)
                exact.add(1.0)
            q.advance(1)
            exact.advance(1)
        est = q.query()
        assert est.contains(exact.query().value)

    def test_more_bits_less_error(self):
        lam = 0.02

        def run(bits):
            q = QuantizedExponentialSum(ExponentialDecay(lam), mantissa_bits=bits)
            exact = ExactDecayingSum(ExponentialDecay(lam))
            for _ in range(500):
                q.add(1.0)
                exact.add(1.0)
                q.advance(1)
                exact.advance(1)
            true = exact.query().value
            return abs(q.query().value - true) / true

        assert run(24) < run(6)

    def test_rejects_zero_bits(self):
        with pytest.raises(InvalidParameterError):
            QuantizedExponentialSum(ExponentialDecay(0.1), mantissa_bits=0)

    def test_merged_registers_bracket_the_exact_sum(self):
        # Shards on their own clocks, merged one after another: every
        # merge aligns clocks and re-quantizes, and the bracket must still
        # hold the exact engine's merged answer.
        decay = ExponentialDecay(0.05)
        checks = 0
        for seed in range(500):
            rng = random.Random(seed)
            bits = rng.choice([4, 8, 16, 24])
            shards = []
            for _ in range(rng.randint(2, 4)):
                q = QuantizedExponentialSum(decay, mantissa_bits=bits)
                exact = ExactDecayingSum(decay)
                for _ in range(rng.randint(0, 30)):
                    value = rng.choice([0.0, 1.0, 2.5, 7.0, 0.1])
                    q.add(value)
                    exact.add(value)
                    steps = rng.randint(0, 3)
                    q.advance(steps)
                    exact.advance(steps)
                shards.append((q, exact))
            q, exact = shards[0]
            for other_q, other_exact in shards[1:]:
                q.merge(other_q)
                exact.merge(other_exact)
                est = q.query()
                truth = exact.query().value
                assert est.lower <= truth <= est.upper, (seed, est, truth)
                checks += 1
        assert checks > 500

    def test_merge_refuses_other_registers(self):
        decay = ExponentialDecay(0.05)
        q = QuantizedExponentialSum(decay, mantissa_bits=12)
        q.add(3.0)
        with pytest.raises(InvalidParameterError, match="QuantizedExponentialSum"):
            q.merge(ExponentialSum(decay))
        with pytest.raises(InvalidParameterError, match="mantissa widths"):
            q.merge(QuantizedExponentialSum(decay, mantissa_bits=13))
        assert q.query().value == 3.0

    def test_storage_report_names_the_width(self):
        decay = ExponentialDecay(0.05)
        q = QuantizedExponentialSum(decay, mantissa_bits=12)
        plain = ExponentialSum(decay)
        for engine in (q, plain):
            engine.add(1.0)
            engine.advance(10)
        report = q.storage_report()
        assert report.engine == "ewma[12b]"
        # Same exponent field as the full register, 12 mantissa bits
        # instead of 52, and no claim to be exact.
        assert report.register_bits == plain.storage_report().register_bits - 40
        assert "exact" not in report.notes


class TestEwmaRegister:
    def test_classic_update_formula(self):
        r = EwmaRegister(w=0.75)
        r.observe(4.0)  # first observation initializes
        assert r.value == 4.0
        r.observe(8.0)
        assert r.value == pytest.approx(0.25 * 8.0 + 0.75 * 4.0)

    def test_contribution_decays_geometrically(self):
        # An observation T updates ago contributes w**T of its value.
        w = 0.5
        r = EwmaRegister(w=w, initial=0.0)
        r.observe(1.0)
        for _ in range(10):
            r.observe(0.0)
        assert r.value == pytest.approx((1 - w) * w**10)

    def test_uninitialized_raises(self):
        with pytest.raises(EmptyAggregateError):
            EwmaRegister(0.5).value

    @pytest.mark.parametrize("w", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_bad_weight(self, w):
        with pytest.raises(InvalidParameterError):
            EwmaRegister(w)


class TestPolyexpPipeline:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_moment_k_matches_exact(self, k):
        lam = 0.07
        pipe = PolyexpPipeline(k, lam)
        exact = ExactDecayingSum(PolyexponentialDecay(k, lam))
        rng = random.Random(k)
        for _ in range(250):
            if rng.random() < 0.3:
                pipe.add(2.0)
                exact.add(2.0)
            pipe.advance(1)
            exact.advance(1)
        assert pipe.moments()[k] == pytest.approx(exact.query().value, rel=1e-9)

    def test_combine_polynomial(self):
        # g(a) = (1 + a) * exp(-lam a) = (c0 + c1 a) e^{-lam a}.
        lam = 0.1
        pipe = PolyexpPipeline(1, lam)
        items = []
        t = 0
        rng = random.Random(7)
        for _ in range(100):
            if rng.random() < 0.5:
                pipe.add(1.0)
                items.append(t)
            pipe.advance(1)
            t += 1
        expected = sum((1 + (t - ti)) * math.exp(-lam * (t - ti)) for ti in items)
        assert pipe.combine([1.0, 1.0]) == pytest.approx(expected, rel=1e-9)

    def test_combine_rejects_high_degree(self):
        with pytest.raises(InvalidParameterError):
            PolyexpPipeline(1, 0.1).combine([1.0, 1.0, 1.0])

    def test_overflowing_merge_is_refused(self):
        # check() refuses an infinite moment on restore, so no merge may
        # make one, now or on a later tick; the refused merge leaves the
        # moments as they were.  Each operand alone stays finite on every
        # tick (the (2, 0.1) pipeline keeps weights up to about 4.1e305);
        # their sum would not.
        a, b = PolyexpPipeline(2, 0.1), PolyexpPipeline(2, 0.1)
        a.add(3e305)
        b.add(3e305)
        with pytest.raises(InvalidParameterError, match="finite"):
            a.merge(b)
        assert a.moments() == [3e305, 0.0, 0.0]
        a.check()

    @pytest.mark.parametrize(
        "k, lam",
        [(1, 0.2), (2, 0.1), (2, 0.05), (3, 0.2), (5, 0.1), (2, 0.001)],
    )
    def test_largest_admitted_weight_keeps_every_moment_finite(self, k, lam):
        # A moment can grow past the weight that made it before it decays
        # (M_k peaks k/lam ticks on), so a finite weight is not enough:
        # bisect for the largest weight a fresh pipeline admits and drive
        # it through 2k/lam ticks.  On every tick the moments stay finite,
        # the state passes check() (so its snapshot restores), and writes
        # that add nothing, or too little to move a moment, are admitted.
        def admitted(weight: float) -> bool:
            try:
                PolyexpPipeline(k, lam).add(weight)
            except InvalidParameterError:
                return False
            return True

        lo, hi = 1.0, sys.float_info.max
        assert admitted(lo) and not admitted(hi)
        while math.nextafter(lo, hi) < hi:
            mid = lo + (hi - lo) / 2
            lo, hi = (mid, hi) if admitted(mid) else (lo, mid)
        assert lo > 1e300
        pipe = PolyexpPipeline(k, lam)
        pipe.add(lo)
        empty = PolyexpPipeline(k, lam)
        peak = lo
        for _ in range(math.ceil(2 * k / lam)):
            pipe.advance()
            empty.advance()
            assert all(math.isfinite(m) for m in pipe.moments())
            peak = max(peak, *pipe.moments())
            before = pipe.moments()
            pipe.add(0.0)
            pipe.add(1.0)
            pipe.add_batch(())
            pipe.merge(empty)
            assert pipe.moments() == before
            pipe.check()
        assert peak > lo  # the moments did grow past the weight

    def test_storage_scales_with_k(self):
        small = PolyexpPipeline(1, 0.1).storage_report().per_stream_bits
        large = PolyexpPipeline(5, 0.1).storage_report().per_stream_bits
        assert large == pytest.approx(3 * small, rel=0.01)


class TestPolyexponentialSum:
    def test_engine_protocol(self):
        g = PolyexponentialDecay(2, 0.05)
        s = PolyexponentialSum(g)
        exact = ExactDecayingSum(g)
        for t in range(150):
            if t % 5 == 0:
                s.add(1.0)
                exact.add(1.0)
            s.advance(1)
            exact.advance(1)
        assert s.query().value == pytest.approx(exact.query().value, rel=1e-9)
        assert s.decay is g

    def test_requires_polyexponential(self):
        with pytest.raises(InvalidParameterError):
            PolyexponentialSum(ExponentialDecay(0.1))
