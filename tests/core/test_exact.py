"""Unit tests for the exact reference engine."""

import random

import pytest

from repro.core.decay import (
    ExponentialDecay,
    LinearDecay,
    PolynomialDecay,
    SlidingWindowDecay,
)
from repro.core.errors import InvalidParameterError
from repro.core.exact import ExactDecayingSum


class TestBasics:
    def test_empty_stream(self):
        s = ExactDecayingSum(PolynomialDecay(1.0))
        assert s.query().value == 0.0
        s.advance(100)
        assert s.query().value == 0.0

    def test_single_item_weight(self):
        g = PolynomialDecay(2.0)
        s = ExactDecayingSum(g)
        s.add(3.0)
        s.advance(4)
        assert s.query().value == pytest.approx(3.0 * g.weight(4))

    def test_same_time_items_coalesce(self):
        s = ExactDecayingSum(PolynomialDecay(1.0))
        s.add(1.0)
        s.add(2.0)
        assert s.items_observed == 2
        assert s.storage_report().buckets == 1
        assert s.query().value == pytest.approx(3.0)

    def test_query_is_exact_estimate(self):
        s = ExactDecayingSum(ExponentialDecay(0.1))
        s.add(1.0)
        s.advance(3)
        est = s.query()
        assert est.lower == est.value == est.upper

    def test_rejects_negative_value_and_steps(self):
        s = ExactDecayingSum(PolynomialDecay(1.0))
        with pytest.raises(InvalidParameterError):
            s.add(-1.0)
        with pytest.raises(InvalidParameterError):
            s.advance(-2)


class TestExpiry:
    def test_window_items_expire(self):
        s = ExactDecayingSum(SlidingWindowDecay(10))
        for _ in range(50):
            s.add(1.0)
            s.advance(1)
        # After the final advance the clock sits at T=50 with items at ages
        # 1..50; the window covers ages 0..9, i.e. the 9 items t=41..49.
        assert s.query().value == pytest.approx(9.0)
        assert s.storage_report().buckets <= 11

    def test_infinite_support_retains_everything(self):
        s = ExactDecayingSum(PolynomialDecay(1.0))
        for _ in range(100):
            s.add(1.0)
            s.advance(1)
        assert s.storage_report().buckets == 100

    def test_storage_linear_in_elapsed_time(self):
        # The Omega(N) baseline of Lemma 3.2.
        s = ExactDecayingSum(PolynomialDecay(1.0))
        sizes = []
        for n in (100, 200, 400):
            while s.time < n:
                s.add(1.0)
                s.advance(1)
            sizes.append(s.storage_report().per_stream_bits)
        assert sizes[2] - sizes[1] > 0.9 * (sizes[1] - sizes[0])


class TestQueryAtAgeOffset:
    def test_offset_matches_future_advance(self):
        g = PolynomialDecay(1.5)
        a = ExactDecayingSum(g)
        b = ExactDecayingSum(g)
        for t in range(30):
            if t % 3:
                a.add(2.0)
                b.add(2.0)
            a.advance(1)
            b.advance(1)
        future = a.query_at_age_offset(17)
        b.advance(17)
        assert future == pytest.approx(b.query().value)

    def test_rejects_negative_offset(self):
        s = ExactDecayingSum(PolynomialDecay(1.0))
        with pytest.raises(InvalidParameterError):
            s.query_at_age_offset(-1)


_DECAYS = [
    PolynomialDecay(1.0),
    ExponentialDecay(0.03),
    SlidingWindowDecay(50),
    LinearDecay(120),
]


class TestDirectSum:
    """The engine against ``sum(v * g(T - t))`` written out item by item:
    one value per tick over 300 ticks, 40% of them zero."""

    @staticmethod
    def _replay(decay, extra: int) -> tuple[ExactDecayingSum, float]:
        rng = random.Random(3)
        values = [
            0.0 if rng.random() < 0.4 else rng.uniform(0.0, 2.0)
            for _ in range(300)
        ]
        engine = ExactDecayingSum(decay)
        for tick, value in enumerate(values):
            if tick:
                engine.advance(1)
            if value:
                engine.add(value)
        engine.advance(extra)
        now = len(values) - 1 + extra
        direct = sum(
            value * decay.weight(now - tick) for tick, value in enumerate(values)
        )
        return engine, direct

    @pytest.mark.parametrize("decay", _DECAYS, ids=lambda d: d.describe())
    def test_matches_exact_engine(self, decay):
        engine, direct = self._replay(decay, 0)
        assert engine.query().value == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("decay", _DECAYS, ids=lambda d: d.describe())
    def test_extra_age(self, decay):
        engine, direct = self._replay(decay, 17)
        assert engine.query().value == pytest.approx(direct, rel=1e-9)
