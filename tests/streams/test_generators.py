"""Unit tests for synthetic stream generators."""

import math

import pytest

from repro.core.decay import PolynomialDecay
from repro.core.errors import InvalidParameterError
from repro.core.exact import ExactDecayingSum
from repro.streams.generators import (
    StreamItem,
    bernoulli_stream,
    bursty_stream,
    constant_stream,
    drive,
    drive_many,
    lognormal_value_stream,
    periodic_stream,
    uniform_value_stream,
    zipf_value_stream,
)


class TestStreamItem:
    def test_rejects_negative_time_or_value(self):
        with pytest.raises(InvalidParameterError):
            StreamItem(-1, 1.0)
        with pytest.raises(InvalidParameterError):
            StreamItem(0, -1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_value(self, value):
        with pytest.raises(InvalidParameterError, match="finite"):
            StreamItem(0, value)


class TestGenerators:
    def test_bernoulli_reproducible(self):
        a = list(bernoulli_stream(500, 0.3, seed=9))
        b = list(bernoulli_stream(500, 0.3, seed=9))
        assert a == b

    def test_bernoulli_rate(self):
        items = list(bernoulli_stream(10_000, 0.3, seed=1))
        assert 0.25 < len(items) / 10_000 < 0.35

    def test_bernoulli_extremes(self):
        assert list(bernoulli_stream(100, 0.0, seed=1)) == []
        assert len(list(bernoulli_stream(100, 1.0, seed=1))) == 100

    def test_constant_stream(self):
        items = list(constant_stream(5, 2.0))
        assert [(i.time, i.value) for i in items] == [
            (0, 2.0), (1, 2.0), (2, 2.0), (3, 2.0), (4, 2.0)
        ]

    def test_periodic_stream(self):
        items = list(periodic_stream(10, 3))
        assert [i.time for i in items] == [0, 3, 6, 9]

    def test_bursty_stream_times_increasing(self):
        items = list(bursty_stream(2000, seed=5))
        times = [i.time for i in items]
        assert times == sorted(times)
        assert len(set(times)) == len(times)
        assert items  # bursts actually produce data

    def test_bursty_has_gaps(self):
        items = list(bursty_stream(5000, on_mean=10, off_mean=200, seed=2))
        times = [i.time for i in items]
        max_gap = max(b - a for a, b in zip(times, times[1:]))
        assert max_gap > 50

    def test_uniform_values_in_range(self):
        items = list(uniform_value_stream(500, low=1.0, high=2.0, seed=3))
        assert all(1.0 <= i.value <= 2.0 for i in items)

    def test_zipf_heavy_tail(self):
        items = list(zipf_value_stream(5000, s=1.5, seed=4))
        ones = sum(1 for i in items if i.value == 1.0)
        # P(rank 1) = 1/zeta(1.5, 1000) ~ 0.38: rank-1 dominates.
        assert ones > len(items) * 0.3

    def test_lognormal_positive(self):
        items = list(lognormal_value_stream(200, seed=6))
        assert all(i.value > 0 for i in items)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: bernoulli_stream(10, 1.5),
            lambda: periodic_stream(10, 0),
            lambda: zipf_value_stream(10, s=1.0),
            lambda: bursty_stream(10, on_mean=0),
        ],
    )
    def test_generators_validate(self, factory):
        with pytest.raises(InvalidParameterError):
            list(factory())


class TestDrive:
    def test_drive_advances_to_arrivals(self):
        engine = ExactDecayingSum(PolynomialDecay(1.0))
        drive(engine, [StreamItem(3, 1.0), StreamItem(7, 2.0)], until=10)
        assert engine.time == 10
        g = PolynomialDecay(1.0)
        assert engine.query().value == pytest.approx(
            1.0 * g.weight(7) + 2.0 * g.weight(3)
        )

    def test_drive_rejects_time_regression(self):
        engine = ExactDecayingSum(PolynomialDecay(1.0))
        engine.advance(5)
        with pytest.raises(InvalidParameterError):
            drive(engine, [StreamItem(3, 1.0)])

    def test_drive_many_lockstep(self):
        a = ExactDecayingSum(PolynomialDecay(1.0))
        b = ExactDecayingSum(PolynomialDecay(1.0))
        drive_many([a, b], bernoulli_stream(100, 0.5, seed=8), until=120)
        assert a.time == b.time == 120
        assert a.query().value == b.query().value
