"""Unit tests for the Decaying Average Problem (paper section 2.2)."""

import random

import pytest

from repro.core.average import DecayingAverage
from repro.core.decay import (
    ExponentialDecay,
    PolynomialDecay,
    SlidingWindowDecay,
)
from repro.core.errors import (
    EmptyAggregateError,
    InvalidParameterError,
    TimeOrderError,
)
from repro.core.exact import ExactDecayingSum
from repro.streams.generators import StreamItem


def exact_average(decay):
    return DecayingAverage(
        decay,
        numerator=ExactDecayingSum(decay),
        denominator=ExactDecayingSum(decay),
    )


class TestExactBackend:
    def test_constant_values_give_that_constant(self):
        avg = exact_average(PolynomialDecay(1.0))
        for _ in range(50):
            avg.add(7.0)
            avg.advance(1)
        assert avg.query().value == pytest.approx(7.0)

    def test_weighted_average_formula(self):
        g = PolynomialDecay(2.0)
        avg = exact_average(g)
        values = [(0, 10.0), (3, 2.0), (7, 6.0)]
        for t, v in values:
            avg.advance(t - avg.time)
            avg.add(v)
        avg.advance(12 - avg.time)
        num = sum(v * g.weight(12 - t) for t, v in values)
        den = sum(g.weight(12 - t) for t, _ in values)
        assert avg.query().value == pytest.approx(num / den)

    def test_recent_values_dominate(self):
        avg = exact_average(ExponentialDecay(0.5))
        avg.add(100.0)
        avg.advance(30)
        avg.add(1.0)
        assert avg.query().value < 2.0


class TestApproxBackend:
    @pytest.mark.parametrize(
        "decay",
        [PolynomialDecay(1.0), ExponentialDecay(0.05), SlidingWindowDecay(64)],
    )
    def test_bracket_contains_exact(self, decay):
        approx = DecayingAverage(decay, epsilon=0.1)
        exact = exact_average(decay)
        rng = random.Random(42)
        for _ in range(300):
            if rng.random() < 0.6:
                # 0/1 values keep the EH backend applicable for SLIWIN.
                v = float(rng.randint(0, 1))
                approx.add(v)
                exact.add(v)
            approx.advance(1)
            exact.advance(1)
        true = exact.query().value
        est = approx.query()
        assert est.contains(true)
        assert est.relative_error_vs(true) < 0.25


class TestErrors:
    def test_empty_average_raises(self):
        avg = exact_average(PolynomialDecay(1.0))
        with pytest.raises(EmptyAggregateError):
            avg.query()

    def test_fully_decayed_raises(self):
        avg = exact_average(SlidingWindowDecay(5))
        avg.add(1.0)
        avg.advance(50)
        with pytest.raises(EmptyAggregateError):
            avg.query()

    def test_rejects_negative_values(self):
        avg = exact_average(PolynomialDecay(1.0))
        with pytest.raises(InvalidParameterError):
            avg.add(-3.0)

    def test_rejects_shared_engine(self):
        engine = ExactDecayingSum(PolynomialDecay(1.0))
        with pytest.raises(InvalidParameterError):
            DecayingAverage(
                PolynomialDecay(1.0), numerator=engine, denominator=engine
            )

    def test_storage_report_combines(self):
        avg = exact_average(PolynomialDecay(1.0))
        avg.add(1.0)
        avg.advance(1)
        assert avg.storage_report().engine == "avg"


class TestBatchSurface:
    """The engine base's ``advance_to``/``ingest`` and ``add_batch``."""

    ITEMS = [(0, 1.0), (0, 3.0), (2, 2.0), (5, 4.0), (5, 0.5), (9, 8.0)]

    def test_ingest_equals_the_item_loop(self):
        decay = PolynomialDecay(1.0)
        batched = exact_average(decay)
        batched.ingest([StreamItem(t, v) for t, v in self.ITEMS], until=12)
        looped = exact_average(decay)
        for t, v in self.ITEMS:
            looped.advance_to(t)
            looped.add(v)
        looped.advance_to(12)
        assert batched.time == looped.time == 12
        assert batched.items_observed == looped.items_observed == 6
        assert batched.query() == looped.query()

    def test_add_batch_is_one_add_per_value(self):
        a = exact_average(PolynomialDecay(1.0))
        b = exact_average(PolynomialDecay(1.0))
        a.add_batch([2.0, 5.0])
        b.add(2.0)
        b.add(5.0)
        assert a.query() == b.query()
        with pytest.raises(InvalidParameterError):
            a.add_batch([1.0, -1.0])
        assert a.items_observed == 3  # the values before the refusal count

    def test_advance_to_refuses_the_past(self):
        avg = exact_average(PolynomialDecay(1.0))
        avg.advance_to(4)
        with pytest.raises(TimeOrderError, match="4 -> 3"):
            avg.advance_to(3)
        assert avg.time == 4
