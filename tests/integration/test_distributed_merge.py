"""Distributed-stream merging via stream-independent boundaries.

The paper (sections 2.3 and 5, and the Gibbons–Tirthapura reference)
stresses that stream-independent bucket boundaries matter; one concrete
payoff is that two WBMHs driven in lock-step over *different* streams have
identical lattices and merge losslessly by adding bucket counts. These
tests verify that merging k engines equals one engine fed the union
stream, and that EXPD registers merge by addition.
"""

import random

import pytest

from repro.core.decay import ExponentialDecay, PolynomialDecay
from repro.core.errors import InvalidParameterError, TimeOrderError
from repro.core.exact import ExactDecayingSum
from repro.core.ewma import ExponentialSum
from repro.histograms.wbmh import WBMH


def make_streams(n_streams, length, seed):
    rng = random.Random(seed)
    streams = []
    for _ in range(n_streams):
        streams.append(
            [rng.uniform(0.5, 2.0) if rng.random() < 0.4 else 0.0
             for _ in range(length)]
        )
    return streams


class TestWBMHAbsorb:
    @pytest.mark.parametrize("strategy", ["scan", "scheduled"])
    def test_merge_of_three_equals_union(self, strategy):
        decay = PolynomialDecay(1.0)
        streams = make_streams(3, 600, seed=4)
        engines = [
            WBMH(decay, 0.15, merge_strategy=strategy, quantize=False)
            for _ in streams
        ]
        union = WBMH(decay, 0.15, merge_strategy=strategy, quantize=False)
        for t in range(600):
            total = 0.0
            for engine, stream in zip(engines, streams):
                if stream[t]:
                    engine.add(stream[t])
                total += stream[t]
            if total:
                union.add(total)
            for engine in engines:
                engine.advance(1)
            union.advance(1)
        merged = engines[0]
        merged.absorb(engines[1])
        merged.absorb(engines[2])
        assert merged.bucket_arrival_sets() == union.bucket_arrival_sets()
        assert merged.query().value == pytest.approx(union.query().value)

    def test_quantized_merge_stays_accurate(self):
        decay = PolynomialDecay(1.0)
        streams = make_streams(2, 800, seed=7)
        a = WBMH(decay, 0.1)
        b = WBMH(decay, 0.1)
        exact = ExactDecayingSum(decay)
        for t in range(800):
            if streams[0][t]:
                a.add(streams[0][t])
                exact.add(streams[0][t])
            if streams[1][t]:
                b.add(streams[1][t])
                exact.add(streams[1][t])
            a.advance(1)
            b.advance(1)
            exact.advance(1)
        a.absorb(b)
        est = a.query()
        true = exact.query().value
        assert est.contains(true)
        assert est.relative_error_vs(true) < 0.1 + 0.01  # +1 merge level

    def test_merged_engine_keeps_running(self):
        decay = PolynomialDecay(2.0)
        a = WBMH(decay, 0.2)
        b = WBMH(decay, 0.2)
        exact = ExactDecayingSum(decay)
        for _ in range(100):
            a.add(1)
            b.add(2)
            exact.add(3)
            a.advance(1)
            b.advance(1)
            exact.advance(1)
        a.absorb(b)
        for _ in range(200):  # continue the merged engine afterwards
            a.add(1)
            exact.add(1)
            a.advance(1)
            exact.advance(1)
        est = a.query()
        assert est.contains(exact.query().value)

    def test_rejects_incompatible(self):
        a = WBMH(PolynomialDecay(1.0), 0.1)
        with pytest.raises(InvalidParameterError):
            a.absorb(a)
        b = WBMH(PolynomialDecay(1.0), 0.1)
        b.advance(5)
        with pytest.raises(TimeOrderError):
            a.absorb(b)
        c = WBMH(PolynomialDecay(1.0), 0.3)
        with pytest.raises(InvalidParameterError):
            a.absorb(c)


class TestEwmaAbsorb:
    """EXPD registers absorb one another through ``merge``, the one EWMA
    merge: the union stream's register is the sum of the registers."""

    def test_registers_add(self):
        lam = 0.05
        a = ExponentialSum(ExponentialDecay(lam))
        b = ExponentialSum(ExponentialDecay(lam))
        union = ExponentialSum(ExponentialDecay(lam))
        rng = random.Random(11)
        for _ in range(300):
            x, y = rng.random(), rng.random()
            a.add(x)
            b.add(y)
            union.add(x + y)
            a.advance(1)
            b.advance(1)
            union.advance(1)
        a.merge(b)
        assert a.query().value == pytest.approx(union.query().value)

    def test_rejects_mismatches(self):
        a = ExponentialSum(ExponentialDecay(0.1))
        b = ExponentialSum(ExponentialDecay(0.2))
        with pytest.raises(InvalidParameterError):
            a.merge(b)
        with pytest.raises(InvalidParameterError):
            a.merge(a)
