"""The bulk kernels equal the organic replay, byte for byte.

:mod:`repro.histograms.soa` builds whole-trace engine state in closed form
and declines to the organic :func:`~repro.core.batching.ingest_trace`
replay wherever it cannot reproduce it.  These tests compare the two as
the JSON bytes of ``engine_to_dict`` -- which tells an integer count from
a float one, unlike ``==`` -- on the WBMH weight types the float64 fold
has to get right, and on the benchmark's own 20,000-item traces, whose
deep EH levels and high WBMH classes the short hypothesis traces never
reach.
"""

from __future__ import annotations

import json

import pytest

from repro.benchkit.throughput import default_traces
from repro.core.batching import ingest_trace
from repro.core.decay import ExponentialDecay, PolynomialDecay
from repro.histograms.ceh import CascadedEH
from repro.histograms.eh import SlidingWindowSum
from repro.histograms.soa import eh_bulk_ingest, wbmh_bulk_ingest
from repro.histograms.wbmh import WBMH
from repro.serialize import engine_to_dict
from repro.streams.generators import StreamItem


def snapshot_bytes(engine) -> str:
    return json.dumps(engine_to_dict(engine))


def triplet(engine) -> tuple[float, float, float]:
    est = engine.query()
    return (est.value, est.lower, est.upper)


def run_kernel(engine, items) -> bool:
    """Run ``engine``'s bulk kernel directly; ``True`` when it applied."""
    if isinstance(engine, WBMH):
        return wbmh_bulk_ingest(engine, items)
    return eh_bulk_ingest(engine.histogram, items)


WEIGHTS = {
    "int": lambda t: 1 + t % 5,
    "float": lambda t: 0.25 + (t % 7) / 3,
    "above-2**53": lambda t: 2**53 + 1 + t,
}


class TestWbmhBulkIsExact:
    @pytest.mark.parametrize("quantize", [True, False], ids=["quantized", "exact"])
    @pytest.mark.parametrize("weight", sorted(WEIGHTS), ids=str)
    def test_bulk_equals_organic_as_json(self, weight: str, quantize: bool):
        # Every tick carries weight, so integer leaves survive at class 0.
        items = [StreamItem(t, WEIGHTS[weight](t)) for t in range(600)]
        bulk = WBMH(PolynomialDecay(1.0), 0.1, quantize=quantize)
        bulk.ingest(items)
        organic = WBMH(PolynomialDecay(1.0), 0.1, quantize=quantize)
        ingest_trace(organic, items)
        assert snapshot_bytes(bulk) == snapshot_bytes(organic)
        assert triplet(bulk) == triplet(organic)
        bulk.advance(100)
        organic.advance(100)
        assert snapshot_bytes(bulk) == snapshot_bytes(organic)
        # The kernel declines only where the float64 fold cannot follow
        # Python's arithmetic: integer leaves unquantized or above 2**53.
        applied = run_kernel(
            WBMH(PolynomialDecay(1.0), 0.1, quantize=quantize), items
        )
        assert applied == (weight == "float" or (weight == "int" and quantize))

    @pytest.mark.parametrize("quantize", [True, False], ids=["quantized", "exact"])
    def test_overflowing_fold_declines(self, quantize: bool):
        # Two finite leaves whose sum overflows: the quantized organic
        # merge raises on it, so the float64 fold must not commit inf.
        items = [StreamItem(t, 1e308) for t in range(4)] + [StreamItem(40, 1.0)]
        assert not run_kernel(
            WBMH(PolynomialDecay(1.0), 0.1, quantize=quantize), items
        )


ENGINES = {
    "eh(SLIWIN-512)": lambda: SlidingWindowSum(512, 0.1),
    "ceh(POLYD-1)": lambda: CascadedEH(PolynomialDecay(1.0), 0.1),
    "wbmh(POLYD-1)": lambda: WBMH(PolynomialDecay(1.0), 0.1),
    "wbmh(EXPD-0.001)": lambda: WBMH(ExponentialDecay(0.001), 0.1),
}


@pytest.fixture(scope="module")
def traces():
    return default_traces(20000, seed=7)


class TestBenchmarkScaleIdentity:
    @pytest.mark.parametrize("trace", ["dense", "bursty"])
    @pytest.mark.parametrize("engine", sorted(ENGINES), ids=str)
    def test_kernel_matches_organic_replay(self, traces, engine: str, trace: str):
        items = traces[trace]
        bulk = ENGINES[engine]()
        assert run_kernel(bulk, items)
        organic = ENGINES[engine]()
        ingest_trace(organic, items)
        assert bulk.time == organic.time == items[-1].time
        assert snapshot_bytes(bulk) == snapshot_bytes(organic)
        assert triplet(bulk) == triplet(organic)
