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

import collections
import itertools
import json
import math

import pytest

from repro.core.batching import ingest_trace
from repro.core.decay import ExponentialDecay, PolynomialDecay
from repro.core.errors import InvalidParameterError
from repro.histograms.ceh import CascadedEH
from repro.histograms.eh import ExponentialHistogram, SlidingWindowSum
from repro.histograms.soa import WBMH_MAX_WEIGHT, eh_bulk_ingest, wbmh_bulk_ingest
from repro.histograms.wbmh import WBMH, Lattice
from repro.serialize import engine_to_dict
from repro.streams.generators import StreamItem, bernoulli_stream, bursty_stream


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
        # Leaves whose sums would overflow: the organic replay refuses a
        # weight above WBMH_MAX_WEIGHT before any merge could reach inf,
        # so the kernel declines wherever it refuses, just past the bound
        # too, and commits nothing.
        for big in (1e308, math.nextafter(WBMH_MAX_WEIGHT, math.inf)):
            items = [StreamItem(t, big) for t in range(4)] + [StreamItem(40, 1.0)]
            engine = WBMH(PolynomialDecay(1.0), 0.1, quantize=quantize)
            fresh = snapshot_bytes(engine)
            assert not run_kernel(engine, items)
            assert snapshot_bytes(engine) == fresh
            with pytest.raises(InvalidParameterError):
                ingest_trace(engine, items)


ENGINES = {
    "eh(SLIWIN-512)": lambda: SlidingWindowSum(512, 0.1),
    "ceh(POLYD-1)": lambda: CascadedEH(PolynomialDecay(1.0), 0.1),
    "wbmh(POLYD-1)": lambda: WBMH(PolynomialDecay(1.0), 0.1),
    "wbmh(EXPD-0.001)": lambda: WBMH(ExponentialDecay(0.001), 0.1),
}


@pytest.fixture(scope="module")
def traces():
    """Two 20,000-item traces at opposite ends of the batch path: ``dense``
    is about one unit item per tick, ``bursty`` has on/off phases with
    eight same-tick items per arrival inside a burst."""
    n = 20000
    dense = list(bernoulli_stream(int(n / 0.9) + 1, 0.9, seed=7))[:n]
    burst_src = bursty_stream(
        1 << 30, on_mean=8, off_mean=24, rate_on=1.0, seed=7
    )
    bursty = [
        StreamItem(item.time, 1.0)
        for item in itertools.islice(burst_src, n // 8)
        for _ in range(8)
    ]
    return {"dense": dense, "bursty": bursty}


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


#: The organic replay's per-tick entry points: one clock move and one
#: fold per distinct arrival time.
PER_TICK = {
    ExponentialHistogram: ("advance", "add", "add_batch"),
    Lattice: ("advance",),
    WBMH: ("add", "add_batch"),
}


def count_per_tick_calls(monkeypatch) -> collections.Counter:
    calls: collections.Counter = collections.Counter()
    for cls, names in PER_TICK.items():
        for name in names:
            def counted(self, *args, _orig=getattr(cls, name),
                        _name=f"{cls.__name__}.{name}", **kwargs):
                calls[_name] += 1
                return _orig(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, counted)
    return calls


class TestIngestTakesTheKernel:
    """``ingest`` builds a benchmark-scale trace in closed form: not one
    per-tick engine call, where the organic replay makes one clock move
    and one fold per distinct arrival time."""

    @pytest.mark.parametrize("trace", ["dense", "bursty"])
    @pytest.mark.parametrize("engine", sorted(ENGINES), ids=str)
    def test_no_per_tick_calls(self, traces, engine: str, trace: str,
                               monkeypatch):
        items = traces[trace]
        calls = count_per_tick_calls(monkeypatch)
        ENGINES[engine]().ingest(items)
        assert sum(calls.values()) == 0
        ingest_trace(ENGINES[engine](), items)
        times = {item.time for item in items}
        assert sum(calls.values()) == 2 * len(times) - (0 in times)
