"""PERF -- update/query throughput of every decaying-sum engine.

The paper notes the CEH estimate can be maintained with constant amortized
update time; this benchmark measures wall-clock updates/sec of each engine
on the same Bernoulli stream, plus query latency, so downstream users can
pick an engine on cost as well as storage.

It also holds the one single-process speed bar that only a clock can
show: WBMH's event-driven ``advance`` must be at least 5x faster than
unit stepping on a sparse trace, both timed in the same run.  The other
kernel bars (EH bulk insert, the batch path, forward ingest, the bulk
kernels) are exact work counts in the tier-1 suite, and multi-core
scaling is ``test_bench_sharded_scaling.py``.
"""

import random
import time

import pytest

from repro.benchkit.reporting import format_table
from repro.core.decay import (
    ExponentialDecay,
    PolynomialDecay,
    SlidingWindowDecay,
)
from repro.core.ewma import ExponentialSum
from repro.core.exact import ExactDecayingSum
from repro.histograms.ceh import CascadedEH
from repro.histograms.eh import ExponentialHistogram
from repro.histograms.wbmh import WBMH

N = 3000

ENGINES = {
    "ewma(EXPD)": lambda: ExponentialSum(ExponentialDecay(0.01)),
    "eh(SLIWIN-512)": lambda: ExponentialHistogram(512, 0.1),
    "ceh(POLYD-1)": lambda: CascadedEH(PolynomialDecay(1.0), 0.1),
    "wbmh(POLYD-1)": lambda: WBMH(PolynomialDecay(1.0), 0.1),
    "wbmh-scan(POLYD-1)": lambda: WBMH(
        PolynomialDecay(1.0), 0.1, merge_strategy="scan"
    ),
    "exact(POLYD-1)": lambda: ExactDecayingSum(PolynomialDecay(1.0)),
}


def drive(factory):
    engine = factory()
    rng = random.Random(13)
    for _ in range(N):
        if rng.random() < 0.5:
            engine.add(1)
        engine.advance(1)
    return engine


@pytest.mark.parametrize("name", list(ENGINES))
def test_update_throughput(benchmark, name):
    engine = benchmark(drive, ENGINES[name])
    assert engine.time == N


def test_query_latency_table(record_table, benchmark):
    def measure():
        rows = []
        for name, factory in ENGINES.items():
            engine = drive(factory)
            t0 = time.perf_counter()
            reps = 500
            for _ in range(reps):
                engine.query()
            dt = (time.perf_counter() - t0) / reps
            rows.append([name, dt * 1e6])
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_table(
        "PERF-query",
        format_table(["engine", "query latency (us)"], rows, precision=1),
    )
    assert all(r[1] < 50_000 for r in rows)


def _advance_seconds(gaps, *, unit_steps):
    """Seconds to drive a slowly decaying WBMH over ``gaps``, one unit
    item per arrival; the engine's buckets come back too."""
    engine = WBMH(ExponentialDecay(0.0001), 0.1)
    t0 = time.perf_counter()
    for gap in gaps:
        if unit_steps:
            for _ in range(gap):
                engine.advance(1)
        else:
            engine.advance(gap)
        engine.add(1.0)
    return time.perf_counter() - t0, engine.bucket_view()


def test_wbmh_event_driven_advance_ratio(benchmark):
    """``advance(gap)`` jumps from seal to merge to expiry; unit steps
    visit every tick.  Both end bit-identical, and over ~2.2M ticks the
    jump must win by 5x (it measured about 12x)."""
    rng = random.Random(7)
    gaps = [rng.randint(2_000, 20_000) for _ in range(200)]

    def measure():
        skip = min(_advance_seconds(gaps, unit_steps=False) for _ in range(3))
        return skip, _advance_seconds(gaps, unit_steps=True)

    (skip, skip_buckets), (unit, unit_buckets) = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    assert skip_buckets == unit_buckets
    assert unit >= 5.0 * skip, (
        f"advance(gap) {skip:.4f} s vs unit steps {unit:.4f} s: "
        f"{unit / skip:.1f}x"
    )
