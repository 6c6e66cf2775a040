"""PERF -- update/query throughput of every decaying-sum engine.

The paper notes the CEH estimate can be maintained with constant amortized
update time; this benchmark measures wall-clock updates/sec of each engine
on the same Bernoulli stream, plus query latency, so downstream users can
pick an engine on cost as well as storage.

This file also emits the machine-readable throughput baseline
``BENCH_throughput.json`` (repo root, schema in
:mod:`repro.benchkit.throughput`) covering batched vs item-at-a-time
ingestion on two trace shapes plus the merge-cost section, and asserts
the kernel-pass acceptance bars: bulk EH insertion of a value-1e5 item
at least 100x faster than the seed's unary loop, the WBMH event-driven
clock skip at least 5x unit stepping on sparse traces, and the batch
path no slower than item mode on any engine (up to measurement noise).
Multi-core scaling is gated on the sharded service front instead
(:mod:`repro.benchkit.service`). The checked-in regression reference
lives at ``benchmarks/baselines/BENCH_throughput.json`` and is diffed by
``make bench-compare`` / the CI bench-compare job via
:mod:`repro.benchkit.regress`.
"""

import pathlib
import random

import pytest

from repro.benchkit.reporting import format_table
from repro.benchkit.throughput import (
    eh_bulk_speedup,
    format_report,
    run_suite,
    write_report,
)
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

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

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
    import time

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


def test_eh_bulk_add_speedup_acceptance(record_table, benchmark):
    """The PR's acceptance bar: value-1e5 bulk add >= 100x the unary loop."""

    def measure():
        return eh_bulk_speedup(100_000)

    res = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_table(
        "PERF-eh-bulk",
        format_table(
            ["value", "unary (s)", "bulk (s)", "speedup"],
            [[res["value"], res["unary_seconds"], res["bulk_seconds"],
              res["speedup"]]],
            precision=6,
        ),
    )
    assert res["speedup"] >= 100.0


def test_throughput_baseline_json(record_table, benchmark):
    """Run the full ingestion matrix and emit BENCH_throughput.json."""

    def measure():
        return run_suite(20_000, bulk_value=100_000, repeats=3)

    report = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_table("PERF-ingest", format_report(report))
    write_report(report, REPO_ROOT / "BENCH_throughput.json")
    modes = {(r["engine"], r["trace"], r["mode"]) for r in report["results"]}
    assert len(modes) == len(report["results"])  # no duplicate cells
    assert report["eh_bulk"]["speedup"] >= 100.0
    # Kernel-pass bars: the batch path must not lose to item mode (0.85
    # floor absorbs shared-runner noise around the >= 1.0 target pinned by
    # the checked-in baseline), and the sparse-trace clock skip must hold
    # its 5x margin (measured ~12x).
    for row in report["speedups"]:
        assert row["batched_over_item"] >= 0.85, row
    assert report["wbmh_advance"]["speedup"] >= 5.0
    assert report["numpy_baseline"]["items_per_sec"] > 0
    assert {row["engine"] for row in report["merge_cost"]} == set(
        report["engines"]
    )
    assert all(row["seconds"] >= 0 for row in report["merge_cost"])
