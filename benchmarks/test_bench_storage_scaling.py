"""LEM51 -- the storage hierarchy: Lemma 5.1's gap and its neighbours.

Sweeps stream length N and reports per-stream storage bits for

    exact  |  CEH (log^2 N)  |  WBMH adaptive  |  WBMH known-N  |  EWMA

on POLYD(1), plus the shape diagnostics the paper's bounds predict:
normalized ratios bits/log^2 N (flat for CEH) and bits/(log N log log N)
(flat for WBMH), and WBMH's bucket-count blowup on EXPD (where it needs a
linear number of buckets and the single-register recurrence wins).

FWD-storage sweeps stream *duration* instead: a forward-decay sum holds
only the scale blocks at or above its edge, at most ``_WINDOW`` of them,
so its bits stay flat however long the stream runs, where one block per
64 bits of ``log2 g`` would grow linearly with time.
"""

import math

import pytest

from repro.benchkit.harness import growth_exponent
from repro.benchkit.reporting import format_table
from repro.core.decay import ExponentialDecay, PolynomialDecay
from repro.core.ewma import ExponentialSum
from repro.core.exact import ExactDecayingSum
from repro.core.forward import _WINDOW, ForwardDecay, ForwardDecaySum
from repro.histograms.ceh import CascadedEH
from repro.histograms.wbmh import WBMH
from repro.streams.generators import StreamItem

SIZES = [1 << 9, 1 << 11, 1 << 13, 1 << 15]
EPS = 0.3

#: Stream durations of the forward sweep: one item every 4 ticks.
FWD_HORIZONS = [1 << j for j in range(12, 21, 2)]


def run(engine, n):
    for _ in range(n):
        engine.add(1)
        engine.advance(1)
    return engine.storage_report()


def storage_rows():
    rows = []
    for n in SIZES:
        decay = PolynomialDecay(1.0)
        exact = run(ExactDecayingSum(decay), n).per_stream_bits
        ceh = run(CascadedEH(decay, EPS), n).per_stream_bits
        wbmh_a = run(WBMH(decay, EPS), n).per_stream_bits
        wbmh_f = run(WBMH(decay, EPS, horizon=n), n).per_stream_bits
        ewma = run(ExponentialSum(ExponentialDecay(0.05)), n).per_stream_bits
        log_n = math.log2(n)
        rows.append(
            [
                n,
                exact,
                ceh,
                wbmh_a,
                wbmh_f,
                ewma,
                round(ceh / log_n**2, 2),
                round(wbmh_f / (log_n * math.log2(log_n)), 2),
            ]
        )
    return rows


def expd_bucket_rows():
    rows = []
    for n in (200, 400, 800):
        w = WBMH(ExponentialDecay(0.5), 0.5)
        for _ in range(n):
            w.add(1)
            w.advance(1)
        c = CascadedEH(ExponentialDecay(0.5), 0.5)
        for _ in range(n):
            c.add(1)
            c.advance(1)
        rows.append([n, w.bucket_count(), c.histogram.bucket_count()])
    return rows


def forward_storage_rows():
    decay = ForwardDecay("exp", 0.05)
    engine = ForwardDecaySum(decay)
    rows = []
    start = 0
    for horizon in FWD_HORIZONS:
        engine.ingest(
            (StreamItem(t, 1.0) for t in range(start, horizon, 4)),
            until=horizon,
        )
        start = horizon
        report = engine.storage_report()
        spanned = int(decay.log2_g(horizon - 4) / 64) + 1
        rows.append(
            [horizon, horizon // 4, spanned, report.buckets,
             report.per_stream_bits]
        )
    return rows


def test_storage_hierarchy(record_table, benchmark):
    rows = benchmark.pedantic(storage_rows, rounds=1, iterations=1)
    record_table(
        "LEM51-storage",
        format_table(
            ["N", "exact", "CEH", "WBMH (eps/i^2)", "WBMH (known N)",
             "EWMA", "CEH/log^2N", "WBMH/(logN loglogN)"],
            rows,
        ),
    )
    # Ordering at the largest N (the paper's hierarchy).
    n, exact, ceh, wbmh_a, wbmh_f, ewma = rows[-1][:6]
    assert ewma < wbmh_f < ceh < exact
    # Exact is linear; histogram engines are polylog.
    ns = [r[0] for r in rows]
    assert growth_exponent(ns, [r[1] for r in rows]) == pytest.approx(1.0, abs=0.15)
    for col in (2, 3, 4):
        assert growth_exponent(ns, [r[col] for r in rows]) < 0.35
    # Normalized shapes stay flat: CEH/log^2 N and WBMH/(log N log log N).
    ceh_norm = [r[6] for r in rows]
    wbmh_norm = [r[7] for r in rows]
    assert max(ceh_norm) / min(ceh_norm) < 2.0
    assert max(wbmh_norm) / min(wbmh_norm) < 2.0
    # The Lemma 5.1 gap widens with N and has crossed over by N = 2**15 at eps = 0.3.
    ratios = [r[4] / r[2] for r in rows]  # WBMH(known N) / CEH
    assert ratios[-1] < ratios[0]
    assert ratios[-1] < 1.0


def test_wbmh_degenerates_on_expd(record_table, benchmark):
    rows = benchmark.pedantic(expd_bucket_rows, rounds=1, iterations=1)
    record_table(
        "LEM51-expd",
        format_table(["N", "WBMH buckets (EXPD)", "CEH buckets (EXPD)"], rows),
    )
    # Linear bucket growth for WBMH on EXPD vs logarithmic for CEH.
    assert rows[-1][1] > 0.9 * 2 * rows[-2][1] * 0.5  # ~doubles with N
    assert growth_exponent([r[0] for r in rows], [r[1] for r in rows]) > 0.8
    assert growth_exponent([r[0] for r in rows], [r[2] for r in rows]) < 0.5


def test_forward_storage_is_flat(record_table, benchmark):
    rows = benchmark.pedantic(forward_storage_rows, rounds=1, iterations=1)
    record_table(
        "FWD-storage",
        format_table(
            ["T (ticks)", "items", "blocks spanned", "blocks held", "bits"],
            rows,
        ),
    )
    assert all(r[3] <= _WINDOW for r in rows)
    # A full block of unit items every 4 ticks banks the geometric sum
    # 2**64 / (1 - 2**(-0.2 log2 e)), about 2**66.5, so its floor
    # (forward._floor_of) lies 16 blocks below it: the edge keeps those
    # 16, the full block and the partial top one.
    assert [r[3] for r in rows if r[0] >= 1 << 16] == [18, 18, 18]
    # Past one edge's span of blocks the state stops growing with T.
    bits = {r[0]: r[4] for r in rows}
    assert bits[1 << 20] == pytest.approx(bits[1 << 16], rel=0.05)
    assert rows[-1][2] > 16 * rows[-1][3]


def test_wbmh_update_kernel(benchmark):
    decay = PolynomialDecay(1.0)

    def go():
        w = WBMH(decay, 0.2)
        for _ in range(2000):
            w.add(1)
            w.advance(1)
        return w

    w = benchmark(go)
    assert w.bucket_count() > 0
