"""FLEET -- the section 1.1 deployment at (mini) scale.

Tables:
1. Per-customer storage and shared state as fleet size grows -- the
   shared RegionSchedule amortizes to zero per stream.
2. Fleet throughput: observations/sec across engines chosen by decay.
3. Shard merging: cost of folding one store into another key by key
   (``merge_into(key, other.export_engine(key))``).
"""

import random
import time

from repro.benchkit.reporting import format_table
from repro.core.decay import ExponentialDecay, PolynomialDecay
from repro.service import ServiceStore


def storage_rows():
    rows = []
    for n_keys in (10, 50, 200):
        fleet = ServiceStore(PolynomialDecay(1.0), epsilon=0.2)
        rng = random.Random(5)
        for t in range(2000):
            for k in range(n_keys):
                if rng.random() < 0.05:
                    fleet.observe(str(k), 1.0)
            fleet.advance(1)
        rep = fleet.storage_report()
        rows.append(
            [
                n_keys,
                rep.per_stream_bits,
                round(rep.per_stream_bits / n_keys, 1),
                rep.shared_bits,
                round(rep.shared_bits / n_keys, 2),
            ]
        )
    return rows


def throughput_rows():
    rows = []
    for name, decay in (
        ("EXPD", ExponentialDecay(0.02)),
        ("POLYD(1)", PolynomialDecay(1.0)),
    ):
        fleet = ServiceStore(decay, epsilon=0.2)
        rng = random.Random(7)
        n_obs = 0
        t0 = time.perf_counter()
        for t in range(1500):
            for k in range(20):
                if rng.random() < 0.2:
                    fleet.observe(str(k), 1.0)
                    n_obs += 1
            fleet.advance(1)
        dt = time.perf_counter() - t0
        rows.append([name, 20, n_obs, round(n_obs / dt), round(1500 / dt)])
    return rows


def merge_rows():
    rows = []
    decay = PolynomialDecay(1.0)
    for n_keys in (20, 100):
        a = ServiceStore(decay, epsilon=0.2)
        b = ServiceStore(decay, epsilon=0.2)
        rng = random.Random(9)
        for t in range(500):
            for k in range(n_keys):
                if rng.random() < 0.1:
                    (a if rng.random() < 0.5 else b).observe(str(k), 1.0)
            a.advance(1)
            b.advance(1)
        t0 = time.perf_counter()
        for key in b.keys():
            a.merge_into(key, b.export_engine(key))
        dt = time.perf_counter() - t0
        rows.append([n_keys, len(a), round(dt * 1000, 2)])
    return rows


def test_fleet_storage(record_table, benchmark):
    rows = benchmark.pedantic(storage_rows, rounds=1, iterations=1)
    record_table(
        "FLEET-storage",
        format_table(
            ["keys", "total per-stream bits", "bits/key", "shared bits",
             "shared bits/key"],
            rows,
        ),
    )
    # Shared state is constant while per-key share of it vanishes.
    shared = [r[3] for r in rows]
    assert max(shared) - min(shared) <= max(shared) * 0.1
    assert rows[-1][4] < rows[0][4] / 5


def test_fleet_throughput(record_table, benchmark):
    rows = benchmark.pedantic(throughput_rows, rounds=1, iterations=1)
    record_table(
        "FLEET-throughput",
        format_table(
            ["decay", "keys", "observations", "obs/sec", "fleet ticks/sec"],
            rows,
        ),
    )
    for row in rows:
        assert row[3] > 1000


def test_fleet_merge(record_table, benchmark):
    rows = benchmark.pedantic(merge_rows, rounds=1, iterations=1)
    record_table(
        "FLEET-merge",
        format_table(["keys", "keys after merge", "merge time (ms)"], rows),
    )
    for row in rows:
        assert row[1] == row[0]
