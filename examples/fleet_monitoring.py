"""Fleet monitoring: one decayed summary per customer (paper section 1.1).

The paper's motivating deployment keeps "a summary per field on each of
around 100 million customers". This example runs a (much smaller) fleet of
per-customer failure streams through the keyed store, whose WBMH keys
share one region schedule, and shows ranking queries, shard merging, and
the capacity math where shared, stream-independent state pays off.

Run:  python examples/fleet_monitoring.py
"""

import random

from repro import PolynomialDecay
from repro.benchkit.reporting import format_table
from repro.service import ServiceStore


def main() -> None:
    decay = PolynomialDecay(1.0)
    rng = random.Random(17)

    # Two ingestion shards observing disjoint halves of the event volume,
    # advanced in lock-step.
    shard_a = ServiceStore(decay, epsilon=0.1)
    shard_b = ServiceStore(decay, epsilon=0.1)
    customers = [f"cust-{i:03d}" for i in range(40)]
    failure_rate = {c: rng.uniform(0.001, 0.05) for c in customers}

    for _ in range(5000):
        for c in customers:
            if rng.random() < failure_rate[c]:
                (shard_a if rng.random() < 0.5 else shard_b).observe(c, 1.0)
        shard_a.advance(1)
        shard_b.advance(1)

    # Merge the shards key by key: matching keys add their (identical)
    # WBMH lattices bucket-by-bucket; keys seen by only one shard start
    # from an empty engine at the common clock.
    for key in shard_b.keys():
        shard_a.merge_into(key, shard_b.export_engine(key))
    fleet = shard_a

    print(f"fleet size: {len(fleet)} customers, clock={fleet.time}\n")
    ranked = sorted(fleet.keys(), key=lambda k: (-fleet.query(k).value, k))
    rows = [
        [name, f"{fleet.query(name).value:.4f}", f"{failure_rate[name]:.4f}"]
        for name in ranked[:5]
    ]
    print(format_table(
        ["noisiest customers", "decayed failure mass", "true failure rate"],
        rows,
    ))

    report = fleet.storage_report()
    per_customer = report.per_stream_bits / len(fleet)
    print(f"\nstorage: {report.per_stream_bits} bits across the fleet "
          f"(~{per_customer:.0f} bits/customer) + {report.shared_bits} bits "
          "of region boundaries stored ONCE")
    target = 100_000_000
    gib = per_customer * target / 8 / 2**30
    print(f"at AT&T scale ({target:,} customers): ~{gib:.1f} GiB total, "
          "shared state still just "
          f"{report.shared_bits} bits")


if __name__ == "__main__":
    main()
