"""Out-of-order streams: the buffer policy restores the in-order contract.

Network telemetry rarely arrives sorted. This example shuffles a stream
within a lateness bound and feeds it three ways: through ``ingest_trace``
under ``OutOfOrderPolicy.buffered``, through a keyed store holding the
same policy (which answers at its safe frontier mid-feed), and naively
force-fed (late events dropped). It compares each against the in-order
ground truth.

Run:  python examples/out_of_order.py
"""

import random

from repro import OutOfOrderPolicy, PolynomialDecay, make_decaying_sum
from repro.core.batching import ingest_trace
from repro.core.exact import ExactDecayingSum
from repro.service import ServiceStore
from repro.streams.generators import StreamItem
from repro.streams.io import KeyedItem


def truth_until(events, decay, horizon):
    """Exact decayed sum of the events stamped at or before ``horizon``."""
    truth = ExactDecayingSum(decay)
    ingest_trace(truth, [StreamItem(t, v) for t, v in sorted(events)
                         if t <= horizon])
    return truth


def main() -> None:
    decay = PolynomialDecay(alpha=1.0)
    rng = random.Random(23)
    lateness = 12

    events = [(t, rng.uniform(0.5, 1.5))
              for t in range(3000) if rng.random() < 0.4]
    delivered = sorted(events, key=lambda e: e[0] + rng.uniform(0, lateness))
    print(f"events: {len(events)}, delivered shuffled within {lateness} ticks")

    # (a) A whole trace: the buffer drains at the end, so the engine is
    # the in-order replay of every event.
    policy = OutOfOrderPolicy.buffered(lateness)
    engine = make_decaying_sum(decay, 0.05)
    ingest_trace(engine, [StreamItem(t, v) for t, v in delivered],
                 policy=policy)
    in_order = make_decaying_sum(decay, 0.05)
    ingest_trace(in_order, [StreamItem(t, v) for t, v in sorted(events)])
    truth = truth_until(events, decay, engine.time).query().value
    est = engine.query()
    print(f"{f'truth at t={engine.time}':22}: {truth:.4f}")
    print(f"buffered ingest_trace : {est.value:.4f} "
          f"(bracket holds: {est.contains(truth)}; same bits as the sorted "
          f"replay: {est == in_order.query()}; late drops: "
          f"{policy.dropped_count})")

    # (b) A live feed: the store holds each event until the watermark is
    # `lateness` ticks past it, so mid-feed it answers at its frontier.
    store = ServiceStore(decay, 0.05,
                         policy=OutOfOrderPolicy.buffered(lateness))
    store.observe_batch(KeyedItem("link", t, v) for t, v in delivered)
    stats = store.stats()
    frontier_truth = truth_until(events, decay, store.time).query().value
    print(f"store mid-feed        : {store.query('link').value:.4f} at "
          f"t={store.time} (truth there {frontier_truth:.4f}; "
          f"watermark={stats['watermark']}, buffered={stats['buffered']})")

    # (c) What a naive consumer that discards regressions ends up with.
    naive = ExactDecayingSum(decay)
    naive_dropped = 0
    for when, value in delivered:
        if when < naive.time:
            naive_dropped += 1
            continue
        naive.advance(when - naive.time)
        naive.add(value)
    if naive.time < engine.time:
        naive.advance(engine.time - naive.time)
    print(f"naive force-feed      : {naive.query().value:.4f} "
          f"(silently dropped {naive_dropped} of {len(events)} events)")


if __name__ == "__main__":
    main()
