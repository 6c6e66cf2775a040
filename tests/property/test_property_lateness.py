"""Property tests: the lateness buffer equals the in-order reference.

For any event set and any delivery order that respects the lateness bound,
the ``buffer`` policy loses nothing: a single engine fed through
``ingest_trace`` ends bit-identical to the sorted replay, and a keyed
store mid-feed holds exactly the sorted replay of the events at or before
its frontier (watermark - ``max_lateness``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batching import ingest_trace
from repro.core.decay import PolynomialDecay
from repro.core.exact import ExactDecayingSum
from repro.core.timeorder import OutOfOrderPolicy
from repro.service import ServiceStore
from repro.streams.generators import StreamItem
from repro.streams.io import KeyedItem

DECAY = PolynomialDecay(1.0)

# Events as (time, value); times drawn small so collisions and dense
# neighbourhoods occur often.
events_strategy = st.lists(
    st.tuples(st.integers(0, 120), st.floats(0.1, 5.0)),
    min_size=1,
    max_size=80,
)


def bounded_shuffle(events, max_lateness, shuffle_keys):
    """Delivery order: sort by (time + bounded offset), a valid lateness-L
    delivery schedule."""
    keyed = [
        (t + (k % (max_lateness + 1)), i, t, v)
        for i, ((t, v), k) in enumerate(zip(events, shuffle_keys))
    ]
    keyed.sort()
    return [(t, v) for _, _, t, v in keyed]


def replay(events):
    """Stable time sort of ``events`` (delivery order breaks ties)."""
    engine = ExactDecayingSum(DECAY)
    ingest_trace(
        engine,
        [StreamItem(t, v) for t, v in sorted(events, key=lambda e: e[0])],
    )
    return engine


@settings(max_examples=60, deadline=None)
@given(
    events_strategy,
    st.integers(0, 15),
    st.lists(st.integers(0, 1000), min_size=80, max_size=80),
)
def test_buffer_equals_in_order_reference(events, max_lateness, shuffle_keys):
    delivered = bounded_shuffle(events, max_lateness, shuffle_keys)
    policy = OutOfOrderPolicy.buffered(max_lateness)
    engine = ExactDecayingSum(DECAY)
    ingest_trace(
        engine, [StreamItem(t, v) for t, v in delivered], policy=policy
    )
    reference = replay(delivered)

    assert policy.dropped_count == 0  # the schedule respects the bound
    assert engine.time == reference.time == max(t for t, _ in events)
    assert engine.query().value == reference.query().value


@settings(max_examples=40, deadline=None)
@given(
    events_strategy,
    st.integers(0, 10),
    st.lists(st.integers(0, 1000), min_size=80, max_size=80),
)
def test_watermark_advance_flushes_everything(
    events, max_lateness, shuffle_keys
):
    delivered = bounded_shuffle(events, max_lateness, shuffle_keys)
    store = ServiceStore(
        DECAY,
        policy=OutOfOrderPolicy.buffered(max_lateness),
        engine_factory=lambda: ExactDecayingSum(DECAY),
    )
    store.observe_batch(KeyedItem("k", t, v) for t, v in delivered)
    frontier = max(t for t, _ in events) - max_lateness
    released = [(t, v) for t, v in delivered if t <= frontier]
    if released:
        assert store.query("k").value == replay(released).query().value
    else:
        assert "k" not in store

    # End of feed: the flush releases the whole window, in order.
    store.flush()
    assert store.stats()["buffered"] == 0
    assert store.stats()["dropped_count"] == 0
    reference = replay(delivered)
    assert store.time == reference.time
    assert store.query("k").value == reference.query().value
