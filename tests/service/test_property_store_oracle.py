"""Property test: ServiceStore == a dict of factory engines, bit for bit.

The oracle is deliberately naive: one :func:`make_decaying_sum` engine
per key, driven item by item (``advance_to`` then ``add``), with every
engine advanced in lock-step at every distinct global arrival time --
the discipline that keeps per-key answers mergeable.  Lock-step matters at the last
ulp: register engines advance by multiplying a decay factor in, so
``advance(a); advance(b)`` and ``advance(a + b)`` differ in rounding;
the oracle must advance at the same checkpoints the store does or the
comparison would be approximate rather than exact.

The store is driven through ``observe_batch`` in arbitrary chunk sizes
(a different code path: grouped folds, ``add_batch`` per key), so the
property also pins batch folding to singleton semantics.  TTL eviction
and snapshot/restore round-trips are included in the state the oracle
tracks: keys that expire in one sweep leave by last-seen tick and, within
a tick, in first-write order, and ``evicted_weight`` sums in that order,
so it matches bit for bit.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.decay import (
    DecayFunction,
    ExponentialDecay,
    PolynomialDecay,
    SlidingWindowDecay,
)
from repro.core.estimate import Estimate
from repro.core.interfaces import DecayingSum, make_decaying_sum
from repro.service.store import ServiceStore
from repro.streams.io import KeyedItem

_EPSILON = 0.1

_KEYS = ("a", "b", "c", "d")

def _decay_for(name: str) -> DecayFunction:
    if name == "expd":
        return ExponentialDecay(0.05)
    if name == "sliwin":
        return SlidingWindowDecay(16)
    return PolynomialDecay(1.2)


#: (key index, time gap to the previous item, integer value).
_EVENTS = st.lists(
    st.tuples(
        st.integers(0, len(_KEYS) - 1),
        st.integers(0, 4),
        st.integers(0, 4),
    ),
    max_size=40,
)


def _items(events: list[tuple[int, int, int]]) -> list[KeyedItem]:
    now = 0
    items: list[KeyedItem] = []
    for key_index, gap, value in events:
        now += gap
        items.append(KeyedItem(_KEYS[key_index], now, float(value)))
    return items


def _triplet(estimate: Estimate) -> tuple[float, float, float]:
    return (estimate.value, estimate.lower, estimate.upper)


class DictOracle:
    """One factory engine per key, advanced in lock-step, TTL-swept."""

    def __init__(self, decay: DecayFunction, ttl: int | None) -> None:
        self.decay = decay
        self.ttl = ttl
        self.time = 0
        self.engines: dict[str, DecayingSum] = {}
        #: Kept in TTL order: a key's first write at a new tick moves it
        #: to the end.
        self.last_seen: dict[str, int] = {}
        self.evicted = 0
        self.evicted_weight = 0.0

    def advance_to(self, when: int) -> None:
        steps = when - self.time
        if steps <= 0:
            return
        self.time = when
        for engine in self.engines.values():
            engine.advance(steps)
        if self.ttl is not None:
            expired = [
                key
                for key, last in self.last_seen.items()
                if last + self.ttl <= self.time
            ]
            for key in expired:
                self.evicted_weight += self.engines.pop(key).query().value
                del self.last_seen[key]
                self.evicted += 1

    def observe(self, item: KeyedItem) -> None:
        self.advance_to(item.time)
        engine = self.engines.get(item.key)
        if engine is None:
            engine = make_decaying_sum(self.decay, _EPSILON)
            if self.time:
                engine.advance(self.time)
            self.engines[item.key] = engine
        engine.add(item.value)
        if self.last_seen.get(item.key) != self.time:
            self.last_seen.pop(item.key, None)
            self.last_seen[item.key] = self.time

    def assert_matches(self, store: ServiceStore) -> None:
        assert store.time == self.time
        assert store.keys() == sorted(self.engines)
        assert store.eviction.evicted_keys == self.evicted
        assert (
            store.eviction.evicted_weight.hex() == self.evicted_weight.hex()
        )
        for key, engine in self.engines.items():
            assert _triplet(store.query(key)) == _triplet(engine.query()), (
                f"key {key!r} diverged from the oracle at t={self.time}"
            )


class TestStoreOracle:
    @settings(max_examples=50, deadline=None)
    @given(
        events=_EVENTS,
        decay_name=st.sampled_from(("expd", "sliwin", "polyd")),
        ttl=st.sampled_from((None, 4, 9)),
        chunk=st.integers(1, 7),
        tail=st.integers(0, 12),
    )
    def test_store_matches_dict_of_engines(
        self,
        events: list[tuple[int, int, int]],
        decay_name: str,
        ttl: int | None,
        chunk: int,
        tail: int,
    ) -> None:
        items = _items(events)
        store = ServiceStore(_decay_for(decay_name), _EPSILON, ttl=ttl)
        oracle = DictOracle(_decay_for(decay_name), ttl)
        for start in range(0, len(items), chunk):
            batch = items[start : start + chunk]
            store.observe_batch(batch)
            for item in batch:
                oracle.observe(item)
            oracle.assert_matches(store)
        if items:
            end = items[-1].time + tail
            store.advance_to(end)
            oracle.advance_to(end)
            oracle.assert_matches(store)

    @settings(max_examples=30, deadline=None)
    @given(
        events=_EVENTS,
        decay_name=st.sampled_from(("expd", "sliwin", "polyd")),
        ttl=st.sampled_from((None, 6)),
        split=st.integers(0, 40),
    )
    # "a" and "d" share last-seen tick 2, where "d" was written first,
    # and "b" leaves first: after the round-trip the sweep at tick 8 must
    # still evict "d" before "a" for evicted_weight to match.
    @example(
        events=[(1, 0, 2), (0, 1, 1), (3, 1, 4), (0, 0, 1), (1, 4, 4), (1, 2, 3)],
        decay_name="expd",
        ttl=6,
        split=4,
    )
    def test_snapshot_restore_continues_on_the_oracle(
        self,
        events: list[tuple[int, int, int]],
        decay_name: str,
        ttl: int | None,
        split: int,
    ) -> None:
        items = _items(events)
        split = min(split, len(items))
        store = ServiceStore(_decay_for(decay_name), _EPSILON, ttl=ttl)
        oracle = DictOracle(_decay_for(decay_name), ttl)
        store.observe_batch(items[:split])
        for item in items[:split]:
            oracle.observe(item)
        # Round-trip mid-stream; the rebuilt store must continue exactly.
        revived = ServiceStore.from_dict(store.to_dict())
        revived.observe_batch(items[split:])
        for item in items[split:]:
            oracle.observe(item)
        oracle.assert_matches(revived)
