"""Tests for the WBMH merge-scheduling strategies.

The event-driven scheduler must be behaviourally identical to the paper's
every-tick sweep: a pair's merge window is a pure function of the pair and
the region schedule, so firing at the exact window start reproduces the
sweep's decisions.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decay import LogarithmicDecay, PolynomialDecay
from repro.core.errors import InvalidParameterError
from repro.core.exact import ExactDecayingSum
from repro.histograms import wbmh as wbmh_module
from repro.histograms.wbmh import WBMH


def drive_pairwise(decay, stream, **kwargs):
    scan = WBMH(decay, merge_strategy="scan", **kwargs)
    sched = WBMH(decay, merge_strategy="scheduled", **kwargs)
    for gap, value in stream:
        scan.advance(gap)
        sched.advance(gap)
        if value:
            scan.add(value)
            sched.add(value)
    return scan, sched


class TestEquivalence:
    def test_paper_trace_identical(self):
        for strat in ("scan", "scheduled"):
            w = WBMH(PolynomialDecay(2.0), ratio=5.0, quantize=False,
                     merge_strategy=strat)
            states = []
            for _ in range(10):
                w.add(1)
                states.append(w.bucket_arrival_sets())
                w.advance(1)
            if strat == "scan":
                reference = states
            else:
                assert states == reference

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_random_streams_identical(self, alpha):
        rng = random.Random(int(alpha * 10))
        stream = [
            (rng.randint(0, 5), rng.uniform(0.0, 3.0)) for _ in range(500)
        ]
        scan, sched = drive_pairwise(PolynomialDecay(alpha), stream, epsilon=0.15)
        assert scan.bucket_arrival_sets() == sched.bucket_arrival_sets()
        assert scan.query().value == pytest.approx(sched.query().value)

    def test_log_decay_identical(self):
        rng = random.Random(9)
        stream = [(rng.randint(0, 3), 1.0) for _ in range(400)]
        scan, sched = drive_pairwise(LogarithmicDecay(), stream, epsilon=0.3)
        assert scan.bucket_arrival_sets() == sched.bucket_arrival_sets()

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.floats(0.0, 10.0)),
            min_size=1,
            max_size=150,
        ),
        st.floats(0.3, 3.0),
    )
    def test_property_identical_lattices(self, stream, alpha):
        scan, sched = drive_pairwise(PolynomialDecay(alpha), stream, epsilon=0.25)
        assert scan.bucket_arrival_sets() == sched.bucket_arrival_sets()


class TestScheduledCorrectness:
    def test_accuracy_long_stream(self):
        decay = PolynomialDecay(1.0)
        w = WBMH(decay, 0.1, merge_strategy="scheduled")
        exact = ExactDecayingSum(decay)
        for _ in range(30_000):
            w.add(1)
            exact.add(1)
            w.advance(1)
            exact.advance(1)
        est = w.query()
        true = exact.query().value
        assert est.contains(true)
        assert est.relative_error_vs(true) <= 0.1

    def test_heap_stays_bounded(self):
        w = WBMH(PolynomialDecay(1.0), 0.2, merge_strategy="scheduled")
        for _ in range(5000):
            w.add(1)
            w.advance(1)
        # Lazy deletion keeps some stale entries, but the heap must stay
        # within a small multiple of the live pair count.
        assert len(w.lattice._merge_heap) < 20 * w.bucket_count() + 50

    def test_each_pending_pair_has_one_current_entry(self):
        # A pair's newest heap entry is the only one that may act: every
        # older entry (and every entry of a retired node) carries a stale
        # version, and the current one fires at the pair's fire time.
        def check(w):
            lattice = w.lattice
            current = Counter(
                id(node)
                for _, _, ver, node in lattice._merge_heap
                if ver == node.ver
            )
            fire_times = {
                id(node): fire
                for fire, _, ver, node in lattice._merge_heap
                if ver == node.ver
            }
            pending = 0
            node = lattice._head
            while node is not None:
                fire = lattice._pair_fire_time(node)
                if fire < wbmh_module._NEVER:
                    pending += 1
                    assert current[id(node)] == 1
                    assert fire_times[id(node)] == fire
                else:
                    assert current[id(node)] == 0
                node = node.next
            assert sum(current.values()) == pending

        rng = random.Random(15)
        decay = PolynomialDecay(1.0)
        w = WBMH(decay, 0.2)
        other = WBMH(decay, 0.2)
        for step in range(3000):
            w.add(rng.randint(0, 3))
            other.add(1.0)
            gap = rng.randint(1, 3)
            w.advance(gap)
            other.advance(gap)
            if step % 250 == 0:
                check(w)
        w.merge(other)
        check(w)
        w.advance(5000)
        check(w)

    def test_retired_nodes_are_unlinked(self):
        w = WBMH(PolynomialDecay(1.0), 0.2)
        for _ in range(2000):
            w.add(1.0)
            w.advance(1)
        live = set()
        node = w.lattice._head
        while node is not None:
            live.add(id(node))
            node = node.next
        retired = [
            n for _, _, _, n in w.lattice._merge_heap if id(n) not in live
        ]
        assert retired
        for node in retired:
            assert node.prev is None and node.next is None
            assert node.ver == wbmh_module._RETIRED

    def test_rejects_unknown_strategy(self):
        with pytest.raises(InvalidParameterError):
            WBMH(PolynomialDecay(1.0), 0.1, merge_strategy="eager")

    def test_bounded_support_expiry(self):
        from repro.core.decay import TableDecay

        # Geometric table with a zero tail: the drop to zero weight at the
        # support edge makes it formally non-ratio-nonincreasing (like a
        # window), so strict mode is waived; expiry is what's under test.
        decay = TableDecay([1.0, 0.5, 0.25, 0.125, 0.0625])
        w = WBMH(decay, 0.2, merge_strategy="scheduled", strict=False)
        for _ in range(200):
            w.add(1)
            w.advance(1)
        for b in w.bucket_view():
            assert w.time - b.end <= 4
