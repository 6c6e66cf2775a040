"""Property: the optimized histogram kernels replicate unary replay.

The hot-path kernel pass (flattened EH carry propagation, the small-batch
unary cutover, the WBMH event-driven clock skip and memoized merge
scheduling) promises *bit-identity*, not approximate agreement: the
optimized engines must produce the same bucket lists -- starts, ends,
counts, levels -- as the pre-optimization unary replay, for every trace.
These properties pin that at the bucket level (stronger than the query
triplet used by ``test_property_batching``), and assert the EH bucket
bound ``O((1/eps) * log W)`` that the flattened cascade must not loosen.

The structure-of-arrays pass adds bulk kernels behind ``ingest``
(:mod:`repro.histograms.soa`).  The bulk-vs-organic class below drives
the same hypothesis traces through ``ingest`` *and* the organic
advance/add replay and requires identical bucket columns, plus the EH
invariant that counts stay Python ints (a float or numpy scalar would
poison the big-int carry arithmetic downstream).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decay import ExponentialDecay, PolynomialDecay
from repro.histograms.ceh import CascadedEH
from repro.histograms.eh import ExponentialHistogram
from repro.histograms.wbmh import WBMH
from repro.streams.generators import StreamItem

epsilons = st.sampled_from([0.05, 0.1, 0.3])
windows = st.one_of(st.none(), st.integers(4, 400))

# Integer counts as floats (the EH contract); zeros exercise skip paths.
counts = st.integers(0, 40).map(float)

# A trace is a list of (advance-gap, batch-of-counts) rounds.
eh_rounds = st.lists(
    st.tuples(st.integers(0, 12), st.lists(counts, max_size=10)),
    max_size=25,
)

wbmh_decays = st.one_of(
    st.floats(0.5, 2.5).map(PolynomialDecay),
    st.floats(0.005, 0.5).map(ExponentialDecay),
)
wbmh_rounds = st.lists(
    st.tuples(
        st.integers(0, 200),
        st.lists(st.floats(0.0, 5.0), max_size=6),
    ),
    max_size=20,
)


def eh_state(hist: ExponentialHistogram):
    return (
        hist.time,
        [(b.start, b.end, b.count, b.level) for b in hist.bucket_view()],
        list(hist._per_size),
    )


def wbmh_state(hist: WBMH):
    return (
        hist.time,
        [(b.start, b.end, b.count, b.level) for b in hist.bucket_view()],
    )


class TestEhKernelIdentity:
    @settings(max_examples=150, deadline=None)
    @given(windows, epsilons, eh_rounds)
    def test_batch_path_matches_unary_reference(self, window, eps, rounds):
        """``add_batch``/``add`` (flattened + cutover) vs the retained
        ``_add_ones_unary`` loop: identical buckets after every round."""
        fast = ExponentialHistogram(window, eps)
        unary = ExponentialHistogram(window, eps)
        for gap, batch in rounds:
            fast.advance(gap)
            unary.advance(gap)
            fast.add_batch(batch)
            for value in batch:
                unary._add_ones_unary(int(value))
            assert eh_state(fast) == eh_state(unary)

    @settings(max_examples=150, deadline=None)
    @given(windows, epsilons, eh_rounds)
    def test_bucket_count_bound(self, window, eps, rounds):
        """At most ``m + 1`` buckets per size and ``(m + 1) * O(log W)``
        overall, where ``W`` is the live item count (the paper's EH
        space bound, which the flattened cascade must not loosen)."""
        hist = ExponentialHistogram(window, eps)
        for gap, batch in rounds:
            hist.advance(gap)
            hist.add_batch(batch)
            per_size = hist._per_size  # entry j: buckets of size 2**j
            for j, n in enumerate(per_size):
                assert n <= hist.buckets_per_size + 1, (2**j, n)
            total = sum(2**j * n for j, n in enumerate(per_size))
            if total:
                distinct_sizes = total.bit_length()  # log2(W) + 1 sizes
                bound = (hist.buckets_per_size + 1) * (distinct_sizes + 1)
                assert len(hist.bucket_view()) <= bound


class TestCehKernelIdentity:
    @settings(max_examples=100, deadline=None)
    @given(epsilons, eh_rounds)
    def test_ingest_matches_item_replay(self, eps, rounds):
        items = []
        t = 0
        for gap, batch in rounds:
            t += gap
            for value in batch:
                items.append(StreamItem(t, value))
        fast = CascadedEH(PolynomialDecay(1.0), eps)
        fast.ingest(items)
        replay = CascadedEH(PolynomialDecay(1.0), eps)
        for item in items:
            if item.time > replay.time:
                replay.advance(item.time - replay.time)
            replay.add(item.value)
        assert fast.time == replay.time
        assert fast.histogram.bucket_view() == replay.histogram.bucket_view()


class TestWbmhKernelIdentity:
    @settings(max_examples=100, deadline=None)
    @given(wbmh_decays, epsilons, wbmh_rounds, st.booleans())
    def test_event_advance_matches_unit_steps(
        self, decay, eps, rounds, quantize
    ):
        """``advance(gap)`` (event-driven skip, memoized fire times) vs
        ``gap`` unit steps plus per-item adds: identical lattices."""
        fast = WBMH(decay, eps, quantize=quantize)
        slow = WBMH(
            type(decay)(**_decay_params(decay)), eps, quantize=quantize
        )
        for gap, batch in rounds:
            fast.advance(gap)
            for _ in range(gap):
                slow.advance(1)
            fast.add_batch(batch)
            for value in batch:
                slow.add(value)
            assert wbmh_state(fast) == wbmh_state(slow)


def _decay_params(decay):
    if isinstance(decay, PolynomialDecay):
        return {"alpha": decay.alpha}
    assert isinstance(decay, ExponentialDecay)
    return {"lam": decay.lam}


def _rounds_to_items(rounds):
    """The rounds as a sorted trace plus the organic replay's final clock
    (rounds may end with item-free gaps that only ``until`` can express)."""
    items = []
    t = 0
    for gap, batch in rounds:
        t += gap
        for value in batch:
            items.append(StreamItem(t, value))
    return items, t


class TestCrossBackendIdentity:
    """The two back ends of ``ingest`` -- the bulk kernel and the organic
    replay -- produce identical engines."""

    @settings(max_examples=150, deadline=None)
    @given(windows, epsilons, eh_rounds)
    def test_eh_ingest_and_organic_agree(self, window, eps, rounds):
        """The bulk ``ingest`` entry vs organic advance/add replay:
        bit-identical engines with Python-int counts."""
        items, end = _rounds_to_items(rounds)
        bulk = ExponentialHistogram(window, eps)
        bulk.ingest(items, until=end)
        organic = ExponentialHistogram(window, eps)
        for gap, batch in rounds:
            organic.advance(gap)
            organic.add_batch(batch)
        for hist in (bulk, organic):
            for count in hist.counts:
                assert type(count) is int
        assert eh_state(bulk) == eh_state(organic)

    @settings(max_examples=100, deadline=None)
    @given(wbmh_decays, epsilons, wbmh_rounds, st.booleans())
    def test_wbmh_ingest_and_organic_agree(self, decay, eps, rounds, quantize):
        items, end = _rounds_to_items(rounds)
        bulk = WBMH(decay, eps, quantize=quantize)
        bulk.ingest(items, until=end)
        organic = WBMH(
            type(decay)(**_decay_params(decay)), eps, quantize=quantize
        )
        for gap, batch in rounds:
            organic.advance(gap)
            organic.add_batch(batch)
        assert wbmh_state(bulk) == wbmh_state(organic)

    @settings(max_examples=75, deadline=None)
    @given(epsilons, eh_rounds)
    def test_ceh_ingest_and_organic_agree(self, eps, rounds):
        items, end = _rounds_to_items(rounds)
        bulk = CascadedEH(PolynomialDecay(1.0), eps)
        bulk.ingest(items, until=end)
        organic = CascadedEH(PolynomialDecay(1.0), eps)
        for gap, batch in rounds:
            organic.advance(gap)
            organic.add_batch(batch)
        states = []
        for engine in (bulk, organic):
            est = engine.query()
            states.append(
                (
                    engine.time,
                    engine.histogram.bucket_view(),
                    (est.value, est.lower, est.upper),
                )
            )
        assert states[0] == states[1]
