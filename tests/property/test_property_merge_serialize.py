"""Property tests: distributed merge and checkpoint round-trips.

Two deep invariants:

* ``absorb``: merging WBMHs driven in lock-step equals one WBMH fed the
  summed stream (stream-independent lattices make this exact).
* ``serialize``: dict -> JSON -> restore is the identity on engine
  behaviour, for arbitrary prefixes and arbitrary continuations.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decay import ExponentialDecay, PolynomialDecay
from repro.core.ewma import ExponentialSum
from repro.histograms.ceh import CascadedEH
from repro.histograms.wbmh import WBMH
from repro.serialize import engine_from_dict, engine_to_dict

# (gap, value-for-A, value-for-B) triples.
pair_streams = st.lists(
    st.tuples(st.integers(0, 6), st.floats(0.0, 5.0), st.floats(0.0, 5.0)),
    min_size=1,
    max_size=100,
)

gap_value_streams = st.lists(
    st.tuples(st.integers(0, 6), st.floats(0.0, 5.0)),
    min_size=1,
    max_size=100,
)


class TestAbsorbProperties:
    @settings(max_examples=40, deadline=None)
    @given(pair_streams, st.floats(0.3, 2.5))
    def test_wbmh_absorb_equals_union(self, stream, alpha):
        decay = PolynomialDecay(alpha)
        a = WBMH(decay, 0.2, quantize=False)
        b = WBMH(decay, 0.2, quantize=False)
        union = WBMH(decay, 0.2, quantize=False)
        for gap, va, vb in stream:
            a.advance(gap)
            b.advance(gap)
            union.advance(gap)
            if va:
                a.add(va)
            if vb:
                b.add(vb)
            if va + vb:
                union.add(va + vb)
        a.absorb(b)
        assert a.bucket_arrival_sets() == union.bucket_arrival_sets()
        assert a.query().value == pytest.approx(union.query().value)

    @settings(max_examples=40, deadline=None)
    @given(pair_streams, st.floats(0.01, 1.0))
    def test_ewma_absorb_equals_union(self, stream, lam):
        decay = ExponentialDecay(lam)
        a = ExponentialSum(decay)
        b = ExponentialSum(decay)
        union = ExponentialSum(decay)
        for gap, va, vb in stream:
            for e in (a, b, union):
                e.advance(gap)
            a.add(va)
            b.add(vb)
            union.add(va + vb)
        a.merge(b)
        assert a.query().value == pytest.approx(union.query().value)


class TestSerializeProperties:
    @settings(max_examples=40, deadline=None)
    @given(gap_value_streams, gap_value_streams, st.floats(0.3, 2.5))
    def test_wbmh_roundtrip_continuation(self, prefix, suffix, alpha):
        decay = PolynomialDecay(alpha)
        original = WBMH(decay, 0.2)
        for gap, v in prefix:
            original.advance(gap)
            if v:
                original.add(v)
        restored = engine_from_dict(
            json.loads(json.dumps(engine_to_dict(original)))
        )
        for gap, v in suffix:
            original.advance(gap)
            restored.advance(gap)
            if v:
                original.add(v)
                restored.add(v)
        assert restored.bucket_arrival_sets() == original.bucket_arrival_sets()
        est_o, est_r = original.query(), restored.query()
        assert est_r.value == pytest.approx(est_o.value)
        assert est_r.lower == pytest.approx(est_o.lower)
        assert est_r.upper == pytest.approx(est_o.upper)

    @settings(max_examples=40, deadline=None)
    @given(gap_value_streams, st.floats(0.2, 2.0))
    def test_ceh_roundtrip(self, prefix, alpha):
        decay = PolynomialDecay(alpha)
        original = CascadedEH(decay, 0.15, backend="domination")
        for gap, v in prefix:
            original.advance(gap)
            if v:
                original.add(v)
        restored = engine_from_dict(
            json.loads(json.dumps(engine_to_dict(original)))
        )
        assert restored.query().value == pytest.approx(original.query().value)
        # Continue both with a fixed coda and compare again.
        for e in (original, restored):
            e.add(1.0)
            e.advance(3)
            e.add(2.0)
        assert restored.query().value == pytest.approx(original.query().value)
