"""Conformance cells through the bulk kernels, against the organic replay.

Every histogram cell of the factory matrix -- eh (sliwin), ceh, and wbmh
-- answers ``ingest`` through its one bulk kernel
(:mod:`repro.histograms.soa`) and ``advance``/``add_batch`` through the
organic item-at-a-time process.  This module drives each cell through the
law catalog (CL001-CL006 plus the merge-split law CL008), once with the
trace's values as Python floats and once as numpy ``float64`` scalars,
then pins the kernels to the organic reference: bulk ``ingest`` must
produce the same
serialized state and query triplet as the organic replay, and a snapshot
taken mid-trace must restore into an engine whose continuation stays in
lock-step with the original.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.conformance.engines import make_spec
from repro.conformance.fuzz import trace_for_seed
from repro.conformance.laws import resolve_laws, run_laws
from repro.conformance.trace import Trace
from repro.core.decay import (
    DecayFunction,
    GaussianDecay,
    LinearDecay,
    LogarithmicDecay,
    PolynomialDecay,
    SlidingWindowDecay,
    TableDecay,
)
from repro.core.interfaces import make_decaying_sum
from repro.serialize import engine_from_dict, engine_to_dict

#: CL007 (unsorted-rejection) probes input validation, which happens before
#: any kernel runs; CL009 (permutation) only applies to the forward engine.
LAWS = resolve_laws("CL001,CL002,CL003,CL004,CL005,CL006,CL008")

#: The histogram cells of the factory matrix: every decay family routed to
#: an engine with bucket kernels (eh, wbmh, ceh on both its substrates).
HISTOGRAM_CELLS: dict[str, DecayFunction] = {
    "sliwin": SlidingWindowDecay(64),
    "polyd-wbmh": PolynomialDecay(1.2),
    "logd-wbmh": LogarithmicDecay(),
    "linear-ceh": LinearDecay(96),
    "gauss-ceh": GaussianDecay(40.0),
    "table-ceh": TableDecay([1.0, 0.8, 0.6, 0.4, 0.2], tail=0.1),
}

SEEDS = (3, 11, 27)


def organic_replay(engine, items, until: int) -> None:
    """The organic reference: per distinct arrival time, ``advance`` to it
    and fold its values in one ``add_batch``."""
    for when, group in itertools.groupby(items, key=lambda item: item.time):
        engine.advance(when - engine.time)
        engine.add_batch([item.value for item in group])
    engine.advance(until - engine.time)


def triplet(engine) -> tuple[float, float, float]:
    est = engine.query()
    return (est.value, est.lower, est.upper)


#: The numeric backend a caller's values come from: built-in Python floats,
#: or numpy ``float64`` scalars, as values read out of an array arrive.
VALUE_BACKENDS = {"python": float, "numpy": np.float64}


def with_values_from(trace: Trace, backend: str) -> Trace:
    """The same arrivals, each value converted to ``backend``'s scalar."""
    scalar = VALUE_BACKENDS[backend]
    return Trace(
        items=tuple((t, scalar(v)) for t, v in trace.items), tail=trace.tail
    )


class TestLawsHoldUnderEachBackend:
    """Every law holds whichever numeric backend the values come from.

    numpy scalars are the interesting half: the WBMH kernel folds its
    leaves in float64 and decides by leaf type whether that fold is exact,
    so a ``float64`` leaf must take the same path, and keep the same
    laws, as a Python float.
    """

    @pytest.mark.parametrize("backend", sorted(VALUE_BACKENDS))
    @pytest.mark.parametrize("name", sorted(HISTOGRAM_CELLS), ids=str)
    def test_cells_clean(self, name: str, backend: str) -> None:
        decay = HISTOGRAM_CELLS[name]
        spec = make_spec(name, decay, factory=lambda: make_decaying_sum(decay))
        for seed in SEEDS:
            trace = with_values_from(trace_for_seed(seed), backend)
            violations = run_laws(spec, trace, LAWS)
            assert not violations, "\n".join(
                v.render() for v in violations
            )


class TestBackendsAgreeBitForBit:
    """The two back ends of every histogram write -- the bulk kernel and
    the organic replay -- agree bit for bit."""

    @pytest.mark.parametrize("name", sorted(HISTOGRAM_CELLS), ids=str)
    def test_same_state_and_queries(self, name: str) -> None:
        """Bulk ``ingest`` vs the organic replay: identical snapshots and
        triplets.

        The serialized dict captures the full bucket state (starts, ends,
        counts, levels, clock), so dict equality is the strongest
        statement the kernel makes about the organic process.
        """
        for seed in SEEDS:
            trace = trace_for_seed(seed)
            items = trace.stream_items()
            bulk = make_decaying_sum(HISTOGRAM_CELLS[name])
            bulk.ingest(items, until=trace.end_time)
            organic = make_decaying_sum(HISTOGRAM_CELLS[name])
            organic_replay(organic, items, trace.end_time)
            assert triplet(bulk) == triplet(organic), (name, seed)
            assert engine_to_dict(bulk) == engine_to_dict(organic), (
                name,
                seed,
            )

    @pytest.mark.parametrize("name", sorted(HISTOGRAM_CELLS), ids=str)
    def test_snapshot_restores_mid_trace(self, name: str) -> None:
        """A snapshot taken halfway through a trace restores bit-identically,
        and the restored engine's continuation stays in lock-step with the
        original's, chunk by chunk."""
        for seed in SEEDS:
            trace = trace_for_seed(seed)
            items = trace.stream_items()
            half = len(items) // 2
            origin = make_decaying_sum(HISTOGRAM_CELLS[name])
            origin.ingest(items[:half])
            snapshot = engine_to_dict(origin)
            restored = engine_from_dict(snapshot)
            assert engine_to_dict(restored) == snapshot, (name, seed)
            rest = items[half:]
            step = max(1, len(rest) // 3)
            for lo in range(0, len(rest), step):
                chunk = rest[lo : lo + step]
                origin.ingest(chunk)
                restored.ingest(chunk)
                assert triplet(origin) == triplet(restored), (name, seed, lo)
                assert engine_to_dict(origin) == engine_to_dict(restored)
            origin.advance_to(trace.end_time)
            restored.advance_to(trace.end_time)
            assert triplet(origin) == triplet(restored), (name, seed)
            assert engine_to_dict(origin) == engine_to_dict(restored)
