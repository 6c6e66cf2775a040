"""Deliberately broken engines: the kit's own smoke test.

A conformance suite that has never caught a bug proves nothing, so this
module wraps a real factory engine and injects known estimator defects.
The acceptance gate (``tests/conformance/test_mutation_smoke.py``) runs
the suite over these mutants and requires each defect to be (a) detected
and (b) shrunk to a reproducer of at most 10 items.

Wrapper classes deliberately do not use engine-suffixed names (``*Sum``
etc.): lintkit RK003 would otherwise demand they restate the full
protocol surface they merely delegate.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable

from repro.conformance.engines import EngineSpec
from repro.core.batching import EngineBase
from repro.core.decay import DecayFunction
from repro.core.estimate import Estimate
from repro.core.interfaces import DecayingSum

__all__ = ["MUTATIONS", "mutant_spec", "mutant_specs"]


class _Delegating(EngineBase):
    """Protocol-complete pass-through around a real engine.

    ``ingest`` is the inherited replay against *self*, not the inner
    engine: a subclass overriding add_batch must see the batch path,
    exactly as a really-broken engine would.
    """

    def __init__(self, inner: DecayingSum) -> None:
        self._inner = inner

    @property
    def time(self) -> int:
        return self._inner.time

    @property
    def decay(self) -> DecayFunction:
        return self._inner.decay

    def add(self, value: float) -> None:
        self._inner.add(value)

    def add_batch(self, values: Iterable[float]) -> None:
        self._inner.add_batch(values)

    def advance(self, dt: int = 1) -> None:
        self._inner.advance(dt)

    def advance_to(self, t: int) -> None:
        self._inner.advance_to(t)

    def query(self) -> Estimate:
        return self._inner.query()

    def storage_report(self) -> dict[str, int]:
        return self._inner.storage_report()


class _BiasedQuery(_Delegating):
    """Estimator bias: the whole triplet scaled down 30%.

    Models a wrong normalization constant; the certified bracket drifts
    off the true sum, so CL001 must flag it.
    """

    def query(self) -> Estimate:
        est = self._inner.query()
        return Estimate(
            value=0.7 * est.value, lower=0.7 * est.lower, upper=0.7 * est.upper
        )


class _WideBracket(_Delegating):
    """Bound rot: upper bound inflated 3x.

    The true sum stays inside the bracket, so only the CL001 width check
    (epsilon budget) can catch it -- the reason that check exists.
    """

    def query(self) -> Estimate:
        est = self._inner.query()
        return Estimate(
            value=est.value, lower=est.lower, upper=3.0 * est.upper + 3.0
        )


class _DroppedBatchItem(_Delegating):
    """Batch-path defect: ``add_batch`` silently drops its last item.

    The item-at-a-time path stays correct, so CL002 (batch-split
    invariance) is the law that must fire.
    """

    def add_batch(self, values: Iterable[float]) -> None:
        buffered = list(values)
        self._inner.add_batch(buffered[:-1] if buffered else buffered)


MUTATIONS: dict[str, Callable[[DecayingSum], DecayingSum]] = {
    "biased-query": _BiasedQuery,
    "wide-bracket": _WideBracket,
    "dropped-batch-item": _DroppedBatchItem,
}


def mutant_spec(spec: EngineSpec, mutation: str) -> EngineSpec:
    """``spec`` with the named defect injected into every built engine."""
    wrap = MUTATIONS[mutation]
    mutated = spec.with_factory(lambda: wrap(spec.build()))
    return replace(mutated, name=f"{spec.name}+{mutation}")


def mutant_specs(spec: EngineSpec) -> dict[str, EngineSpec]:
    """All registered mutants of one spec, keyed by mutation name."""
    return {name: mutant_spec(spec, name) for name in MUTATIONS}
