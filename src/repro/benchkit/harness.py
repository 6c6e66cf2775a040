"""Sweep runners shared by the benchmark suite.

The benchmarks compare engines against ground truth over parameter sweeps
(stream length N, accuracy eps, decay family). This module centralizes the
drive-and-measure loop so each benchmark file only declares its sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.core.decay import DecayFunction
from repro.core.errors import InvalidParameterError, TimeOrderError
from repro.core.exact import ExactDecayingSum
from repro.core.interfaces import DecayingSum
from repro.streams.generators import StreamItem

__all__ = ["AccuracyResult", "measure_accuracy", "growth_exponent"]


@dataclass(slots=True)
class AccuracyResult:
    """Accuracy + footprint of one engine over one stream."""

    engine: str
    queries: int
    max_rel_error: float
    mean_rel_error: float
    bracket_violations: int
    buckets: int
    per_stream_bits: int


def measure_accuracy(
    make_engine: Callable[[], DecayingSum],
    decay: DecayFunction,
    items: Sequence[StreamItem],
    *,
    query_every: int = 37,
    until: int | None = None,
    min_true: float = 1e-9,
) -> AccuracyResult:
    """Drive engine and exact reference together, comparing at query points.

    Queries are issued every ``query_every`` ticks (a prime-ish stride to
    avoid aliasing with bucket boundaries) plus at the final time. Both
    engines are driven through the batch path (one ``add_batch`` per
    distinct arrival time).

    The trace must be time-sorted (validated up front;
    :class:`TimeOrderError` otherwise) and must not extend past the query
    horizon ``until`` -- silently dropping tail items would misreport the
    measured stream.  With zero landed queries (the true sum never exceeded
    ``min_true``) ``mean_rel_error`` is NaN, not 0.0: "no evidence" must
    not read as "perfect accuracy".
    """
    if query_every < 1:
        raise InvalidParameterError("query_every must be >= 1")
    previous = None
    for item in items:
        if previous is not None and item.time < previous:
            raise TimeOrderError(
                f"trace is not time-sorted: {item.time} after {previous}; "
                "sort it or ingest it under a buffered OutOfOrderPolicy"
            )
        previous = item.time
    horizon = until if until is not None else (items[-1].time + 1 if items else 1)
    if items and items[-1].time > horizon:
        raise InvalidParameterError(
            f"trace extends to time {items[-1].time}, past the query "
            f"horizon {horizon}; raise `until` or trim the trace"
        )
    engine = make_engine()
    exact = ExactDecayingSum(decay)

    max_err = 0.0
    sum_err = 0.0
    queries = 0
    violations = 0
    idx = 0
    for t in range(horizon + 1):
        batch: list[float] = []
        while idx < len(items) and items[idx].time == t:
            batch.append(items[idx].value)
            idx += 1
        if batch:
            engine.add_batch(batch)
            exact.add_batch(batch)
        if t % query_every == 0 or t == horizon:
            true = exact.query().value
            if true > min_true:
                est = engine.query()
                err = est.relative_error_vs(true)
                max_err = max(max_err, err)
                sum_err += err
                queries += 1
                if not est.contains(true):
                    violations += 1
        if t < horizon:
            engine.advance(1)
            exact.advance(1)
    report = engine.storage_report()
    return AccuracyResult(
        engine=report.engine,
        queries=queries,
        max_rel_error=max_err,
        mean_rel_error=(sum_err / queries) if queries else math.nan,
        bracket_violations=violations,
        buckets=report.buckets,
        per_stream_bits=report.per_stream_bits,
    )


def growth_exponent(xs: Iterable[float], ys: Iterable[float]) -> float:
    """Least-squares slope of log(y) against log(x).

    Benchmarks use this to classify storage growth: slope ~1 against
    ``log^2 N`` for CEH, ~1 against ``log N log log N`` for WBMH, etc.
    """
    pairs = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pairs) < 2:
        raise InvalidParameterError("need at least two positive points")
    n = len(pairs)
    mx = sum(p[0] for p in pairs) / n
    my = sum(p[1] for p in pairs) / n
    num = sum((x - mx) * (y - my) for x, y in pairs)
    den = sum((x - mx) ** 2 for x, _ in pairs)
    if den == 0:
        raise InvalidParameterError("degenerate x values")
    return num / den
