"""Time-decaying variance (paper section 7.3).

The decaying variance

    V_g^2(T) = sum_i g(T - t_i) * (f_i - A_g(T))**2

expands to ``S2 - S1**2 / S0`` with three decaying sums over derived
streams: ``S0 = sum g`` (unit values), ``S1 = sum g * f`` and
``S2 = sum g * f**2``. :class:`DecayedVariance` maintains the three sums
with any decaying-sum engine, giving arbitrary-decay variance -- the
reduction the paper points to (via Cohen & Kaplan 2004) realized in its
simplest moment form. The well-known caveat applies and is surfaced by the
API: when the mean dominates the spread, cancellation inflates the
*relative* error of the variance even though each sum is ``(1 +- eps)``
accurate; :meth:`DecayedVariance.conditioning` reports the inflation
factor ``S2 / (S2 - S1^2/S0)``.

:class:`SlidingWindowVariance` is the Babcock-et-al-style structure for
SLIWIN decay: histogram buckets carry ``(n, mean, M2)`` and merge by the
parallel-axis rule, with domination-based merge control.
"""

from __future__ import annotations

import math

from repro.core.decay import DecayFunction, SlidingWindowDecay
from repro.core.errors import EmptyAggregateError, InvalidParameterError
from repro.core.estimate import Estimate
from repro.storage.model import StorageReport, bits_for_value, float_register_bits

__all__ = ["DecayedVariance", "SlidingWindowVariance"]


class DecayedVariance:
    """Variance under any decay function via three decaying sums."""

    def __init__(
        self,
        decay: DecayFunction,
        epsilon: float = 0.05,
        *,
        engine_factory=None,
    ) -> None:
        factory = engine_factory or (lambda: _real_engine(decay, epsilon))
        self._decay = decay
        self._s0 = factory()
        self._s1 = factory()
        self._s2 = factory()
        self._items = 0

    @property
    def time(self) -> int:
        return self._s0.time

    @property
    def decay(self) -> DecayFunction:
        return self._decay

    def add(self, value: float) -> None:
        if not value >= 0:
            raise InvalidParameterError(
                f"value must be >= 0 for the sum engines, got {value}"
            )
        self._s0.add(1.0)
        self._s1.add(value)
        self._s2.add(value * value)
        self._items += 1

    def advance(self, steps: int = 1) -> None:
        self._s0.advance(steps)
        self._s1.advance(steps)
        self._s2.advance(steps)

    def mean(self) -> float:
        """The decaying average ``A_g(T) = S1 / S0``."""
        s0 = self._s0.query().value
        if s0 <= 0:
            raise EmptyAggregateError("no decayed weight in the stream")
        return self._s1.query().value / s0

    def variance(self) -> float:
        """Point estimate ``S2 - S1**2/S0`` (clamped at 0)."""
        s0 = self._s0.query().value
        if s0 <= 0:
            raise EmptyAggregateError("no decayed weight in the stream")
        s1 = self._s1.query().value
        s2 = self._s2.query().value
        return max(0.0, s2 - s1 * s1 / s0)

    def variance_estimate(self) -> Estimate:
        """Interval-arithmetic bracket from the three component brackets."""
        e0, e1, e2 = self._s0.query(), self._s1.query(), self._s2.query()
        if e0.value <= 0:
            raise EmptyAggregateError("no decayed weight in the stream")
        value = max(0.0, e2.value - e1.value**2 / e0.value)
        lower = max(0.0, e2.lower - (e1.upper**2 / e0.lower if e0.lower > 0 else math.inf))
        upper = e2.upper - (e1.lower**2 / e0.upper if e0.upper > 0 else 0.0)
        upper = max(upper, value)
        lower = min(lower, value)
        return Estimate(value=value, lower=lower, upper=upper)

    def stddev(self) -> float:
        return math.sqrt(self.variance())

    def conditioning(self) -> float:
        """``S2 / V^2`` -- relative-error inflation due to cancellation."""
        v = self.variance()
        if v == 0.0:
            return math.inf
        return self._s2.query().value / v

    def storage_report(self) -> StorageReport:
        rep = self._s0.storage_report().combined(self._s1.storage_report())
        rep = rep.combined(self._s2.storage_report(), engine="variance")
        return rep


def _real_engine(decay: DecayFunction, epsilon: float):
    """A decaying-sum engine accepting real values.

    Values ``f_i`` and ``f_i**2`` are real, so the factory prefers engines
    with real-valued buckets; the EWMA engine already handles reals.
    """
    from repro.core.decay import ExponentialDecay
    from repro.core.ewma import ExponentialSum
    from repro.histograms.ceh import CascadedEH
    from repro.histograms.wbmh import WBMH

    if isinstance(decay, ExponentialDecay):
        return ExponentialSum(decay)
    if decay.is_ratio_nonincreasing(2048):
        return WBMH(decay, epsilon)
    return CascadedEH(decay, epsilon, backend="domination")


class _VarBucket:
    """(n, mean, M2) summary; merged by the parallel-axis theorem."""

    __slots__ = ("start", "end", "n", "mean", "m2")

    def __init__(self, start: int, end: int, n: float, mean: float, m2: float) -> None:
        self.start = start
        self.end = end
        self.n = n
        self.mean = mean
        self.m2 = m2

    def merged(self, newer: "_VarBucket") -> "_VarBucket":
        n = self.n + newer.n
        delta = newer.mean - self.mean
        mean = self.mean + delta * newer.n / n
        m2 = self.m2 + newer.m2 + delta * delta * self.n * newer.n / n
        return _VarBucket(self.start, newer.end, n, mean, m2)


class SlidingWindowVariance:
    """Variance over a sliding window with sublinear buckets.

    Buckets merge when the pair's item count is dominated by an
    ``eps``-fraction of all newer items (the same rule as
    :class:`~repro.histograms.domination.DominationHistogram`). The window
    estimate combines complete buckets exactly and includes the straddling
    bucket at half weight (its mean and spread are assumed uniform over its
    span -- the adaptation of Babcock et al.'s estimator to this codebase,
    see DESIGN.md).
    """

    def __init__(self, window: int, epsilon: float = 0.1) -> None:
        if window < 1:
            raise InvalidParameterError("window must be >= 1")
        if not 0 < epsilon < 1:
            raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon}")
        self._decay = SlidingWindowDecay(window)
        self.window = int(window)
        self.epsilon = float(epsilon)
        self._buckets: list[_VarBucket] = []  # oldest first
        self._time = 0

    @property
    def time(self) -> int:
        return self._time

    @property
    def decay(self) -> DecayFunction:
        return self._decay

    def add(self, value: float) -> None:
        if self._buckets and self._buckets[-1].end == self._time:
            last = self._buckets[-1]
            point = _VarBucket(self._time, self._time, 1.0, float(value), 0.0)
            self._buckets[-1] = last.merged(point)
        else:
            self._buckets.append(
                _VarBucket(self._time, self._time, 1.0, float(value), 0.0)
            )
        self._compact()

    def advance(self, steps: int = 1) -> None:
        if steps < 0:
            raise InvalidParameterError(f"steps must be >= 0, got {steps}")
        self._time += steps
        cutoff = self._time - self.window
        drop = 0
        while drop < len(self._buckets) and self._buckets[drop].end <= cutoff:
            drop += 1
        if drop:
            del self._buckets[:drop]

    def count(self) -> float:
        """Estimated number of in-window items (straddling bucket halved)."""
        return sum(b.n for b in self._window_buckets())

    def variance(self) -> float:
        """Estimated variance of in-window items."""
        return self.variance_window(self.window)

    def variance_window(self, w: int) -> float:
        """Variance over any sub-window ``w <= window``.

        The paper notes (section 7.3, citing Babcock et al.) that the
        structure "can retrieve the w-window variance for all w <= N":
        buckets newer than the cut contribute exactly, the straddling
        bucket at half weight.
        """
        if not 1 <= w <= self.window:
            raise InvalidParameterError(
                f"w must be in [1, {self.window}], got {w}"
            )
        combined: _VarBucket | None = None
        for b in self._window_buckets(w):
            combined = b if combined is None else combined.merged(b)
        if combined is None or combined.n <= 0:
            raise EmptyAggregateError("empty window")
        return combined.m2 / combined.n

    def mean(self) -> float:
        n = 0.0
        s = 0.0
        for b in self._window_buckets():
            n += b.n
            s += b.n * b.mean
        if n <= 0:
            raise EmptyAggregateError("empty window")
        return s / n

    def _window_buckets(self, w: int | None = None):
        """In-window view: a straddling merged bucket contributes half its
        items at its own mean with proportional spread (the adaptation of
        the Babcock et al. estimator; see class docstring)."""
        cutoff = self._time - (self.window if w is None else w)
        for b in self._buckets:
            if b.end <= cutoff:
                continue
            if b.start > cutoff:
                yield b
            elif b.n > 1.0:
                yield _VarBucket(b.start, b.end, b.n / 2.0, b.mean, b.m2 / 2.0)

    def bucket_count(self) -> int:
        return len(self._buckets)

    def storage_report(self) -> StorageReport:
        n = len(self._buckets)
        ts = bits_for_value(self.window)
        max_n = max((b.n for b in self._buckets), default=1.0)
        per = float_register_bits(max(2.0, max_n), mantissa_bits=24)
        return StorageReport(
            engine="sliwin-var",
            buckets=n,
            timestamp_bits=ts * n + ts,
            count_bits=3 * per * n,  # n, mean, M2 per bucket
            register_bits=bits_for_value(max(1, self._time)),
        )

    def _compact(self) -> None:
        buckets = self._buckets
        if len(buckets) < 3:
            return
        eps = self.epsilon
        out: list[_VarBucket] = []
        suffix = 0.0
        i = len(buckets) - 1
        current = buckets[i]
        i -= 1
        while i >= 0:
            older = buckets[i]
            if older.n + current.n <= eps * suffix:
                current = older.merged(current)
            else:
                out.append(current)
                suffix += current.n
                current = older
            i -= 1
        out.append(current)
        out.reverse()
        self._buckets = out
