"""NumPy reference kernels for decayed aggregates.

Closed-form, vectorized ground truth for dense per-tick value arrays:
``values[t]`` is the total value arriving at tick ``t`` (0 for empty
ticks). These kernels serve three purposes:

* independent cross-checks of :class:`~repro.core.exact.ExactDecayingSum`
  (two ground truths beat one);
* fast brute-force baselines for benchmarks on long streams;
* batch analytics over recorded traces without driving an engine tick by
  tick.

All kernels treat index ``len(values) - 1`` as "now" minus nothing: the
query time is ``T = len(values)`` ticks after the first index minus 1...
concretely, the item at index ``t`` has age ``T - t`` where
``T = len(values) - 1 + extra_age``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.batching import TimedValue
from repro.core.decay import DecayFunction, ExponentialDecay
from repro.core.errors import InvalidParameterError

__all__ = [
    "decayed_sum_dense",
    "decayed_sum_trajectory",
    "ewma_scan",
    "trace_to_dense",
    "window_sum_scan",
]


def _validate(values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidParameterError("values must be one-dimensional")
    if arr.size == 0:
        raise InvalidParameterError("values must be non-empty")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise InvalidParameterError("values must be finite and >= 0")
    return arr


def trace_to_dense(
    items: Iterable[TimedValue], *, length: int | None = None
) -> np.ndarray:
    """Dense per-tick totals from a sparse ``(time, value)`` trace.

    Bridges engine traces (as consumed by ``ingest``) to the dense kernels
    below: ``out[t]`` sums the values of every item arriving at tick ``t``.
    ``length`` pads (or bounds) the array so queries can be taken later
    than the last arrival; it must cover the trace's last tick.
    """
    pairs = [(item.time, item.value) for item in items]
    for t, v in pairs:
        if t < 0:
            raise InvalidParameterError(f"time must be >= 0, got {t}")
        if not v >= 0:
            raise InvalidParameterError(f"value must be >= 0, got {v}")
    last = max((t for t, _ in pairs), default=-1)
    n = last + 1 if length is None else length
    if n < last + 1:
        raise InvalidParameterError(
            f"length {n} does not cover the trace's last tick {last}"
        )
    out = np.zeros(max(n, 1))
    for t, v in pairs:
        out[t] += v
    return out


def decayed_sum_dense(
    values, decay: DecayFunction, *, extra_age: int = 0
) -> float:
    """``S_g`` at time ``len(values) - 1 + extra_age`` for a dense stream."""
    arr = _validate(values)
    if extra_age < 0:
        raise InvalidParameterError("extra_age must be >= 0")
    n = arr.size
    ages = np.arange(n - 1, -1, -1) + extra_age
    weights = np.array([decay.weight(int(a)) for a in ages])
    return float(arr @ weights)


def decayed_sum_trajectory(values, decay: DecayFunction) -> np.ndarray:
    """``S_g(t)`` for every prefix: the full decaying-sum trajectory.

    O(n * support) in general; O(n) for exponential decay via the
    recurrence. Use for plotting and for query-time sweeps in tests.
    """
    arr = _validate(values)
    if isinstance(decay, ExponentialDecay):
        return ewma_scan(arr, decay.lam)
    n = arr.size
    sup = decay.support()
    max_age = n - 1 if sup is None else min(n - 1, sup)
    weights = np.array([decay.weight(a) for a in range(max_age + 1)])
    out = np.empty(n)
    for t in range(n):
        lo = max(0, t - max_age)
        seg = arr[lo : t + 1]
        out[t] = float(seg @ weights[: seg.size][::-1])
    return out


def ewma_scan(values, lam: float) -> np.ndarray:
    """EXPD trajectory via the paper's Eq. 1 recurrence, vectorized.

    ``out[t] = sum_{s<=t} values[s] * exp(-lam (t - s))``. Implemented as
    a numerically-stabilized scan: the naive scaled-prefix-sum trick
    ``cumsum(v * e^{lam t}) * e^{-lam t}`` overflows for ``lam * n``
    beyond ~700, so the scan is blocked with per-block renormalization.
    """
    arr = _validate(values)
    if not lam > 0:
        raise InvalidParameterError(f"lambda must be > 0, got {lam}")
    n = arr.size
    # Block size keeping exp(lam * block) comfortably inside float range.
    block = max(1, min(n, int(600.0 / lam)))
    out = np.empty(n)
    carry = 0.0
    for start in range(0, n, block):
        seg = arr[start : start + block]
        m = seg.size
        t_local = np.arange(m)
        up = np.exp(lam * t_local)
        scaled = np.cumsum(seg * up)
        out_seg = scaled * np.exp(-lam * t_local)
        # Add the carried-in decayed history.
        out_seg = out_seg + carry * np.exp(-lam * (t_local + 1))
        out[start : start + m] = out_seg
        carry = out_seg[-1]
    return out


def window_sum_scan(values, window: int) -> np.ndarray:
    """Sliding-window sum trajectory (ages 0..window-1), vectorized."""
    arr = _validate(values)
    if window < 1:
        raise InvalidParameterError(f"window must be >= 1, got {window}")
    csum = np.concatenate([[0.0], np.cumsum(arr)])
    n = arr.size
    hi = csum[1 : n + 1]
    lo = csum[np.maximum(0, np.arange(n) + 1 - window)]
    return hi - lo
