"""Synthetic stream generators.

All generators yield ``(t, value)`` pairs with strictly increasing integer
times and are driven by a seeded :class:`random.Random`, so every benchmark
and test is reproducible. A stream may skip times (no item) and may emit
several items at one time via ``values_per_tick``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.core.errors import InvalidParameterError

if TYPE_CHECKING:
    from repro.core.interfaces import DecayingSum

__all__ = [
    "StreamItem",
    "bernoulli_stream",
    "constant_stream",
    "periodic_stream",
    "bursty_stream",
    "uniform_value_stream",
    "zipf_value_stream",
    "lognormal_value_stream",
    "drive",
    "drive_many",
]


@dataclass(frozen=True, slots=True)
class StreamItem:
    """One stream element: arrival time and value."""

    time: int
    value: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise InvalidParameterError("time must be >= 0")
        if not 0 <= self.value < math.inf:
            raise InvalidParameterError(
                f"value must be finite and >= 0, got {self.value}"
            )


def bernoulli_stream(
    length: int, p: float, *, seed: int = 0
) -> Iterator[StreamItem]:
    """0/1 stream: an item of value 1 at each time with probability ``p``.

    The paper's DCP setting (section 2.1).
    """
    if length < 0:
        raise InvalidParameterError("length must be >= 0")
    if not 0 <= p <= 1:
        raise InvalidParameterError(f"p must be in [0, 1], got {p}")
    rng = random.Random(seed)
    for t in range(length):
        if rng.random() < p:
            yield StreamItem(t, 1.0)


def constant_stream(length: int, value: float = 1.0) -> Iterator[StreamItem]:
    """One item of fixed value at every time step (the section 5 example)."""
    if length < 0:
        raise InvalidParameterError("length must be >= 0")
    for t in range(length):
        yield StreamItem(t, value)


def periodic_stream(
    length: int, period: int, value: float = 1.0
) -> Iterator[StreamItem]:
    """One item every ``period`` ticks (the Lemma 3.1 spaced pattern)."""
    if period < 1:
        raise InvalidParameterError("period must be >= 1")
    for t in range(0, length, period):
        yield StreamItem(t, value)


def bursty_stream(
    length: int,
    *,
    on_mean: int = 20,
    off_mean: int = 80,
    rate_on: float = 0.9,
    seed: int = 0,
) -> Iterator[StreamItem]:
    """On/off bursts: geometric on/off phase lengths, Bernoulli inside ON.

    Models the intermittent data transfers of the ATM application
    (section 1.1) and stresses histogram merging with empty stretches.
    """
    if on_mean < 1 or off_mean < 1:
        raise InvalidParameterError("phase means must be >= 1")
    if not 0 < rate_on <= 1:
        raise InvalidParameterError("rate_on must be in (0, 1]")
    rng = random.Random(seed)
    t = 0
    on = True
    while t < length:
        phase = 1 + rng.expovariate(1.0 / (on_mean if on else off_mean))
        end = min(length, t + int(phase))
        if on:
            for tt in range(t, end):
                if rng.random() < rate_on:
                    yield StreamItem(tt, 1.0)
        t = end
        on = not on


def uniform_value_stream(
    length: int, *, low: float = 0.0, high: float = 10.0, p: float = 1.0,
    seed: int = 0,
) -> Iterator[StreamItem]:
    """Uniform real values in [low, high], present with probability ``p``."""
    if low < 0 or high < low:
        raise InvalidParameterError("need 0 <= low <= high")
    rng = random.Random(seed)
    for t in range(length):
        if rng.random() < p:
            yield StreamItem(t, rng.uniform(low, high))


def zipf_value_stream(
    length: int, *, s: float = 1.2, n_values: int = 1000, seed: int = 0
) -> Iterator[StreamItem]:
    """Zipf-distributed positive integer values (heavy-tailed workloads)."""
    if not s > 1.0:
        raise InvalidParameterError("zipf exponent s must be > 1")
    if n_values < 1:
        raise InvalidParameterError("n_values must be >= 1")
    rng = random.Random(seed)
    weights = [1.0 / (k**s) for k in range(1, n_values + 1)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    for t in range(length):
        u = rng.random()
        lo, hi = 0, len(cdf) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        yield StreamItem(t, float(lo + 1))


def lognormal_value_stream(
    length: int, *, mu: float = 0.0, sigma: float = 1.0, seed: int = 0
) -> Iterator[StreamItem]:
    """Log-normal values (latency-like measurements for the DAP engines)."""
    if sigma <= 0:
        raise InvalidParameterError("sigma must be > 0")
    rng = random.Random(seed)
    for t in range(length):
        yield StreamItem(t, math.exp(rng.gauss(mu, sigma)))


def drive(
    engine: DecayingSum,
    items: Iterable[StreamItem],
    *,
    until: int | None = None,
) -> None:
    """Feed a stream into one engine, advancing its clock to each arrival.

    ``until`` advances the clock past the last item (queries "later on").
    """
    for item in items:
        if item.time < engine.time:
            raise InvalidParameterError(
                f"stream time {item.time} precedes engine clock {engine.time}"
            )
        if item.time > engine.time:
            engine.advance(item.time - engine.time)
        engine.add(item.value)
    if until is not None and until > engine.time:
        engine.advance(until - engine.time)


def drive_many(
    engines: Iterable[DecayingSum],
    items: Iterable[StreamItem],
    *,
    until: int | None = None,
) -> None:
    """Feed the same stream into several engines in lock-step."""
    materialized = list(items)
    for engine in engines:
        drive(engine, materialized, until=until)
