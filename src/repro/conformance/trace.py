"""Immutable traces: the unit of fuzzing, checking, and shrinking.

A :class:`Trace` is a time-sorted sequence of ``(time, value)`` arrivals
plus a ``tail`` of empty ticks appended after the last arrival (queries
"later on" are where expiry and support-boundary bugs live). Values are
non-negative integers carried as floats, the common denominator of every
factory engine (the Exponential Histogram rejects fractional counts by
contract).

Traces are frozen: laws receive a trace and must not mutate it (lintkit
RK007 enforces this statically for the law catalog), and the shrinker
produces *new* smaller traces rather than editing in place. The JSON form
(:meth:`Trace.to_dict` / :meth:`Trace.from_dict`) is what the regression
corpus checks in under ``tests/conformance/corpus/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.core.errors import InvalidParameterError
from repro.streams.generators import StreamItem

__all__ = ["Trace"]


@dataclass(frozen=True, slots=True)
class Trace:
    """A time-sorted arrival sequence with a trailing quiet period."""

    items: tuple[tuple[int, float], ...]
    tail: int = 0

    def __post_init__(self) -> None:
        if self.tail < 0:
            raise InvalidParameterError(f"tail must be >= 0, got {self.tail}")
        previous = -1
        for t, v in self.items:
            if t < 0:
                raise InvalidParameterError(f"trace time must be >= 0, got {t}")
            if t < previous:
                raise InvalidParameterError(
                    f"trace is not time-sorted: {t} after {previous}"
                )
            if not v >= 0 or v % 1:
                raise InvalidParameterError(
                    f"trace values must be non-negative integers, got {v}"
                )
            previous = t

    @classmethod
    def build(cls, items: Iterable[Sequence[float]], tail: int = 0) -> "Trace":
        """Normalize ``[(t, v), ...]`` pairs into a validated trace."""
        return cls(
            items=tuple((int(t), float(v)) for t, v in items),
            tail=int(tail),
        )

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def end_time(self) -> int:
        """The query horizon: last arrival time plus the tail."""
        last = self.items[-1][0] if self.items else 0
        return last + self.tail

    def total_value(self) -> float:
        return sum(v for _, v in self.items)

    def arrival_times(self) -> tuple[int, ...]:
        """Distinct arrival times, ascending (the oracle's checkpoints)."""
        seen: list[int] = []
        for t, _ in self.items:
            if not seen or seen[-1] != t:
                seen.append(t)
        return tuple(seen)

    def stream_items(self) -> list[StreamItem]:
        """The trace as :class:`StreamItem` objects for ``ingest``."""
        return [StreamItem(t, v) for t, v in self.items]

    def shifted(self, delta: int) -> "Trace":
        """The same arrivals ``delta`` ticks later (same tail)."""
        if delta < 0:
            raise InvalidParameterError(f"delta must be >= 0, got {delta}")
        return Trace(
            items=tuple((t + delta, v) for t, v in self.items), tail=self.tail
        )

    def scaled(self, factor: int) -> "Trace":
        """The same arrivals with every value multiplied by ``factor``."""
        if factor < 1:
            raise InvalidParameterError(f"factor must be >= 1, got {factor}")
        return Trace(
            items=tuple((t, v * factor) for t, v in self.items), tail=self.tail
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form used by reports and the regression corpus."""
        return {
            "items": [[t, v] for t, v in self.items],
            "tail": self.tail,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Trace":
        """Inverse of :meth:`to_dict` (validates on construction)."""
        return cls.build(data["items"], tail=data.get("tail", 0))

    def describe(self) -> str:
        return (
            f"Trace(n={self.n_items}, span=[0,{self.end_time}], "
            f"total={self.total_value():g})"
        )
