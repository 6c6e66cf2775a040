"""Histogram buckets (paper section 2.3).

Every histogram in the library (EH, domination-based, WBMH) aggregates items
into buckets. A bucket covers a contiguous time interval: ``start`` and
``end`` are the arrival times of its oldest and newest items, its
*time-width* is ``end - start`` and its *count-width* is the sum of item
values it absorbed. Merging two adjacent buckets produces a bucket with the
earlier start, the later end and the summed count -- exactly the paper's
merge rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import InvalidParameterError

__all__ = ["Bucket"]


@dataclass(slots=True)
class Bucket:
    """One histogram bucket.

    ``level`` counts how many merges produced this bucket (the depth of the
    paper's "summation tree" in section 5); WBMH uses it to pick the
    per-level rounding precision ``beta_i``.
    """

    start: int
    end: int
    count: float
    level: int = 0

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise InvalidParameterError(
                f"bucket end {self.end} precedes start {self.start}"
            )
        if self.count < 0:
            raise InvalidParameterError(f"bucket count must be >= 0, got {self.count}")
        if self.level < 0:
            raise InvalidParameterError(f"bucket level must be >= 0, got {self.level}")

    @property
    def time_width(self) -> int:
        return self.end - self.start

    def age_span(self, now: int) -> tuple[int, int]:
        """(newest age, oldest age) of the bucket's items at time ``now``."""
        if now < self.end:
            raise InvalidParameterError(
                f"current time {now} precedes bucket end {self.end}"
            )
        return now - self.end, now - self.start
