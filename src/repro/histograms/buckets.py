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
from typing import Sequence

from repro.core.errors import InvalidParameterError

__all__ = ["Bucket", "merge_buckets", "interleave_buckets"]


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


def merge_buckets(older: Bucket, newer: Bucket) -> Bucket:
    """Merge two adjacent buckets, older first (paper section 2.3)."""
    if older.end >= newer.start:
        raise InvalidParameterError(
            f"buckets are not in time order: older ends at {older.end}, "
            f"newer starts at {newer.start}"
        )
    return Bucket(
        start=older.start,
        end=newer.end,
        count=older.count + newer.count,
        level=max(older.level, newer.level) + 1,
    )


def interleave_buckets(
    a: Sequence[Bucket], b: Sequence[Bucket]
) -> list[Bucket]:
    """Two-pointer merge of two end-sorted bucket lists.

    The result is sorted by ``(end, start)`` -- the order every histogram's
    expiry and query walks rely on.  Counts and spans are untouched: the
    union structure simply carries both operands' buckets side by side.
    """
    out: list[Bucket] = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        x, y = a[i], b[j]
        if (x.end, x.start) <= (y.end, y.start):
            out.append(x)
            i += 1
        else:
            out.append(y)
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out
