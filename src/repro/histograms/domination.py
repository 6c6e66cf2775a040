"""Domination-based merging histogram for general non-negative values.

Paper section 4.1 characterizes the Exponential Histogram's merge process:
*two consecutive buckets are merged if the combined count of the merged
buckets is dominated by the total count of all more-recent buckets* (with
the domination factor set by the desired accuracy). This module implements
that characterization directly for streams of arbitrary non-negative real
values -- the generalization the paper alludes to for "polynomial values"
and the substrate the decayed L_p sketch (section 7.1) needs, since sketch
coordinates are real-valued.

Invariant. A bucket that spans more than one arrival time was produced by a
merge, and at merge time its combined count was at most ``eps`` times the
total count of strictly newer buckets. Newer items can only expire after the
bucket itself does, so at query time any straddling bucket still accounts
for at most an ``eps`` fraction of the newer mass -- giving the same
``(1 +- eps)`` window guarantees as the classic EH, for real values.

The histogram is :class:`~repro.histograms.soa.BucketColumns`, the one
sliding-window bucket histogram the EH is too (clock, expiry, window
walk, shard merge, restore); this class adds the domination insert and
compaction rule.  The per-arrival compaction sweep is gated by the exact
no-merge pre-check (:func:`~repro.histograms.soa.domination_merge_possible`),
so the common dominated-by-nothing arrival costs one scan instead of a
full list rebuild.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.errors import InvalidParameterError
from repro.core.estimate import Estimate
from repro.histograms.soa import (
    BucketColumns,
    compose_merge_epsilon,
    domination_merge_possible,
)
from repro.storage.model import StorageReport, bits_for_value, float_register_bits

__all__ = [
    "DominationHistogram",
    "compose_merge_epsilon",
    "widen_merged_estimate",
]


def widen_merged_estimate(a: Estimate, b: Estimate) -> Estimate:
    """Sum two certified brackets (the Estimate-widening merge rule).

    The decaying sum of a union stream is the sum of the operands' sums, so
    interval arithmetic gives the certified bracket of the union: endpoints
    add.  This is how shard answers compose *without* touching bucket
    structure -- the keyed store's fallback for engines whose state cannot
    be merged structurally (e.g. randomized-boundary summaries).
    """
    return Estimate(
        value=a.value + b.value,
        lower=a.lower + b.lower,
        upper=a.upper + b.upper,
    )


class DominationHistogram(BucketColumns):
    """Sliding-window sum of non-negative reals with ``(1 +- eps)`` error.

    ``window=None`` disables expiry (infinite-support decay). Merging runs
    as a single newest-to-oldest pass after every ``compact_every`` arrivals
    (amortizing the O(buckets) sweep), and once after every shard merge.
    """

    __slots__ = ("compact_every", "_since_compact")

    def __init__(
        self,
        window: int | None,
        epsilon: float,
        *,
        compact_every: int = 1,
    ) -> None:
        super().__init__(window, epsilon)  # oldest first
        if compact_every < 1:
            raise InvalidParameterError("compact_every must be >= 1")
        self.compact_every = int(compact_every)
        self._since_compact = 0

    def add(self, value: float = 1.0) -> None:  # lintkit: hot
        if not 0 <= value < math.inf:
            raise InvalidParameterError(f"value must be finite and >= 0, got {value}")
        if value == 0:
            return
        total = self._total + value
        if not total < math.inf:  # no bucket may reach inf (see check)
            raise InvalidParameterError(
                f"value must keep the histogram total finite, got {value}"
            )
        ends = self.ends
        if ends and ends[-1] == self._time:
            self.counts[-1] = self.counts[-1] + value
        else:
            self.append(self._time, self._time, value, 0)
        self._total = total
        self._since_compact += 1
        if self._since_compact >= self.compact_every:
            self._compact()
            self._since_compact = 0

    def add_batch(self, values: Sequence[float]) -> None:
        """Sequential adds: domination merging interleaves compaction with
        arrivals, so batching cannot skip the per-item sweeps without
        changing the bucket structure."""
        for value in values:
            self.add(value)

    def check(self) -> None:
        """Refuse buckets no write can produce: every count is finite and
        > 0 (``add`` skips zeros), and the buckets are in end-time order
        (which the expiry and query walks rely on, and ``merge`` keeps).

        Run on restore (:func:`repro.serialize.engine_from_dict`), never
        on the ingest path, whose writes refuse NaN, inf and negative
        values.
        """
        for count in self.counts:
            if not 0 < count < math.inf:
                raise InvalidParameterError(
                    f"domination bucket count must be finite and > 0, "
                    f"got {count}"
                )
        super().check()

    def storage_report(self) -> StorageReport:
        horizon = self.window if self.window is not None else max(1, self._time)
        ts_bits = bits_for_value(horizon)
        n = self.bucket_count()
        max_count = max(self.counts, default=1.0)
        per_count = float_register_bits(max(2.0, max_count), mantissa_bits=24)
        return StorageReport(
            engine="domination",
            buckets=n,
            timestamp_bits=ts_bits * n + ts_bits,
            count_bits=per_count * n,
            register_bits=bits_for_value(max(1, self._time)),
        )

    def _adopted(self, merged: bool) -> None:
        """After a merge, one compaction sweep restores the bucket-count
        bound and the countdown restarts; a restore sets the countdown
        itself."""
        if merged:
            self._compact()
            self._since_compact = 0

    def _compact(self) -> None:
        """One newest-to-oldest merge sweep.

        Maintains ``suffix`` = total count of buckets strictly newer than
        the pair under consideration and merges whenever the pair is
        dominated: ``pair_count <= eps * suffix``.  The exact pre-check
        (:func:`~repro.histograms.soa.domination_merge_possible`) proves
        most sweeps are no-ops before any column is rebuilt.
        """
        counts = self.counts
        n = len(counts)
        if n < 3:
            return
        eps = self.epsilon
        if not domination_merge_possible(counts, eps):
            return
        starts = self.starts
        ends = self.ends
        levels = self.levels
        out_s: list[int] = []  # newest first while building
        out_e: list[int] = []
        out_c: list[float] = []
        out_l: list[int] = []
        suffix = 0.0
        i = n - 1
        cs = starts[i]
        ce = ends[i]
        cc = counts[i]
        cl = levels[i]
        i -= 1
        while i >= 0:
            oc = counts[i]
            if oc + cc <= eps * suffix:
                # Union span: post-merge lists can hold overlapping buckets,
                # where the older row (earlier end) may start *after* the
                # current one; min() keeps the bracket sound and is
                # bit-identical for the classic disjoint case.
                osv = starts[i]
                if osv < cs:
                    cs = osv
                cc = oc + cc
                ol = levels[i]
                cl = (ol if ol > cl else cl) + 1
            else:
                out_s.append(cs)
                out_e.append(ce)
                out_c.append(cc)
                out_l.append(cl)
                suffix += cc
                cs = starts[i]
                ce = ends[i]
                cc = counts[i]
                cl = levels[i]
            i -= 1
        out_s.append(cs)
        out_e.append(ce)
        out_c.append(cc)
        out_l.append(cl)
        out_s.reverse()
        out_e.reverse()
        out_c.reverse()
        out_l.reverse()
        self.replace(out_s, out_e, out_c, out_l)
