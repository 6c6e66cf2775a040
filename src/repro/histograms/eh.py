"""Exponential Histograms (Datar, Gionis, Indyk & Motwani; paper section 4.1).

The EH maintains the count of 1's in a sliding window of ``W`` time units
using ``O(eps**-1 log W)`` buckets of ``O(log W)`` bits each -- the
Theta(log^2 W) structure the paper builds Theorem 1 on.

Mechanics (for 0/1 streams):

* every 1 becomes its own size-1 bucket stamped with its arrival time;
* bucket sizes are powers of two; whenever more than ``m + 1`` buckets of
  one size exist (``m = ceil(1/eps)``), the two oldest of that size merge
  into one of double size stamped with the newer timestamp;
* buckets whose newest item left the window are discarded;
* the window count is estimated as (total of all buckets) minus half the
  oldest bucket, which may straddle the window boundary. The merge invariant
  guarantees every size below the largest has at least ``m`` buckets, so the
  straddling uncertainty is at most a ``1/(m+1) <= eps`` fraction.

This implementation additionally tracks the start time of each bucket (only
the oldest bucket's start is ever consulted) so that

* estimates are *exact* until an item actually falls out of the window, and
* every answer carries a certified bracket ``[total - oldest + 1, total]``.

:meth:`ExponentialHistogram.query_window` answers *every* window ``w <= W``
from the same structure (paper Lemma 4.1), which is what the cascaded
construction of Theorem 1 consumes.

The histogram is :class:`~repro.histograms.soa.BucketColumns`, the one
sliding-window bucket histogram, which holds the clock, expiry, window
walk, shard merge and restore; this class adds the power-of-two insert
and cascade, its count check and its storage report.  Counts are ints,
as the writes make them, restored ones included.  :class:`Bucket` rows
are materialized only at the ``bucket_view`` and serialization boundary.
Bulk ingestion routes through the :mod:`repro.histograms.soa` kernel
and falls back to the organic replay whenever the kernel declines.

A keyed store holds one histogram per key, so an instance holds its own
columns, a size census (a list: entry ``j`` counts the buckets of size
``2**j``), its clock and running total, and otherwise only references
to values its keys share (window, epsilon).  :class:`SlidingWindowSum`
*is* the histogram, with a ``decay`` derived from its window.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.core.batching import TimedValue, ingest_trace
from repro.core.decay import DecayFunction, SlidingWindowDecay
from repro.core.errors import InvalidParameterError
from repro.histograms.buckets import Bucket
from repro.histograms.soa import MAX_TOTAL, BucketColumns, eh_bulk_ingest
from repro.storage.model import StorageReport, bits_for_value

__all__ = ["ExponentialHistogram", "SlidingWindowSum"]

#: Batch totals at or below this take the unary append-and-cascade loop;
#: above it the flattened binary-decomposition pass wins (its setup cost
#: amortizes at roughly a dozen units on CPython).
_UNARY_CUTOVER = 16


def _census(counts: Iterable[int]) -> list[int]:
    """Buckets per size: entry ``j`` counts the buckets of size ``2**j``,
    up to the largest size present.  Every count is a power of two: the
    cascades pair equal sizes (on a shard-merged list too), and ``check``
    refuses any other count on restore."""
    per: list[int] = []
    for count in counts:
        j = count.bit_length() - 1
        if j >= len(per):
            per.extend([0] * (j + 1 - len(per)))
        per[j] += 1
    return per


class ExponentialHistogram(BucketColumns):
    """Sliding-window 0/1 counter with ``(1 +- eps)`` guarantees.

    ``window=None`` builds an *unbounded* EH that never expires buckets;
    cascaded histograms over infinite-support decay functions (POLYD under
    Theorem 1) use this mode, with ``N`` equal to elapsed time.
    """

    __slots__ = ("buckets_per_size", "_per_size")

    #: The weight domain: a 0/1-stream structure counts integer arrivals.
    integer_weights = True

    _zero = 0  # counts are ints

    #: A straddling bucket's newest item is inside the window.
    _straddle_floor = 1

    def __init__(self, window: int | None, epsilon: float) -> None:
        super().__init__(window, epsilon)  # oldest first, sizes non-increasing
        # At most m+1 buckets of each size; m = ceil(1/eps) bounds the
        # straddling error by 1/(m+1) <= eps.
        self.buckets_per_size = math.ceil(1.0 / epsilon)
        #: Entry ``j`` counts the buckets of size ``2**j`` (see _census).
        self._per_size: list[int] = []

    def add(self, value: float = 1.0) -> None:  # lintkit: hot
        """Record ``value`` ones at the current time.

        Non-integral or negative values are rejected: the classic EH is a
        0/1-stream structure (the paper's DCP). Use
        :class:`repro.histograms.domination.DominationHistogram` for general
        non-negative values.

        A unit item (``value == 1``, the DCP hot case) takes the O(1)
        append-and-cascade fast path; larger values go through the bulk
        path in ``O(m (log v + log total))`` work -- not the ``O(v)``
        unary loop -- and both produce a bucket list bit-identical to
        ``v`` unary inserts (see :meth:`_bulk_insert`).  A larger value
        that would take the bucket total past the float range is refused.
        """
        if not value >= 0 or value % 1:  # NaN, inf and fractions too
            raise InvalidParameterError(
                f"ExponentialHistogram takes non-negative integer counts, got {value}"
            )
        count = int(value)
        if count == 1:
            # Fast path: one unary insert IS the cascade process -- no need
            # for the flattened simulation's run bookkeeping, nor for the
            # total's bound (see soa.MAX_TOTAL).
            t = self._time
            self.append(t, t, 1, 0)
            self._total += 1
            per = self._per_size
            if per:
                per[0] += 1
                if per[0] > self.buckets_per_size + 1:
                    self._cascade()
            else:
                per.append(1)
        elif count:
            if self._total + count > MAX_TOTAL:
                raise InvalidParameterError(
                    f"value must keep the histogram total finite, got {value}"
                )
            self._bulk_insert(count)

    def add_batch(self, values: Sequence[float]) -> None:  # lintkit: hot
        """Record several counts at the current time.

        Bit-identical to sequential :meth:`add` calls. All items in the
        batch share the current timestamp, so ``v_1`` unary inserts
        followed by ``v_2`` unary inserts is the same process as
        ``v_1 + v_2`` unary inserts: the whole batch collapses to a
        *single* flattened carry-propagation pass over the batch total,
        costing ``O(m (log sum_i v_i + log total))`` bucket work however
        many items the batch holds.  Validation happens up front, so a
        rejected value (or a batch that would take the total past the
        float range) leaves the structure untouched.
        """
        total = 0
        for value in values:
            if not value >= 0 or value % 1:  # NaN, inf and fractions too
                raise InvalidParameterError(
                    f"ExponentialHistogram takes non-negative integer "
                    f"counts, got {value}"
                )
            total += int(value)
        if not total:
            return
        if self._total + total > MAX_TOTAL:
            raise InvalidParameterError(
                "values must keep the histogram total finite"
            )
        if total <= _UNARY_CUTOVER:
            # Small totals: the literal unary process beats the flattened
            # simulation's fixed setup cost (cutover measured empirically;
            # both are bit-identical by construction).
            per = self._per_size
            m1 = self.buckets_per_size + 1
            t = self._time
            for _ in range(total):
                self.append(t, t, 1, 0)
                self._total += 1
                if per:
                    per[0] += 1
                    if per[0] > m1:
                        self._cascade()
                else:
                    per.append(1)
        else:
            self._bulk_insert(total)

    def ingest(
        self, items: Iterable[TimedValue], *, until: int | None = None
    ) -> None:
        """Consume a time-sorted trace with one clock advance per arrival
        time.

        Routes through the structure-of-arrays bulk kernel
        (:func:`repro.histograms.soa.eh_bulk_ingest`) when the trace and
        the current state qualify; otherwise falls back to the organic
        :func:`repro.core.batching.ingest_trace` replay.  Both paths are
        bit-identical, ``until`` handling and error semantics included.
        """
        seq = items if isinstance(items, Sequence) else list(items)
        if eh_bulk_ingest(self, seq):
            if until is not None:
                self.advance_to(until)
            return
        ingest_trace(self, seq, until=until)

    def check(self) -> None:
        """Refuse buckets no write can produce: every count is a positive
        integer power of two, and the buckets are in end-time order (which
        the expiry and query walks rely on, and ``merge`` keeps).

        A histogram that never merged (``effective_epsilon == epsilon``)
        also keeps the run structure of Datar et al.: sizes never grow
        toward the newest bucket, at most ``m + 1`` buckets share a size,
        and each bucket's ``level`` is ``log2`` of its count.  A merge
        interleaves two such lists, so merged histograms are exempt.

        Run on restore (:func:`repro.serialize.engine_from_dict`), never
        on the ingest path, whose inserts and cascades keep all of it.
        """
        for count in self.counts:
            if not 1 <= count < math.inf or count % 1 or (
                int(count) & (int(count) - 1)
            ):
                raise InvalidParameterError(
                    f"EH bucket count must be a power of two, got {count}"
                )
        super().check()
        if self.effective_epsilon != self.epsilon:
            return
        m1 = self.buckets_per_size + 1
        run = 0
        prev = math.inf
        for count, level in zip(self.counts, self.levels):
            if count > prev:
                raise InvalidParameterError(
                    "EH bucket sizes must not grow toward the newest bucket"
                )
            run = run + 1 if count == prev else 1
            if run > m1:
                raise InvalidParameterError(
                    f"EH holds more than {m1} buckets of size {count}"
                )
            if level != int(count).bit_length() - 1:
                raise InvalidParameterError(
                    f"EH bucket of count {count} has level {level}"
                )
            prev = count

    def storage_report(self) -> StorageReport:
        """Per Datar et al.: one timestamp (log N bits) and one size exponent
        (log log N bits) per bucket, plus the clock and the oldest-start
        register."""
        horizon = self.window if self.window is not None else max(1, self._time)
        ts_bits = bits_for_value(horizon)
        n = self.bucket_count()
        max_size = max(self.counts, default=1)
        size_exp_bits = bits_for_value(max(1, max_size.bit_length()))
        return StorageReport(
            engine="eh",
            buckets=n,
            timestamp_bits=ts_bits * n + ts_bits,  # per-bucket end + oldest start
            count_bits=size_exp_bits * n,
            register_bits=bits_for_value(max(1, self._time)),
        )

    def _adopted(self, merged: bool) -> None:
        """Rebuild the size census from the rows a restore or merge put
        in place.  A merge keeps both operands' buckets verbatim, so sizes
        need no longer be non-increasing oldest-first: the cascade then
        pairs by scan (:meth:`_cascade_merged`) and :meth:`_bulk_insert`
        re-sorts when an insert disturbs end order."""
        self._per_size = _census(self.counts)

    def _commit_bulk(
        self,
        starts: list[int],
        ends: list[int],
        counts: list[int],
        levels: list[int],
        t_last: int,
    ) -> None:
        """Adopt bulk-kernel result columns (see :mod:`repro.histograms.soa`).

        The kernel has already applied expiry at ``t_last``; this commit
        replaces the columns, rebuilds the census/total and moves the
        clock, leaving the state the organic replay would have.
        """
        self.replace(starts, ends, counts, levels)
        self._per_size = _census(counts)
        self._total = sum(counts)
        self._time = t_last

    def _bulk_insert(self, count: int) -> None:
        """Insert ``count`` ones at the current time, amortized per bucket.

        Simulates the unary append-and-cascade process *exactly*, but digit
        by digit instead of item by item: at each power-of-two size, the
        arrivals (carries from the next-smaller size) join the back of that
        size's run, and while more than ``m + 1`` buckets of the size exist
        the two oldest merge and carry upward -- the same FIFO pairing the
        unary cascade performs, so the resulting bucket list is
        bit-identical to ``count`` unary inserts.  All ``count`` incoming
        size-1 buckets share the current timestamp, so the (up to
        ``count/2**k``) carries at level ``k`` that involve only new
        buckets are identical and are tracked as a repetition count rather
        than materialized; per level only ``O(m)`` distinct buckets are
        touched, giving ``O(m (log count + log total))`` work in place of
        the seed's ``O(count)`` unary loop.

        Runs on materialized rows: the carry simulation touches
        ``O(m log count)`` buckets however long the list is, so the
        row-object round-trip at the column boundary is not the dominant
        cost here (unlike the per-item paths, which stay on the columns).
        """
        now = self._time
        m = self.buckets_per_size
        buckets = self.bucket_view()
        self._total += count
        idx = len(buckets)  # boundary between unprocessed head and this run
        processed: list[list[Bucket]] = []  # survivors, smallest size first
        explicit: list[Bucket] = []  # carried buckets older than the template
        rep = count  # how many identical copies of ``template`` arrive
        template = Bucket(now, now, 1)
        size = 1
        while explicit or rep:
            run_begin = idx
            while run_begin > 0 and buckets[run_begin - 1].count == size:
                run_begin -= 1
            queue = buckets[run_begin:idx] + explicit  # oldest first
            idx = run_begin
            total_here = len(queue) + rep
            carries = (total_here - m) // 2 if total_here > m + 1 else 0
            explicit = []
            # Pairs drawn entirely from the distinct (oldest) prefix.
            full_pairs = min(carries, len(queue) // 2)
            for pair in range(full_pairs):
                older, newer = queue[2 * pair], queue[2 * pair + 1]
                # Union span (min/max): identical to the classic disjoint
                # merge on fresh histograms, sound on shard-merged ones
                # where adjacent spans may overlap.
                explicit.append(
                    Bucket(
                        start=min(older.start, newer.start),
                        end=max(older.end, newer.end),
                        count=older.count + newer.count,
                        level=max(older.level, newer.level) + 1,
                    )
                )
            consumed = 2 * full_pairs
            used_templates = 0
            remaining = carries - full_pairs
            if remaining and consumed < len(queue):
                # Odd distinct leftover pairs with the oldest template copy.
                older = queue[consumed]
                explicit.append(
                    Bucket(
                        start=older.start,
                        end=template.end,
                        count=older.count + template.count,
                        level=max(older.level, template.level) + 1,
                    )
                )
                consumed += 1
                used_templates = 1
                remaining -= 1
            # The rest merge template with template: identical results,
            # carried as a repetition count for the next level.
            used_templates += 2 * remaining
            survivors = queue[consumed:] + [
                Bucket(now, now, template.count, template.level)
                for _ in range(rep - used_templates)
            ]
            processed.append(survivors)
            rep = remaining
            template = Bucket(now, now, template.count * 2, template.level + 1)
            size *= 2
        out = buckets[:idx] + [
            bucket for run in reversed(processed) for bucket in run
        ]
        # A shard-merged list can violate the size-run ordering this
        # reassembly assumes; restore the end-sort invariant (expiry and
        # the query walks rely on it).  Freshly-built histograms always
        # pass the check, so the classic path stays bit-identical.
        if any(
            (a.end, a.start) > (b.end, b.start) for a, b in zip(out, out[1:])
        ):
            out.sort(key=lambda b: (b.end, b.start))
        self.load_buckets(out)
        # The walk above sees only the runs at the list's end; a
        # shard-merged list holds buckets of those sizes elsewhere too.
        self._per_size = _census(self.counts)

    def _add_ones_unary(self, count: int) -> None:
        """The pre-batching O(count) unary insert (reference only).

        Kept as the ground truth the bulk path is verified against
        (structure-identical buckets) and as the per-unit cascade count
        the bulk path's work gate compares with.
        """
        t = self._time
        per = self._per_size
        for _ in range(count):
            self.append(t, t, 1, 0)
            if per:
                per[0] += 1
            else:
                per.append(1)
            self._total += 1
            self._cascade()

    def _cascade(self) -> None:  # lintkit: hot
        """Merge the two oldest buckets of any size exceeding m+1 copies.

        Bucket sizes are non-increasing from oldest to newest, so buckets of
        one size form a contiguous run; merging walks leftwards through the
        runs, doubling the size each step.  The start of each run is
        derived in O(1) from the cached per-size census: sizes are powers
        of two, so the run of size ``s`` begins ``(#buckets of size <= s)``
        entries before the end of the list -- no scan over the census.
        A shard-merged list has no such runs (:meth:`_cascade_merged`).
        The scan would build the same list here, but store-only ingest of
        64 sliding-window or CEH keys runs about 15% fewer items/s on it
        (EXPERIMENTS "SPARSE-ROWS").
        """
        if self.effective_epsilon != self.epsilon:
            self._cascade_merged()
            return
        m1 = self.buckets_per_size + 1
        per = self._per_size
        starts = self.starts
        ends = self.ends
        counts = self.counts
        levels = self.levels
        j = 0  # the size is 2**j
        below = 0  # census total of sizes strictly smaller than 2**j
        n_here = per[0]
        while n_here > m1:
            a = len(ends) - below - n_here
            b = a + 1
            # Union span (min/max), the classic disjoint merge here.
            # End-sortedness is preserved: the merged end is the pair's
            # larger end, at the pair's position.
            sa = starts[a]
            sb = starts[b]
            ea = ends[a]
            eb = ends[b]
            la = levels[a]
            lb = levels[b]
            starts[a : b + 1] = [sa if sa < sb else sb]
            ends[a : b + 1] = [ea if ea > eb else eb]
            counts[a : b + 1] = [counts[a] + counts[b]]
            levels[a : b + 1] = [(la if la > lb else lb) + 1]
            n_left = n_here - 2
            per[j] = n_left
            below += n_left
            j += 1
            if j < len(per):
                n_here = per[j] + 1
                per[j] = n_here
            else:
                per.append(1)
                n_here = 1

    def _cascade_merged(self) -> None:
        """:meth:`_cascade` on a shard-merged list, whose buckets of one
        size need not be contiguous: for each overflowing size a scan finds
        the two oldest buckets of that size, and their union takes the
        younger one's place.  Its end is the pair's larger, so end order
        holds, and every count stays a power of two."""
        m1 = self.buckets_per_size + 1
        per = self._per_size
        starts = self.starts
        ends = self.ends
        counts = self.counts
        levels = self.levels
        j = 0
        while j < len(per) and per[j] > m1:
            a = counts.index(1 << j)
            b = counts.index(1 << j, a + 1)
            if starts[a] < starts[b]:
                starts[b] = starts[a]
            counts[b] += counts[a]
            levels[b] = max(levels[a], levels[b]) + 1
            del starts[a], ends[a], counts[a], levels[a]
            per[j] -= 2
            j += 1
            if j < len(per):
                per[j] += 1
            else:
                per.append(1)

    def _expiring(self, n: int) -> None:
        """Take the ``n`` oldest buckets off the census; expiry takes the
        oldest, hence largest, so trim it to the largest size left."""
        per = self._per_size
        counts = self.counts
        for i in range(n):
            per[counts[i].bit_length() - 1] -= 1
        while per and not per[-1]:
            per.pop()


class SlidingWindowSum(ExponentialHistogram):
    """DecayingSum under SLIWIN decay: the EH itself.

    The decaying sum under :class:`SlidingWindowDecay` *is* the window
    count, so this class is the :class:`ExponentialHistogram` with the
    protocol's ``decay``, derived from the window rather than stored: a
    keyed store holds one engine per key, and the decay is the same for
    all of them.  ``merge`` is the EH's, which refuses another type or
    window, so it refuses every other decay.
    """

    __slots__ = ()

    def __init__(self, window: int, epsilon: float) -> None:
        super().__init__(SlidingWindowDecay(window).window, epsilon)

    @property
    def decay(self) -> DecayFunction:
        assert self.window is not None
        return SlidingWindowDecay(self.window)

    @property
    def histogram(self) -> ExponentialHistogram:
        """The underlying EH, which is this engine (kept for storage
        experiments that read a histogram engine's substrate)."""
        return self

    def storage_report(self) -> StorageReport:
        report = super().storage_report()
        report.engine = "sliwin-eh"
        return report
