"""The one sliding-window bucket histogram, and the histograms' bulk kernels.

Paper section 4.1 describes the EH's merge rule as one case of domination
merging, and both histograms keep end-sorted buckets over one window,
expire a head prefix, answer a window newest-first and merge shards by
interleaving buckets.  :class:`BucketColumns` is that histogram, once:
:class:`~repro.histograms.eh.ExponentialHistogram` and
:class:`~repro.histograms.domination.DominationHistogram` (and through them
:class:`~repro.histograms.ceh.CascadedEH`) add only their insert and
compaction rule, count check and storage report.  As in the flattened EH
of Sun & Li (PAPERS.md), the buckets are four parallel columns (starts,
ends, counts, levels) in the histogram's own slots, not
:class:`~repro.histograms.buckets.Bucket` objects (a keyed store holds one
histogram per key).  The columns are plain Python lists: CPython list
indexing beats numpy scalar indexing by 2-3x on the per-item hot paths
(``add``/``advance``).

Each bulk kernel has exactly one implementation, the faster of the
measured candidates: the EH level walk, its closed-form pairs and the
domination no-merge pre-check are pure-Python loops, and the WBMH lattice
fold is a numpy sweep.  numpy is imported inside that kernel only, so a
process that never runs it (a served store) never loads numpy.

Every kernel is *exact*: it either reproduces the engine's item-at-a-time
process bit-for-bit (pinned by ``tests/property/test_property_kernel_identity``
against the organic replay) or declines up front -- each bulk entry point
pre-scans its input purely and returns ``False`` without mutating anything,
letting the caller fall back to the organic
:func:`~repro.core.batching.ingest_trace` replay, so error semantics
(including partial application before a mid-trace validation failure) are
exactly the organic ones.

EH bulk kernel
    A level simulation of the unary append-and-cascade process: per
    power-of-two size, the existing run and the carries from the level
    below form one queue; census pops and window expiries are replayed in
    arrival order (:func:`_eh_level_walk`).  Levels where nothing can
    expire collapse to a closed form -- the pop count and pair slices are
    computed directly (:func:`_eh_closed_pairs`).  Lazy per-level expiry
    is equivalent to the engine's eager head-walk because the global
    bucket list is end-sorted and expiry sets are monotone in the cutoff.

WBMH bulk kernel
    On a fresh standalone engine (its lattice holds just its column) over
    an infinite-support decay with the scheduled merge strategy, the
    bucket lattice is stream-independent and dyadic:
    class-``s`` node ``q`` covers ``[q*2^s*w, (q+1)*2^s*w - 1]`` and is
    created at the constant schedule offset ``s_s`` past its young end.
    The kernel derives created/survivor index ranges per class in closed
    form, folds counts layer by layer in float64 (``frexp``-truncation
    quantization, as ``_merge_nodes`` does), and self-verifies the
    schedule constants -- including a conservative mixed-class-pair safety
    bound -- falling back to the organic replay if any check fails.  The
    float64 fold reproduces ``_merge_nodes`` only where Python arithmetic
    would produce the same floats, so the kernel also declines on a sealed
    integer leaf above ``2**53`` (Python sums it exactly before rounding),
    on any sealed integer leaf without a quantizer (Python keeps the sums
    integers), and on any weight the engine refuses
    (:data:`WBMH_MAX_WEIGHT`).
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import (
    TYPE_CHECKING, Any, ClassVar, Iterable, Iterator, Sequence, TypeVar,
)

from repro.core.batching import EngineBase
from repro.core.errors import InvalidParameterError
from repro.core.estimate import Estimate
from repro.core.merging import align_merge_clocks, require_merge_operand
from repro.histograms.buckets import Bucket

if TYPE_CHECKING:
    from repro.core.batching import TimedValue
    from repro.histograms.eh import ExponentialHistogram
    from repro.histograms.wbmh import WBMH, Lattice

__all__ = [
    "BucketColumns",
    "compose_merge_epsilon",
    "eh_bulk_ingest",
    "wbmh_bulk_ingest",
    "domination_merge_possible",
    "MAX_TOTAL",
    "WBMH_MAX_WEIGHT",
]

#: Bulk EH ingestion expands per-tick totals into unit arrivals; traces
#: whose totals blow past this density fall back to the organic replay,
#: whose binary-decomposition ``_bulk_insert`` handles huge values in
#: logarithmic work.
_EH_EXPANSION_CAP = 1024

#: Integers up to this bound convert to float64 exactly.
_EXACT_INT = 1 << 53

#: The largest bucket total a write or merge may leave: every read
#: converts the total (an int on the EH) to a float.  An EH's unit add is
#: not checked: from here ``float()`` overflows only ``2**970`` units on,
#: at :data:`_FLOAT_LIMIT`, which no stream reaches one unit at a time.
MAX_TOTAL = sys.float_info.max

#: The least int that ``float()`` rounds to ``inf``; a restored total must
#: stay below it.
_FLOAT_LIMIT = 2**1024 - 2**970

#: The largest weight a WBMH takes: ``2**-64`` of the float range, so a
#: count reaches ``inf`` only after about ``2**64`` maximal writes, and a
#: merge's quantizer never sees one.  A bound on one value keeps a keyed
#: WBMH column stateless.
WBMH_MAX_WEIGHT = math.ldexp(sys.float_info.max, -64)

_H = TypeVar("_H", bound="BucketColumns")


def compose_merge_epsilon(eps_a: float, eps_b: float) -> float:
    """Error budget of a merged histogram: straddling masses *add*.

    Each operand certifies that any window answer is off by at most an
    ``eps`` fraction of its own newer mass.  The union structure carries
    both operands' buckets, so a boundary can straddle one (post-compaction,
    several) bucket *per operand*: the merged structure's straddling
    uncertainty is bounded by the sum of the budgets.  Merging K shards
    pairwise therefore costs ``K * eps`` -- the explicit composition rule
    CL008 accounts against.
    """
    if eps_a <= 0 or eps_b <= 0:
        raise InvalidParameterError("epsilon budgets must be positive")
    return eps_a + eps_b


class BucketColumns(EngineBase):
    """The sliding-window bucket histogram, in four parallel columns.

    ``starts``/``ends`` are arrival-time stamps, ``counts`` the bucket
    totals (of the type of the class's ``_zero``: ints for the EH's powers
    of two, floats for domination), and ``levels`` the merge depths.  Rows
    are oldest-first and end-sorted; subclasses index the columns directly
    on their hot paths and materialize :class:`Bucket` rows only at the
    ``bucket_view()`` boundary.  ``window=None`` never expires a bucket
    (infinite-support decay).  It defines no ``__len__``, so an empty
    histogram is still truthy; count rows with ``bucket_count()``.
    """

    __slots__ = ("starts", "ends", "counts", "levels", "window", "epsilon",
                 "effective_epsilon", "_time", "_total")

    #: The zero of the class's count type: the empty total, and where every
    #: sum over the counts starts.
    _zero: ClassVar[float] = 0.0

    #: Items a straddling bucket surely holds inside any window it reaches:
    #: its newest one when items are units (the EH), none for real values.
    _straddle_floor: ClassVar[int] = 0

    def __init__(self, window: int | None, epsilon: float) -> None:
        if window is not None and window < 1:
            raise InvalidParameterError(f"window must be >= 1, got {window}")
        if not 0 < epsilon < 1:
            raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon}")
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.counts: list[Any] = []
        self.levels: list[int] = []
        self.window = window
        self.epsilon = float(epsilon)
        #: Composed error budget: ``epsilon`` until the first shard merge,
        #: then grown by :func:`compose_merge_epsilon` per merge.
        self.effective_epsilon = float(epsilon)
        self._time = 0
        self._total = self._zero  # sum of the counts

    @property
    def time(self) -> int:
        return self._time

    @property
    def total_in_buckets(self) -> float:
        """Sum of all bucket counts (upper bound on any window's sum)."""
        return self._total

    def bucket_count(self) -> int:
        return len(self.ends)

    def append(self, start: int, end: int, count: float, level: int) -> None:  # lintkit: hot
        self.starts.append(start)
        self.ends.append(end)
        self.counts.append(count)
        self.levels.append(level)

    def replace(
        self,
        starts: list[int],
        ends: list[int],
        counts: list[Any],
        levels: list[int],
    ) -> None:
        """Adopt new columns wholesale (bulk-kernel commit, merge)."""
        self.starts = starts
        self.ends = ends
        self.counts = counts
        self.levels = levels

    def load_buckets(self, buckets: Iterable[Bucket]) -> None:
        """Replace the contents from a row-wise bucket list."""
        rows = list(buckets)
        self.replace(
            [b.start for b in rows],
            [b.end for b in rows],
            [b.count for b in rows],
            [b.level for b in rows],
        )

    def bucket_view(self) -> list[Bucket]:
        """Snapshot of live buckets as row objects, oldest first (consumed
        by serialization and the sketches)."""
        return [
            Bucket(s, e, c, lv)
            for s, e, c, lv in zip(self.starts, self.ends, self.counts, self.levels)
        ]

    def advance(self, steps: int = 1) -> None:
        if steps < 0:
            raise InvalidParameterError(f"steps must be >= 0, got {steps}")
        self._time += steps
        # Expiry guard: only walk the rows when the oldest bucket can
        # actually have left the window.
        window = self.window
        if window is not None:
            ends = self.ends
            if ends and ends[0] <= self._time - window:
                self._expire(self._time - window)

    def _expire(self, cutoff: int) -> None:
        """Drop the head rows that ended at or before ``cutoff`` (expiry
        consumes a head prefix), taking their counts off the total oldest
        first."""
        ends = self.ends
        counts = self.counts
        n = len(ends)
        total = self._total
        drop = 0
        while drop < n and ends[drop] <= cutoff:
            total -= counts[drop]
            drop += 1
        self._total = total
        self._expiring(drop)
        del self.starts[:drop]
        del ends[:drop]
        del counts[:drop]
        del self.levels[:drop]

    def _expiring(self, n: int) -> None:
        """Hook: the ``n`` oldest rows are about to expire."""

    def _adopted(self, merged: bool) -> None:
        """Hook: a restore or (``merged``) a merge replaced the rows."""

    def query(self) -> Estimate:
        """Estimate the sum over the full window (ages ``0..W-1``); with no
        window, the exact total."""
        if self.window is None:
            return Estimate.exact(float(self._total))
        return self.query_window(self.window)

    def query_window(self, w: int) -> Estimate:
        """Estimate the sum of items with age ``< w`` (paper Lemma 4.1).

        Newest first; the rows are end-sorted, so the first bucket ending
        at or before the cutoff ends the walk.  A fresh histogram has at
        most one straddler (disjoint spans); a shard-merged one can carry
        one per operand, so every contributing bucket that starts outside
        the window is summed into the slack, each holding at least
        ``_straddle_floor`` items inside it: for one straddler of a unit
        stream, the textbook ``[total - c + 1, total]`` bracket.
        """
        if w < 1:
            raise InvalidParameterError(f"window must be >= 1, got {w}")
        if self.window is not None and w > self.window:
            raise InvalidParameterError(
                f"window {w} exceeds structure window {self.window}"
            )
        cutoff = self._time - w  # items with arrival time > cutoff are inside
        total = straddle = self._zero
        n_straddle = 0
        starts = self.starts
        ends = self.ends
        counts = self.counts
        for i in range(len(ends) - 1, -1, -1):
            if ends[i] <= cutoff:
                break
            total += counts[i]
            if starts[i] <= cutoff:
                straddle += counts[i]
                n_straddle += 1
        if not n_straddle:
            # Every contributing bucket lies inside the window: exact, since
            # expiry drops only buckets with no item inside any w <= W.
            return Estimate.exact(float(total))
        return Estimate(
            value=float(total) - straddle / 2.0,
            lower=float(total - straddle + self._straddle_floor * n_straddle),
            upper=float(total),
        )

    def merge(self: _H, other: _H) -> None:
        """Bucket-interleave merge of another histogram over the same window.

        Clocks align by advancing the younger operand (expiry included);
        the end-sorted columns then merge two-pointer style by ``(end,
        start)``, ties to this histogram, and the error budgets add
        (:func:`compose_merge_epsilon`).  The union keeps both operands'
        buckets verbatim, so every certified bracket stays sound.  Merging
        an empty operand is a bit-identical no-op, budget included; a
        merge that would take the total past the float range is refused
        once the clocks align.
        """
        require_merge_operand(self, other)
        if self.window != other.window:
            raise InvalidParameterError(
                f"cannot merge windows {self.window} and {other.window}"
            )
        align_merge_clocks(self, other)
        if not other.ends:
            return
        total = self._total + other._total
        if not total <= MAX_TOTAL:
            raise InvalidParameterError("merge must keep the total finite")
        n = len(self.ends)
        if n:
            self.effective_epsilon = compose_merge_epsilon(
                self.effective_epsilon, other.effective_epsilon
            )
        else:
            self.effective_epsilon = other.effective_epsilon
        # heapq.merge takes the lesser head of its two inputs each step: the
        # two-pointer walk, with the index putting this histogram's row
        # first on an (end, start) tie.
        mine = zip(self.ends, self.starts, range(n))
        theirs = zip(other.ends, other.starts, range(n, n + len(other.ends)))
        order = [k for _, _, k in heapq.merge(mine, theirs)]
        self.replace(*(
            [both[k] for k in order]
            for both in (self.starts + other.starts, self.ends + other.ends,
                         self.counts + other.counts, self.levels + other.levels)
        ))
        self._total = total
        self._adopted(True)

    def check(self) -> None:
        """Refuse rows out of end-time order, which the expiry and query
        walks rely on and ``merge`` keeps; a subclass checks its counts
        first.  Run on restore, never on the ingest path."""
        ends = self.ends
        if any(a > b for a, b in zip(ends, ends[1:])):
            raise InvalidParameterError("histogram buckets must be in end-time order")

    def _load_buckets(self, buckets: Iterable[Bucket]) -> None:
        """Adopt restored rows (:func:`repro.serialize.engine_from_dict`).

        Refuses what :meth:`check` refuses before any count is read as the
        class's count type, and a total ``float()`` cannot hold; then holds
        the counts as that type and rebuilds the total, oldest first.  The
        caller owns the clock and sets ``effective_epsilon`` first (the
        EH's check reads it).
        """
        self.load_buckets(buckets)
        self.check()
        zero = self._zero
        kind = type(zero)
        counts = self.counts = [kind(c) for c in self.counts]
        total = sum(counts, zero)
        if not total < _FLOAT_LIMIT:
            raise InvalidParameterError(
                "histogram buckets must total within the float range"
            )
        self._total = total
        self._adopted(False)


# --------------------------------------------------------------------- EH


def _eh_prescan(
    hist: "ExponentialHistogram", items: Sequence["TimedValue"]
) -> tuple[list[int], list[int]] | None:
    """Validate the trace and the engine state for the bulk EH kernel.

    Returns ``(ticks, tick_counts)`` -- distinct arrival times with their
    folded unit totals -- or ``None`` when the kernel must decline (any
    input the organic replay would reject mid-stream, a non-canonical
    bucket list after a shard merge, or a pathologically dense expansion).
    Pure: nothing is mutated on either outcome.
    """
    now = hist._time
    ticks: list[int] = []
    tick_counts: list[int] = []
    total_units = 0
    for item in items:
        t = item.time
        v = item.value
        if not isinstance(t, int):
            return None
        if not isinstance(v, (int, float)) or not v >= 0 or v % 1:
            return None
        c = int(v)
        if ticks and t == ticks[-1]:
            tick_counts[-1] += c
        else:
            if t < (ticks[-1] if ticks else now):
                return None
            ticks.append(t)
            tick_counts.append(c)
        total_units += c
    if not ticks:
        return None
    if total_units > 8 * len(ticks) + _EH_EXPANSION_CAP:
        return None
    if hist._total + total_units > MAX_TOTAL:
        return None  # the organic replay refuses the write that passes it
    # Canonical-state checks: sizes (positive ints, by the writes and the
    # restore check) are powers of two, non-increasing oldest-first
    # (violated only after a shard merge), runs at rest never exceed the
    # census cap, and nothing is already past the expiry cutoff.  Any
    # violation routes the whole call to the organic replay.
    counts = hist.counts
    ends = hist.ends
    cap = hist.buckets_per_size + 1
    prev_size = None
    run_len = 0
    for c in counts:
        if c & (c - 1):
            return None
        if prev_size is not None and c > prev_size:
            return None
        run_len = run_len + 1 if c == prev_size else 1
        if run_len > cap:
            return None
        prev_size = c
    for a, b in zip(ends, ends[1:]):
        if a > b:
            return None
    if hist.window is not None and ends and ends[0] <= now - hist.window:
        return None
    return ticks, tick_counts


def _eh_level_walk(  # lintkit: hot
    qS: list[int],
    qE: list[int],
    qC: list[float],
    qL: list[int],
    arrT: list[int],
    n_run: int,
    cap: int,
    window: int,
) -> tuple[int, list[int], tuple[list[int], list[int], list[float], list[int]]]:
    """Replay one EH size level in arrival order with window expiry.

    The queue is the existing run (oldest first) followed by the level's
    carry arrivals; at each arrival's trigger time the arrived prefix is
    expired against the window, the census grows, and a census overflow
    pops exactly the two oldest live elements into a carry for the next
    level -- the same FIFO pairing the engine's per-item cascade performs.
    Returns the consumed-prefix length and the carry columns.
    """
    head = 0
    census = n_run
    cT: list[int] = []
    cS: list[int] = []
    cC: list[float] = []
    cL: list[int] = []
    cE: list[int] = []
    for i in range(len(arrT)):
        t = arrT[i]
        lim = n_run + i
        cut = t - window
        while head < lim and qE[head] <= cut:
            head += 1
            census -= 1
        census += 1
        if census > cap:
            b = head + 1
            sa = qS[head]
            sb = qS[b]
            cS.append(sa if sa < sb else sb)
            ea = qE[head]
            eb = qE[b]
            cE.append(ea if ea > eb else eb)
            cC.append(qC[head] + qC[b])
            la = qL[head]
            lb = qL[b]
            cL.append((la if la > lb else lb) + 1)
            cT.append(t)
            head += 2
            census -= 2
    return head, cT, (cS, cE, cC, cL)


def _eh_closed_pairs(  # lintkit: hot
    qS: list[int],
    qE: list[int],
    qC: list[float],
    qL: list[int],
    arrT: list[int],
    n_run: int,
    cap: int,
) -> tuple[int, list[int], tuple[list[int], list[int], list[float], list[int]]]:
    """Closed-form level processing when nothing at the level can expire.

    With no expiries the census trajectory is deterministic: the first pop
    fires at the ``cap + 1 - n_run``-th arrival and every second arrival
    after it, each consuming the two oldest queue elements.  The pair
    merges collapse to strided slices, and the carry trigger times are a
    stride of the arrival times.  Bit-identical to :func:`_eh_level_walk`
    on the same input by construction.
    """
    k = len(arrT)
    j1 = cap + 1 - n_run
    if k < j1:
        return 0, [], ([], [], [], [])
    pairs = (k - j1) // 2 + 1
    cT = arrT[j1 - 1 :: 2]
    consumed = 2 * pairs
    cC = [qC[2 * p] + qC[2 * p + 1] for p in range(pairs)]
    cS: list[int] = []
    cE: list[int] = []
    cL: list[int] = []
    for p in range(pairs):
        a = 2 * p
        b = a + 1
        sa = qS[a]
        sb = qS[b]
        cS.append(sa if sa < sb else sb)
        ea = qE[a]
        eb = qE[b]
        cE.append(ea if ea > eb else eb)
        la = qL[a]
        lb = qL[b]
        cL.append((la if la > lb else lb) + 1)
    return consumed, cT, (cS, cE, cC, cL)


def eh_bulk_ingest(
    hist: "ExponentialHistogram", items: Sequence["TimedValue"]
) -> bool:
    """Whole-trace bulk ingestion for the EH: returns ``True`` if applied.

    Simulates the unary append-and-cascade process level by level (see the
    module docstring); a ``False`` return means the input or engine state
    disqualified the kernel and *nothing* was mutated -- the caller falls
    back to :func:`~repro.core.batching.ingest_trace`.
    """
    scanned = _eh_prescan(hist, items)
    if scanned is None:
        return False
    ticks, tick_counts = scanned
    window = hist.window
    cap = hist.buckets_per_size + 1
    t_last = ticks[-1]

    # Slice the existing columns into per-size runs (contiguous because
    # sizes are non-increasing oldest-first; verified by the pre-scan).
    counts_col = hist.counts
    runs: dict[int, tuple[list[int], list[int], list[float], list[int]]] = {}
    order: list[int] = []
    n0 = len(counts_col)
    i = 0
    while i < n0:
        size = counts_col[i]
        j = i
        while j < n0 and counts_col[j] == size:
            j += 1
        runs[size] = (
            hist.starts[i:j],
            hist.ends[i:j],
            counts_col[i:j],
            hist.levels[i:j],
        )
        order.append(size)
        i = j

    # Level-1 arrivals: one unit element per item, stamped with its tick
    # (singleton ticks, the common case on dense traces, skip the list).
    arrT: list[int] = []
    append = arrT.append
    for t, c in zip(ticks, tick_counts):
        if c == 1:
            append(t)
        elif c:
            arrT.extend([t] * c)
    arrS: list[int] = arrT
    arrE: list[int] = arrT
    arrC: list[float] = [1] * len(arrT)
    arrL: list[int] = [0] * len(arrT)

    size = 1
    survivors: dict[int, tuple[list[int], list[int], list[float], list[int]]] = {}
    while arrT:
        run = runs.get(size)
        if run is None:
            qS = list(arrS)
            qE = list(arrE)
            qC = list(arrC)
            qL = list(arrL)
            n_run = 0
        else:
            qS = run[0] + arrS
            qE = run[1] + arrE
            qC = run[2] + arrC
            qL = run[3] + arrL
            n_run = len(run[0])
        no_expiry = window is None
        if not no_expiry and qE:
            no_expiry = min(qE) > t_last - window
        if no_expiry:
            consumed, cT, carry = _eh_closed_pairs(
                qS, qE, qC, qL, arrT, n_run, cap
            )
        else:
            assert window is not None
            consumed, cT, carry = _eh_level_walk(
                qS, qE, qC, qL, arrT, n_run, cap, window
            )
        survivors[size] = (
            qS[consumed:],
            qE[consumed:],
            qC[consumed:],
            qL[consumed:],
        )
        arrT = cT
        arrS, arrE, arrC, arrL = carry
        size *= 2

    # Reassemble oldest-first: per-size runs in descending size order
    # (untouched sizes keep their original rows verbatim).
    new_s: list[int] = []
    new_e: list[int] = []
    new_c: list[float] = []
    new_l: list[int] = []
    for s_key in sorted(set(order) | set(survivors), reverse=True):
        run = survivors.get(s_key)
        if run is None:
            run = runs[s_key]
        new_s.extend(run[0])
        new_e.extend(run[1])
        new_c.extend(run[2])
        new_l.extend(run[3])

    # Final expiry at the last arrival's cutoff (lazy per-level expiry
    # above only ran at levels that saw arrivals).
    if window is not None:
        cutoff = t_last - window
        drop = 0
        ne = len(new_e)
        while drop < ne and new_e[drop] <= cutoff:
            drop += 1
        if drop:
            del new_s[:drop]
            del new_e[:drop]
            del new_c[:drop]
            del new_l[:drop]

    # Defensive: the commit requires the end-sort invariant the queries
    # and expiry walks rely on; a violation means a precondition slipped
    # through, so decline rather than corrupt state.
    for a, b in zip(new_e, new_e[1:]):
        if a > b:
            return False

    hist._commit_bulk(new_s, new_e, new_c, new_l, t_last)
    return True


# ------------------------------------------------------------------- WBMH


def _wbmh_class_chain(
    lattice: "Lattice", t_final: int, n_leaves: int
) -> tuple[list[int], list[int]] | None:
    """Derive the per-class schedule constants and created counts.

    For the dyadic lattice (see the module docstring), every class-``s``
    sibling pair is pushed at the same young-end age (1 for leaf pairs,
    ``s_{s-1}`` above), so its fire offset ``s_s`` -- the admitting
    region's start -- is a per-class constant and class-``s`` node ``q``
    is created exactly at ``(q+1)*2^s*w - 1 + s_s``.  Returns
    ``(offsets, created)`` where ``offsets[s]`` is ``s_s`` (index 0 is a
    placeholder) and ``created[s]`` counts class-``s`` nodes born by
    ``t_final``; ``None`` when the schedule breaks any closed-form
    precondition.
    """
    schedule = lattice.schedule
    w = lattice._seal_width
    offsets: list[int] = [0]
    created: list[int] = [n_leaves]
    age = 1
    sigma = 1
    while created[-1] > 0:
        width = (1 << sigma) * w
        off = schedule.merge_fire_offset(age, width - 1)
        if off is None:
            break
        # Fire strictly after push (no clamp) and strictly increasing
        # offsets (parents fire after their children exist).
        if off < age or off <= offsets[-1]:
            return None
        born = (t_final + 1 - off) // width
        if born < 0:
            born = 0
        if born > created[-1] // 2:
            return None
        offsets.append(off)
        created.append(born)
        age = off
        sigma += 1
    return offsets, created


def _wbmh_mixed_pairs_safe(
    lattice: "Lattice", offsets: list[int], top_class: int, t_final: int
) -> bool:
    """Conservative proof that no mixed-class pair ever merges by
    ``t_final``.

    Any merge of an adjacent (class ``c_l`` > class ``c_r``) pair at time
    ``t`` requires the pair to *fit* a region at ``t``, which requires
    ``t >= right_end + fire_offset`` evaluated at the right node's minimal
    age -- and the right node is consumed by its own sibling merge (or the
    stream ends) strictly before that bound when the inequality below
    holds.  Equality is treated as unsafe (same-tick pop order could then
    matter), declining to the organic replay.
    """
    schedule = lattice.schedule
    w = lattice._seal_width
    for c_l in range(1, top_class + 1):
        for c_r in range(c_l):
            span = ((1 << c_l) + (1 << c_r)) * w - 1
            min_age = 1 if c_r == 0 else offsets[c_r]
            off = schedule.merge_fire_offset(min_age, span)
            if off is None:
                continue
            if c_r + 1 < len(offsets):
                if off <= (1 << c_r) * w + offsets[c_r + 1]:
                    return False
            elif off <= t_final:
                # No sibling cascade above c_r exists to consume the right
                # node, so the pair must simply never fire in-stream.
                return False
    return True



def wbmh_bulk_ingest(wbmh: "WBMH", items: Sequence["TimedValue"]) -> bool:
    """Whole-trace bulk ingestion for a *fresh* scheduled-strategy WBMH.

    Builds the stream-independent dyadic bucket lattice in closed form
    (module docstring), folds counts class by class with the engine's own
    quantization, and reconstructs the node chain plus merge heap of the
    engine's one-column lattice through the same ``_rebuild`` path
    serialization uses.  Declines (``False``, nothing mutated) on: a
    non-fresh engine, a lattice with other columns (or a shared one),
    finite decay support (expiry interacts with the lattice), the scan
    strategy, out-of-order input or a weight the engine refuses, a count
    the float64 fold cannot reproduce, or any failed schedule self-check.
    """
    lattice = wbmh.lattice
    if (
        lattice.merge_strategy != "scheduled"
        or lattice.shared
        or len(lattice._live) != 1
        or lattice._support is not None
        or lattice._time != 0
        or lattice._head is not None
        or lattice._live[0]
        or wbmh._items != 0
        or lattice._merge_heap
    ):
        return False
    times: list[int] = []
    vals: list[float] = []
    for item in items:
        t = item.time
        v = item.value
        if not isinstance(t, int) or not isinstance(v, (int, float)):
            return False
        if not 0 <= v <= WBMH_MAX_WEIGHT:  # the organic replay refuses it
            return False
        if t < (times[-1] if times else 0):
            return False
        times.append(t)
        vals.append(v)
    if not times:
        return False
    t_final = times[-1]
    w = lattice._seal_width
    n_leaves = t_final // w
    classes = _wbmh_classes(lattice, t_final)
    if classes is None:
        return False
    created, top_class = classes
    # Imported here, not at module level: no served path runs this
    # kernel, so a served process never loads numpy.
    import numpy as np

    # Leaf counts: fold items into their seal intervals in arrival order
    # (type-preserving: the first value seeds the count exactly as the
    # engine's live bucket does; empty sealed intervals read 0.0).
    leaf: list[float | None] = [None] * n_leaves
    live_count: float | None = None
    nonzero = 0
    for t, v in zip(times, vals):
        if v == 0:
            continue
        nonzero += 1
        k = t // w
        if k < n_leaves:
            prev = leaf[k]
            leaf[k] = v if prev is None else prev + v
        else:
            live_count = v if live_count is None else live_count + v
    leaf_counts: list[float] = [0.0 if x is None else x for x in leaf]

    # ``_merge_nodes`` adds leaves in Python: an integer pair sums exactly
    # and stays an integer until the quantizer rounds it to a float.  The
    # float64 fold agrees only where every integer leaf converts exactly
    # and is quantized at its first merge.  An integer above 2**53 reads
    # at least 2**53 in float64, so one vectorized max clears the common
    # case.
    quantizer = lattice._quantizer
    leaves = np.array(leaf_counts, dtype=np.float64)
    if quantizer is None or (n_leaves and leaves.max() >= _EXACT_INT):
        for x in leaf_counts:
            if not isinstance(x, float) and (quantizer is None or x > _EXACT_INT):
                return False

    # Fold counts class by class, quantizing exactly as _merge_nodes does
    # (no sum of fewer than 2**64 weights reaches inf).
    by_class: list[Any] = [leaves]
    for s in range(1, top_class + 1):
        pairs = 2 * created[s]
        below = by_class[s - 1]
        sums = below[0:pairs:2] + below[1:pairs:2]
        if quantizer is not None:
            scale = float(1 << quantizer.mantissa_bits(s))
            m, e = np.frexp(sums)
            sums = np.ldexp(np.floor(m * scale) / scale, e)
        by_class.append(sums)

    # Survivors per class: nodes not yet consumed by the cascade above.
    # Classes descend oldest-first; within a class, index order is time
    # order.  Class 0 keeps the Python leaf values (integers stay ints).
    nodes: list[tuple[int, int, int, dict[int, float]]] = []
    for s, lo, hi, width in _wbmh_survivors(created, top_class, w):
        survived = leaf_counts[lo:hi] if s == 0 else by_class[s][lo:hi].tolist()
        for q, count in enumerate(survived, lo):
            row = {0: count} if count else {}
            nodes.append((q * width, (q + 1) * width - 1, s, row))

    lattice._time = t_final
    lattice._rebuild(nodes)
    if live_count is not None:
        lattice._set_live(0, live_count)
    wbmh._items = nonzero
    lattice._max_level = top_class
    return True


def _wbmh_classes(
    lattice: "Lattice", t_final: int
) -> tuple[list[int], int] | None:
    """``(created, top_class)`` of a fresh lattice at ``t_final``.

    ``created[s]`` counts the class-``s`` nodes born by ``t_final`` and
    ``top_class`` is the highest class with any (the lattice's
    ``max_level``); ``None`` when a schedule self-check fails.
    """
    chain = _wbmh_class_chain(lattice, t_final, t_final // lattice._seal_width)
    if chain is None:
        return None
    offsets, created = chain
    top_class = 0
    for s in range(len(created) - 1, 0, -1):
        if created[s] > 0:
            top_class = s
            break
    if top_class and not _wbmh_mixed_pairs_safe(
        lattice, offsets, top_class, t_final
    ):
        return None
    return created, top_class


def _wbmh_survivors(
    created: list[int], top_class: int, w: int
) -> Iterator[tuple[int, int, int, int]]:
    """``(class, first, end, width)`` per class of the nodes not yet
    consumed by the cascade above, oldest class first; within a class,
    index order is time order."""
    for s in range(top_class, -1, -1):
        lo = 2 * created[s + 1] if s + 1 < len(created) else 0
        if lo < created[s]:
            yield s, lo, created[s], (1 << s) * w


def wbmh_fresh_nodes(
    lattice: "Lattice", t_final: int
) -> tuple[list[tuple[int, int, int]], int] | None:
    """The nodes ``(start, end, level)`` and ``max_level`` that a fresh
    scheduled lattice over an infinite-support decay holds at ``t_final``,
    in closed form (module docstring); ``None`` where the closed form does
    not apply.  Lets a lattice with no counts jump its clock in
    ``O(log t_final + nodes)`` instead of replaying every seal and merge.
    """
    if lattice.merge_strategy != "scheduled" or lattice._support is not None:
        return None
    classes = _wbmh_classes(lattice, t_final)
    if classes is None:
        return None
    created, top_class = classes
    w = lattice._seal_width
    nodes = [
        (q * width, (q + 1) * width - 1, s)
        for s, lo, hi, width in _wbmh_survivors(created, top_class, w)
        for q in range(lo, hi)
    ]
    return nodes, top_class


# ------------------------------------------------------------- domination


def domination_merge_possible(  # lintkit: hot
    counts: Sequence[float], epsilon: float
) -> bool:
    """Exact pre-check for the domination compaction sweep.

    Until its first merge, the compaction sweep's trajectory is exactly
    the pair/suffix scan below; if no adjacent pair is dominated by
    ``epsilon`` times its strictly-newer suffix sum, the sweep never
    merges and is a guaranteed no-op.  The arithmetic mirrors the sweep
    exactly (same accumulation order, same comparison), so a ``False``
    answer is a proof, not a heuristic.
    """
    suffix = 0.0
    for i in range(len(counts) - 1, 0, -1):
        if counts[i - 1] + counts[i] <= epsilon * suffix:
            return True
        suffix += counts[i]
    return False
