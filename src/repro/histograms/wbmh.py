"""Weight-Based Merging Histogram (paper section 5, Lemma 5.1).

WBMH aggregates items into buckets whose *time boundaries are independent of
the stream*: the age axis is cut into regions where the decay weight varies
by at most ``1 + eps_region`` (:class:`~repro.histograms.boundaries.RegionSchedule`),
the live bucket is sealed every ``width(region 0)`` ticks (empty intervals
are sealed as zero-count buckets so the lattice stays deterministic), and
two adjacent sealed buckets merge as soon as their combined age span fits
inside one region. For ratio-nonincreasing decay functions (the paper's
applicability condition) items merged together stay within the weight ratio
forever, so each bucket needs only one number: its count.

Counts are stored *approximately* -- quantized on every merge at tree depth
``i`` to relative precision ``beta_i ~ eps_count / i**2``
(:class:`~repro.counters.approx_float.LevelQuantizer`) or, when the horizon
is known, to the flat ``beta = eps/log N``
(:class:`~repro.counters.approx_float.FixedQuantizer`). Together with the
``O(log_{1+eps} D(g))`` bucket bound this realizes Lemma 5.1's
``O(log D(g) * log log N)`` bits: ``O(log N log log N)`` for polynomial
decay, versus the cascaded EH's ``O(log^2 N)``.

Merge scheduling
----------------
Two strategies with identical merge *criteria*:

* ``"scan"`` (paper-faithful reference): every tick, sweep adjacent pairs
  left-to-right and merge any pair whose joint age span fits a region,
  repeating until stable. O(buckets) per tick.
* ``"scheduled"`` (default): a pair's merge window for region ``[s, e]`` is
  the exact time interval ``[newer.end + s, older.start + e]`` -- a pure
  function of the pair and the schedule -- so each pair's earliest merge
  time is computed once and kept in a heap. Each entry carries its left
  node's version: pushing a pair again retires its older entries, which
  are dropped on pop without a fit test. Per tick the histogram does
  O(1) amortized work (pop-check-merge), which is what makes
  million-tick streams practical.

The two strategies can differ only in the rare tick where several merges
fire simultaneously (ordering); both always satisfy the region-containment
invariant and the accuracy guarantee, and they agree exactly on the
paper's section 5 trace.

Accuracy budget: the overall target ``epsilon`` is split between the region
ratio (weight spread inside a bucket) and the count quantization so the
certified bracket width stays within ``(1 + epsilon)``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Iterable, Iterator, Literal, Sequence

from repro.core.batching import TimedValue, advance_engine_to, ingest_trace
from repro.core.decay import DecayFunction
from repro.core.errors import (
    InvalidParameterError,
    NotApplicableError,
    TimeOrderError,
)
from repro.core.estimate import Estimate
from repro.core.merging import (
    align_merge_clocks,
    require_merge_operand,
    require_same_decay,
)
from repro.counters.approx_float import FixedQuantizer, LevelQuantizer
from repro.histograms.boundaries import RegionSchedule
from repro.histograms.buckets import Bucket
from repro.histograms.soa import wbmh_bulk_ingest
from repro.storage.model import StorageReport, bits_for_value

__all__ = ["WBMH"]

_NEVER = 1 << 62

#: Version of a retired node: heap entries carry versions >= 1.
_RETIRED = -1


class _Node:
    """Doubly-linked bucket node (O(1) merges for the scheduler).

    ``ver`` counts the merge-heap entries pushed for the pair this node
    starts; only the entry carrying the current count may act.  A node
    leaving the list (merged, expired, or replaced by ``_rebuild``) is
    *retired*: its links are cleared, so no ``prev``/``next`` cycle is
    left for the cyclic GC and reference counting frees it once its last
    heap entry pops.  A merged or expired node also takes the version
    ``_RETIRED``, which no entry carries (``_rebuild`` clears the heap).
    """

    __slots__ = ("bucket", "prev", "next", "seq", "ver")

    def __init__(self, bucket: Bucket, seq: int) -> None:
        self.bucket = bucket
        self.prev: _Node | None = None
        self.next: _Node | None = None
        self.seq = seq
        self.ver = 0


class WBMH:
    """Decaying sum for ratio-nonincreasing decay (POLYD and slower).

    Parameters
    ----------
    decay:
        The decay function. Must satisfy ``g(x)/g(x+1)`` non-increasing
        (checked numerically up to ``check_horizon``) unless
        ``strict=False``, in which case the certified bracket remains valid
        but may widen beyond ``epsilon``.
    epsilon:
        Overall relative-accuracy target in (0, 1). Ignored when ``ratio``
        is given explicitly (used by the paper-trace tests, which need the
        example's ratio of 5).
    quantize:
        Store bucket counts approximately (the Lemma 5.1 configuration).
        With ``quantize=False`` counts are exact floats and only the region
        ratio contributes to the bracket.
    horizon:
        When given, use the paper's known-N rounding (``beta = eps/log N``
        at every merge level, ``log(1/eps) + log log N`` mantissa bits);
        otherwise the horizon-oblivious ``beta_i ~ eps/i**2`` schedule.
    merge_strategy:
        ``"scheduled"`` (default, event-driven) or ``"scan"`` (the paper's
        every-tick sweep); see the module docstring.
    """

    def __init__(
        self,
        decay: DecayFunction,
        epsilon: float = 0.1,
        *,
        ratio: float | None = None,
        quantize: bool = True,
        horizon: int | None = None,
        strict: bool = True,
        check_horizon: int = 4096,
        merge_strategy: Literal["scheduled", "scan"] = "scheduled",
        schedule: RegionSchedule | None = None,
    ) -> None:
        if ratio is None:
            if not 0 < epsilon < 1:
                raise InvalidParameterError(
                    f"epsilon must be in (0, 1), got {epsilon}"
                )
            # The bracket width compounds the region spread (1 + eps_r) with
            # the count drift (1 + eps_c). Spread is the expensive term (it
            # sets the region count, hence the bucket count), so it gets
            # most of the budget; eps_c takes the exact remainder so that
            # (1 + eps_r)(1 + eps_c) = 1 + eps.
            eps_r = 0.8 * epsilon
            ratio = 1.0 + eps_r
            count_eps = (epsilon - eps_r) / (1.0 + eps_r)
        else:
            if not ratio > 1.0:
                raise InvalidParameterError(f"ratio must be > 1, got {ratio}")
            count_eps = min(0.5, (ratio - 1.0) / 2.0)
        if merge_strategy not in ("scheduled", "scan"):
            raise InvalidParameterError(
                f"unknown merge_strategy {merge_strategy!r}"
            )
        if strict and not decay.is_ratio_nonincreasing(check_horizon):
            raise NotApplicableError(
                f"{decay.describe()} violates the WBMH ratio condition; "
                "use CascadedEH, or pass strict=False to accept wider brackets"
            )
        self._decay = decay
        self.epsilon = float(epsilon)
        self.merge_strategy = merge_strategy
        if schedule is not None:
            # A fleet of streams over the same decay shares one schedule
            # (its boundaries are stream-independent); the caller must pass
            # a schedule built for the same decay and ratio.
            if schedule.ratio != ratio or schedule.decay is not decay:
                raise InvalidParameterError(
                    "shared schedule must match the decay function and ratio"
                )
            self.schedule = schedule
        else:
            self.schedule = RegionSchedule(decay, ratio)
        if not quantize:
            self._quantizer = None
        elif horizon is not None:
            self._quantizer = FixedQuantizer(count_eps, horizon)
        else:
            self._quantizer = LevelQuantizer(count_eps)
        self._seal_width = self.schedule.first_width
        # Support is consulted on every expiry check; decay implementations
        # may compute it, so pin the answer once (decay functions are
        # immutable by contract).
        self._support = decay.support()
        self._time = 0
        self._head: _Node | None = None  # oldest sealed bucket
        self._tail: _Node | None = None  # newest sealed bucket
        self._n_sealed = 0
        self._live: Bucket | None = None
        self._seq = itertools.count()
        # Heap of (fire_time, seq, version, left_node); an entry whose
        # version is not its node's current one is dropped on pop.
        self._merge_heap: list[tuple[int, int, int, _Node]] = []
        self._items = 0
        self._max_level = 0

    # ------------------------------------------------------------------ API

    @property
    def time(self) -> int:
        return self._time

    @property
    def decay(self) -> DecayFunction:
        return self._decay

    @property
    def seal_width(self) -> int:
        """Ticks between bucket seals (width of region 0)."""
        return self._seal_width

    def add(self, value: float = 1.0) -> None:
        if not 0 <= value < math.inf:
            raise InvalidParameterError(
                f"value must be finite and >= 0, got {value}"
            )
        if value == 0:
            return
        start, end = self._live_interval()
        if self._live is None:
            self._live = Bucket(start, end, value)
        else:
            self._live = Bucket(start, end, self._live.count + value)
        self._items += 1

    def add_batch(self, values: Sequence[float]) -> None:  # lintkit: hot
        """Fold a batch into the live bucket: one bucket write per batch,
        bit-identical to sequential ``add`` calls (left-to-right sum,
        zeros skipped).

        Single fused pass: validation and the fold share one loop over a
        local accumulator, the live interval is computed exactly once per
        batch, and the live bucket is only written after the whole batch
        has been checked (nothing mutates on a mid-batch rejection).
        """
        count = 0.0
        have = False
        nonzero = 0
        live = self._live
        inf = math.inf
        for value in values:
            if not 0 <= value < inf:
                raise InvalidParameterError(
                    f"value must be finite and >= 0, got {value}"
                )
            if value == 0:
                continue
            if not have:
                count = live.count + value if live is not None else value
                have = True
            else:
                count += value
            nonzero += 1
        if not have:
            return
        start, end = self._live_interval()
        self._live = Bucket(start, end, count)
        self._items += nonzero

    def advance_to(self, when: int) -> None:
        """Advance the clock to the absolute time ``when >= time``."""
        advance_engine_to(self, when)

    def ingest(
        self, items: Iterable[TimedValue], *, until: int | None = None
    ) -> None:
        """Consume a time-sorted trace through the batch path.

        A *fresh* scheduled-strategy histogram over an infinite-support
        decay builds its whole bucket lattice in closed form
        (:func:`repro.histograms.soa.wbmh_bulk_ingest`); anything else --
        or any trace/schedule the kernel's self-checks decline -- replays
        through the organic :func:`~repro.core.batching.ingest_trace`.
        Both paths are bit-identical, ``until`` handling included.
        """
        seq = items if isinstance(items, Sequence) else list(items)
        if wbmh_bulk_ingest(self, seq):
            if until is not None:
                advance_engine_to(self, until)
            return
        ingest_trace(self, seq, until=until)

    def advance(self, steps: int = 1) -> None:
        if steps < 0:
            raise InvalidParameterError(f"steps must be >= 0, got {steps}")
        if self.merge_strategy == "scan":
            # Paper-faithful reference: one sweep per tick.
            for _ in range(steps):
                prev_interval = self._live_interval()
                self._time += 1
                if self._live_interval() != prev_interval:
                    self._seal()
                self._merge_scan()
                self._expire()
            return
        # Event-driven fast path for the scheduled strategy. Between
        # events, a tick does nothing observable: no seal (the lattice
        # boundary is every ``seal_width`` ticks), no merge (the heap top
        # is the earliest possible fire time, and merges only push fire
        # times at or after the current clock), and no expiry (the head's
        # expiry tick is ``head.end + support + 1``, and merges only grow
        # ``head.end``). So the clock can jump straight to the next event,
        # bit-identical to the per-tick loop. Stale heap entries with fire
        # times at or before the clock (rescheduled merges, ``absorb``)
        # clamp the jump to one tick, exactly when the per-tick loop would
        # service them.
        target = self._time + steps
        w = self._seal_width
        heap = self._merge_heap
        sup = self._support
        t = self._time
        while t < target:
            nxt = target
            boundary = (t // w + 1) * w
            if boundary < nxt:
                nxt = boundary
            if heap and heap[0][0] < nxt:
                nxt = heap[0][0]
            if sup is not None:
                head = self._head
                if head is not None:
                    expiry = head.bucket.end + sup + 1
                    if expiry < nxt:
                        nxt = expiry
            if nxt <= t:
                nxt = t + 1
            self._time = t = nxt
            if not t % w:
                self._seal()
            if heap and heap[0][0] <= t:
                self._merge_scheduled()
            head = self._head
            if sup is not None and head is not None and t - head.bucket.end > sup:
                self._expire()

    def query(self) -> Estimate:
        """Certified-bracket estimate of ``S_g(T)``.

        Every item in a bucket spanning times ``[start, end]`` has age in
        ``[T - end, T - start]``; stored counts under-estimate true counts
        by at most the level's drift factor. The bracket combines both.
        """
        lower = 0.0
        upper = 0.0
        for b in self._iter_buckets():
            if b.count == 0.0:
                continue
            newest_age = self._time - b.end if self._time >= b.end else 0
            oldest_age = self._time - b.start
            drift = (
                self._quantizer.drift_factor(b.level)
                if self._quantizer is not None and b.level > 0
                else 1.0
            )
            lower += b.count * self._decay.weight(oldest_age)
            upper += b.count * drift * self._decay.weight(newest_age)
        return Estimate(value=0.5 * (lower + upper), lower=lower, upper=upper)

    def query_decay(self, other: DecayFunction) -> Estimate:
        """Certified bracket for a *different* decay function.

        Bucket intervals bound every item's age regardless of which decay
        built the lattice, so any non-increasing ``other`` gets a valid
        bracket ``[sum c*g'(oldest), sum c*drift*g'(newest)]``. The width
        is only guaranteed to be within ``epsilon`` when ``other`` varies
        no faster across each region than the histogram's own decay; for
        faster-varying functions the bracket is honest but wide.
        """
        lower = 0.0
        upper = 0.0
        for b in self._iter_buckets():
            if b.count == 0.0:
                continue
            newest_age = self._time - b.end if self._time >= b.end else 0
            oldest_age = self._time - b.start
            drift = (
                self._quantizer.drift_factor(b.level)
                if self._quantizer is not None and b.level > 0
                else 1.0
            )
            lower += b.count * other.weight(oldest_age)
            upper += b.count * drift * other.weight(newest_age)
        return Estimate(value=0.5 * (lower + upper), lower=lower, upper=upper)

    def bucket_view(self) -> list[Bucket]:
        """Snapshot of all buckets (sealed then live), oldest first."""
        return list(self._iter_buckets())

    def bucket_count(self) -> int:
        return self._n_sealed + (1 if self._live is not None else 0)

    def bucket_arrival_sets(self) -> list[tuple[int, int]]:
        """(start, end) time intervals, newest first -- for the paper-trace
        fidelity tests that compare against the section 5 example."""
        spans = [(b.start, b.end) for b in self._iter_buckets()]
        spans.reverse()
        return spans

    def merge(self, other: "WBMH") -> None:
        """Clock-aligned :meth:`absorb`: the younger operand advances first.

        The sealing lattice is a function of (decay, ratio, clock) alone --
        never of the stream -- so once the younger operand's clock catches
        up (sealing and merging exactly as live ticks would), the two
        lattices coincide and the strict equal-clock ``absorb`` applies.
        Costs at most one extra quantization level per bucket, which the
        level-indexed drift factors already price into the bracket.
        """
        require_merge_operand(self, other)
        require_same_decay(self._decay, other._decay)
        align_merge_clocks(self, other)
        self.absorb(other)

    def absorb(self, other: "WBMH") -> None:
        """Merge another WBMH over the same configuration into this one.

        This is the distributed-streams payoff of stream-*independent*
        boundaries (paper section 2.3/5): two WBMHs with the same decay,
        ratio and clock have bit-identical bucket lattices regardless of
        their streams, so their union is computed by adding counts
        bucket-by-bucket -- no re-insertion, no extra error beyond one
        quantization level. (Engines with stream-dependent boundaries --
        EH, domination histograms -- cannot be merged this way, which is
        exactly why the paper stresses the distinction.)
        """
        if other is self:
            raise InvalidParameterError("cannot absorb an engine into itself")
        if other._time != self._time:
            raise TimeOrderError(
                f"clock mismatch: {self._time} vs {other._time}"
            )
        if (
            other.schedule.ratio != self.schedule.ratio
            or other._seal_width != self._seal_width
            or type(other._decay) is not type(self._decay)
        ):
            raise InvalidParameterError(
                "absorb requires the same decay function and ratio"
            )
        mine = [b for b in self._iter_buckets_sealed()]
        theirs = [b for b in other._iter_buckets_sealed()]
        if [(b.start, b.end) for b in mine] != [(b.start, b.end) for b in theirs]:
            raise InvalidParameterError(
                "bucket lattices differ -- engines were not driven in "
                "lock-step (check advance calls)"
            )
        merged: list[Bucket] = []
        for a, b in zip(mine, theirs):
            count = a.count + b.count
            level = max(a.level, b.level)
            if count > 0 and (a.count > 0 and b.count > 0):
                level += 1
                if self._quantizer is not None:
                    count = self._quantizer.quantize(count, level)
            self._max_level = max(self._max_level, level)
            merged.append(Bucket(a.start, a.end, count, level))
        self._rebuild(merged)
        if other._live is not None:
            if self._live is None:
                self._live = other._live
            else:
                self._live = Bucket(
                    self._live.start,
                    self._live.end,
                    self._live.count + other._live.count,
                    max(self._live.level, other._live.level),
                )
        self._items += other._items

    def _iter_buckets_sealed(self) -> Iterator[Bucket]:
        node = self._head
        while node is not None:
            yield node.bucket
            node = node.next

    def _rebuild(self, buckets: list[Bucket]) -> None:
        """Replace the sealed list (and reschedule pending merges)."""
        node = self._head
        while node is not None:
            nxt = node.next
            node.prev = node.next = None
            node = nxt
        self._head = None
        self._tail = None
        self._n_sealed = 0
        self._merge_heap.clear()
        for b in buckets:
            node = _Node(b, next(self._seq))
            node.prev = self._tail
            if self._tail is not None:
                self._tail.next = node
            else:
                self._head = node
            self._tail = node
            self._n_sealed += 1
            if self.merge_strategy == "scheduled" and node.prev is not None:
                self._push_pair(node.prev)

    def storage_report(self) -> StorageReport:
        """Lemma 5.1 accounting.

        Per stream: one quantized count per bucket (exponent of log log N
        bits plus the level's mantissa width) and the clock register. The
        region schedule is stream-independent: its boundaries count as
        shared bits (one ``log N``-bit age per computed region start).
        """
        horizon = max(2, self._time)
        exp_bits = max(1, (max(1, horizon).bit_length()).bit_length())
        count_bits = 0
        buckets = self.bucket_view()
        for b in buckets:
            if self._quantizer is not None:
                mant = self._quantizer.mantissa_bits(max(1, b.level))
            else:
                mant = 52
            count_bits += exp_bits + mant + 1
        shared = bits_for_value(horizon) * self.schedule.region_count()
        return StorageReport(
            engine="wbmh",
            buckets=len(buckets),
            timestamp_bits=0,
            count_bits=count_bits,
            register_bits=bits_for_value(max(1, self._time)),
            shared_bits=shared,
            notes={"max_level": float(self._max_level)},
        )

    # ----------------------------------------------------------- structure

    def _iter_buckets(self) -> Iterator[Bucket]:
        node = self._head
        while node is not None:
            yield node.bucket
            node = node.next
        if self._live is not None:
            yield self._live

    def _live_interval(self) -> tuple[int, int]:
        k = self._time // self._seal_width
        return k * self._seal_width, (k + 1) * self._seal_width - 1

    def _previous_interval(self) -> tuple[int, int]:
        k = self._time // self._seal_width - 1
        return k * self._seal_width, (k + 1) * self._seal_width - 1

    def _seal(self) -> None:
        """Close the previous lattice interval, empty or not.

        Sealing an empty interval as a zero-count bucket keeps the bucket
        *lattice* deterministic: merge decisions then depend only on the
        clock and the schedule, never on the stream -- the paper's
        stream-independence property. Zero buckets merge away like any
        other and contribute nothing to queries.
        """
        start, end = self._previous_interval()
        bucket = self._live if self._live is not None else Bucket(start, end, 0.0)
        self._live = None
        node = _Node(bucket, next(self._seq))
        node.prev = self._tail
        if self._tail is not None:
            self._tail.next = node
        else:
            self._head = node
        self._tail = node
        self._n_sealed += 1
        if self.merge_strategy == "scheduled" and node.prev is not None:
            self._push_pair(node.prev)

    def _merge_nodes(self, left: _Node) -> _Node:
        """Merge ``left`` with its right neighbour; returns the new node."""
        right = left.next
        assert right is not None
        older, newer = left.bucket, right.bucket
        merged_count = older.count + newer.count
        level = max(older.level, newer.level) + 1
        if self._quantizer is not None and merged_count > 0:
            merged_count = self._quantizer.quantize(merged_count, level)
        merged = Bucket(older.start, newer.end, merged_count, level)
        self._max_level = max(self._max_level, level)
        node = _Node(merged, next(self._seq))
        node.prev = left.prev
        node.next = right.next
        if left.prev is not None:
            left.prev.next = node
        else:
            self._head = node
        if right.next is not None:
            right.next.prev = node
        else:
            self._tail = node
        left.prev = left.next = right.prev = right.next = None
        left.ver = right.ver = _RETIRED
        self._n_sealed -= 1
        return node

    def _fits_region(self, left: _Node) -> bool:
        right = left.next
        if right is None:
            return False
        young_age = max(0, self._time - right.bucket.end)
        old_age = self._time - left.bucket.start
        return self.schedule.same_region(young_age, old_age)

    # ------------------------------------------------------ scan strategy

    def _merge_scan(self) -> None:
        """The paper's sweep: merge left-to-right until stable."""
        changed = True
        while changed:
            changed = False
            node = self._head
            while node is not None and node.next is not None:
                if self._fits_region(node):
                    node = self._merge_nodes(node)
                    changed = True
                else:
                    node = node.next

    # ------------------------------------------------- scheduled strategy

    def _pair_fire_time(self, left: _Node) -> int:
        """Earliest T' >= now at which the pair could fit one region.

        The merge window for region ``[s, e]`` is
        ``[right.end + s, left.start + e]``: the pair's young age must have
        reached ``s`` while its old age has not passed ``e``. Which region
        first admits the pair depends only on the pair's current young age
        and its endpoint span, so the region walk is delegated to the
        schedule's memoized :meth:`RegionSchedule.merge_region_index`; only
        the translation back to an absolute fire time happens here.
        """
        right = left.next
        if right is None:
            return _NEVER
        young_ref = right.bucket.end
        old_ref = left.bucket.start
        age = self._time - young_ref
        if age < 0:
            age = 0
        idx = self.schedule.merge_region_index(age, young_ref - old_ref)
        if idx is None:
            return _NEVER
        region = self.schedule.region_at(idx)
        assert region is not None  # memo only stores real region indices
        fire = young_ref + region[0]
        return fire if fire > self._time else self._time

    def _push_pair(self, left: _Node) -> None:
        """(Re)schedule the pair ``left`` starts; older entries go stale."""
        left.ver += 1
        t = self._pair_fire_time(left)
        if t < _NEVER:
            heapq.heappush(self._merge_heap, (t, left.seq, left.ver, left))

    def _merge_scheduled(self) -> None:
        heap = self._merge_heap
        while heap and heap[0][0] <= self._time:
            _, _, ver, left = heapq.heappop(heap)
            if ver != left.ver:
                continue  # superseded by a newer entry, or a retired node
            if self._fits_region(left):
                merged = self._merge_nodes(left)
                if merged.prev is not None:
                    self._push_pair(merged.prev)
                self._push_pair(merged)
            else:
                # Guard: a current entry fires at the pair's exact earliest
                # fit, so this does not happen; reschedule if it ever does.
                self._push_pair(left)

    # -------------------------------------------------------------- expiry

    def _expire(self) -> None:
        sup = self._support
        if sup is None:
            return
        while self._head is not None and self._time - self._head.bucket.end > sup:
            dead = self._head
            self._head = dead.next
            dead.next = None
            dead.ver = _RETIRED
            if self._head is not None:
                self._head.prev = None
            else:
                self._tail = None
            self._n_sealed -= 1
