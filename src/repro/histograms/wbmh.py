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

Lattice and count columns
-------------------------
Because the boundaries never depend on the stream, WBMH state splits in
two.  A :class:`Lattice` holds what the clock and the schedule decide:
the sealed nodes with their (start, end, level), the merge heap, sealing,
expiry and ``max_level``.  The counts form a sparse matrix with one row
per sealed node and one *column* per stream, plus one live count per
column.  A row holds only its non-zero cells (an absent cell reads
``_ZERO``): a seal builds its row from the columns written since the
last seal, and a merge adds the two rows over the union of their cells
and quantizes each sum at the merged node's level -- the one-stream merge
rule, applied to every column that holds a count.  A :class:`WBMH` is one
column of a lattice: standalone, it owns a private lattice holding that
single column; a keyed store (:mod:`repro.service.keyed`) puts all of its
keys' columns on one shared lattice, so the seals and merges run once per
tick whatever the key count, and cost the non-zero counts they touch.

:meth:`WBMH.absorb` is the one operation whose levels depend on the
stream: a bucket that holds counts from both operands goes one level up.
A column of a shared lattice whose levels would diverge first moves to a
private lattice of its own (copy on write), so the shared levels stay
those of a fresh stream.

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

from repro.core.batching import EngineBase, TimedValue, ingest_trace
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
from repro.histograms.soa import (
    WBMH_MAX_WEIGHT,
    wbmh_bulk_ingest,
    wbmh_fresh_nodes,
)
from repro.storage.model import StorageReport, bits_for_value

__all__ = ["Lattice", "WBMH"]

_NEVER = 1 << 62

#: Version of a retired node: heap entries carry versions >= 1.
_RETIRED = -1

#: The count of an absent cell, and of a column with no live bucket.
_ZERO = 0.0

#: Column of a released engine: no row reaches it, so any further use of
#: the engine fails loudly instead of reading a reused column.
_DETACHED = 1 << 62

#: The refusal of a weight outside the WBMH domain.
_WEIGHT_DOMAIN = (
    f"value must be finite and >= 0 (at most {WBMH_MAX_WEIGHT:.4g}), got {{}}"
)


class _Node:
    """A sealed lattice node: one bucket span, its level and its counts.

    ``row`` maps a column to its count and holds only non-zero counts; a
    column it does not hold reads ``_ZERO``.  ``ver`` counts the
    merge-heap entries pushed for the pair this node starts; only the
    entry carrying the current count may act.  A node leaving the list
    (merged, expired, or replaced by ``_rebuild``) is *retired*: its links
    are cleared, so no ``prev``/``next`` cycle is left for the cyclic GC
    and reference counting frees it once its last heap entry pops.  A
    merged or expired node also takes the version ``_RETIRED``, which no
    entry carries (``_rebuild`` clears the heap).
    """

    __slots__ = ("start", "end", "level", "row", "prev", "next", "seq", "ver")

    def __init__(
        self, start: int, end: int, level: int, row: dict[int, float], seq: int
    ) -> None:
        self.start = start
        self.end = end
        self.level = level
        self.row = row
        self.prev: _Node | None = None
        self.next: _Node | None = None
        self.seq = seq
        self.ver = 0


class Lattice:
    """The stream-independent half of WBMH, and the count matrix on it.

    Holds the clock, the sealed node list, the merge heap, the schedule,
    the quantizer and ``max_level``, plus one count column per stream
    (module docstring).  Streams join through :meth:`member` and leave
    through :meth:`release`; a released column index is reused by the
    next member, so column storage stays bounded by the peak number of
    members.  ``shared`` marks a lattice whose levels must stay those of
    a fresh stream (a keyed store's): a member whose levels would diverge
    moves to a private lattice instead (:meth:`WBMH.absorb`), and members
    cannot advance it on their own.
    """

    __slots__ = (
        "_decay", "epsilon", "schedule", "_quantizer", "merge_strategy",
        "_seal_width", "_support", "_time", "_head", "_tail", "_n_sealed",
        "_seq", "_merge_heap", "_max_level", "_live", "_dirty", "_free",
        "shared",
    )

    def __init__(
        self,
        decay: DecayFunction,
        epsilon: float,
        schedule: RegionSchedule,
        quantizer: LevelQuantizer | FixedQuantizer | None,
        merge_strategy: str,
    ) -> None:
        self._decay = decay
        self.epsilon = epsilon
        self.schedule = schedule
        self._quantizer = quantizer
        self.merge_strategy = merge_strategy
        self._seal_width = schedule.first_width
        # Support is consulted on every expiry check; decay implementations
        # may compute it, so pin the answer once (decay functions are
        # immutable by contract).
        self._support = decay.support()
        self._time = 0
        self._head: _Node | None = None  # oldest sealed node
        self._tail: _Node | None = None  # newest sealed node
        self._n_sealed = 0
        self._seq = itertools.count()
        # Heap of (fire_time, seq, version, left_node); an entry whose
        # version is not its node's current one is dropped on pop.
        self._merge_heap: list[tuple[int, int, int, _Node]] = []
        self._max_level = 0
        #: Live count per column (``_ZERO``: no live bucket).
        self._live: list[float] = []
        #: Columns written since the last seal, which builds its row from
        #: these alone.  A released column may linger here; its live count
        #: then reads zero and the seal skips it.
        self._dirty: list[int] = []
        #: Released column indices, reused by the next member.
        self._free: list[int] = []
        self.shared = False

    # ----------------------------------------------------------- columns

    def member(self) -> "WBMH":
        """A new stream on this lattice: a zero column at the lattice clock."""
        engine = WBMH.__new__(WBMH)
        engine._lat = self
        engine._col = self._join()
        engine._items = 0
        return engine

    def release(self, engine: "WBMH") -> None:
        """``engine``'s column leaves; the engine is unusable afterwards."""
        col = engine._col
        self._live[col] = _ZERO
        node = self._head
        while node is not None:
            node.row.pop(col, None)
            node = node.next
        self._free.append(col)
        engine._col = _DETACHED

    def adopt(self, engine: "WBMH") -> bool:
        """Move a private one-column ``engine`` onto this lattice.

        Succeeds when ``engine``'s lattice has this one's configuration,
        clock, ``max_level`` and node spans and levels -- for a shared
        lattice, when it is the lattice a fresh stream would have.  The
        engine keeps its identity and its counts; its old lattice is
        emptied.  Returns ``False``, changing nothing, otherwise.
        """
        old = engine._lat
        if (
            old is self
            or old.shared
            or len(old._live) != 1
            or old._shape() != self._shape()
        ):
            return False
        col = self._join()
        src = engine._col
        mine, theirs = self._head, old._head
        while mine is not None and theirs is not None:
            count = theirs.row.get(src)
            if count:
                mine.row[col] = count
            mine, theirs = mine.next, theirs.next
        self._set_live(col, old._live[src])
        old._rebuild([])
        engine._lat = self
        engine._col = col
        return True

    def _join(self) -> int:
        if self._free:
            return self._free.pop()  # no row holds it; its live count is zero
        self._live.append(_ZERO)
        return len(self._live) - 1

    def _set_live(self, col: int, count: float) -> None:
        """Set ``col``'s live count, marking the column for the next seal."""
        if count and not self._live[col]:
            self._dirty.append(col)
        self._live[col] = count or _ZERO

    def _shape(self) -> tuple[object, ...]:
        """Everything but the counts: configuration, clock and nodes."""
        q = self._quantizer
        nodes = []
        node = self._head
        while node is not None:
            nodes.append((node.start, node.end, node.level))
            node = node.next
        return (
            type(self._decay), self.epsilon, self.merge_strategy,
            self.schedule.ratio, self._seal_width, self._support,
            None if q is None else (type(q), q.eps, getattr(q, "horizon", 0)),
            self._time, self._max_level, nodes,
        )

    def _fork(self) -> "Lattice":
        """An empty private lattice at this one's clock and ``max_level``,
        with the same configuration and schedule; the caller rebuilds it."""
        twin = Lattice(
            self._decay, self.epsilon, self.schedule, self._quantizer,
            self.merge_strategy,
        )
        twin._time = self._time
        twin._max_level = self._max_level
        return twin

    # ------------------------------------------------------------- clock

    def advance(self, steps: int = 1) -> None:
        """Advance the clock, sealing, merging and expiring every column."""
        if steps < 0:
            raise InvalidParameterError(f"steps must be >= 0, got {steps}")
        if (
            len(self._free) == len(self._live)
            and steps > self._seal_width * (self._n_sealed + 1)
            and self._jump(self._time + steps)
        ):
            return
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
                    expiry = head.end + sup + 1
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
            if sup is not None and head is not None and t - head.end > sup:
                self._expire()

    def _jump(self, when: int) -> bool:
        """Jump a lattice that holds no column in use to ``when``.

        Such a lattice is the one a fresh stream has at its clock (a
        shared lattice never diverges), so it is rebuilt as the fresh
        lattice at ``when`` in closed form (:func:`wbmh_fresh_nodes`),
        the way a snapshot restore rebuilds one.  Taken only for jumps
        longer than the node list, where a replay would cost more.
        Returns ``False``, changing nothing, where the closed form does
        not apply.
        """
        shape = wbmh_fresh_nodes(self, when)
        if shape is None:
            return False
        nodes, self._max_level = shape
        self._time = when
        self._rebuild([(s, e, level, {}) for s, e, level in nodes])
        return True

    # ----------------------------------------------------------- structure

    def _live_interval(self) -> tuple[int, int]:
        k = self._time // self._seal_width
        return k * self._seal_width, (k + 1) * self._seal_width - 1

    def _previous_interval(self) -> tuple[int, int]:
        k = self._time // self._seal_width - 1
        return k * self._seal_width, (k + 1) * self._seal_width - 1

    def _link(self, node: _Node) -> None:
        """Append ``node`` as the newest sealed node and schedule its pair."""
        node.prev = self._tail
        if self._tail is not None:
            self._tail.next = node
        else:
            self._head = node
        self._tail = node
        self._n_sealed += 1
        if self.merge_strategy == "scheduled" and node.prev is not None:
            self._push_pair(node.prev)

    def _seal(self) -> None:
        """Close the previous lattice interval, empty or not.

        Sealing an empty interval as a zero-count bucket keeps the bucket
        *lattice* deterministic: merge decisions then depend only on the
        clock and the schedule, never on the stream -- the paper's
        stream-independence property. Zero buckets merge away like any
        other and contribute nothing to queries.  The non-zero live counts
        of the columns written since the last seal become the new node's
        row, and their live counts go back to zero; no other column is
        visited.
        """
        start, end = self._previous_interval()
        live = self._live
        row: dict[int, float] = {}
        for col in self._dirty:
            count = live[col]
            if count:
                row[col] = count
                live[col] = _ZERO
        self._dirty.clear()
        self._link(_Node(start, end, 0, row, next(self._seq)))

    def _rebuild(
        self, nodes: list[tuple[int, int, int, dict[int, float]]]
    ) -> None:
        """Replace the sealed list with ``(start, end, level, row)`` nodes
        (and reschedule pending merges)."""
        node = self._head
        while node is not None:
            nxt = node.next
            node.prev = node.next = None
            node = nxt
        self._head = None
        self._tail = None
        self._n_sealed = 0
        self._merge_heap.clear()
        for start, end, level, row in nodes:
            self._link(_Node(start, end, level, row, next(self._seq)))

    def _merge_nodes(self, left: _Node) -> _Node:
        """Merge ``left`` with its right neighbour; returns the new node.

        Each column holding a count on either side adds its two counts
        (an absent one reads ``_ZERO``, so an integer count turns float as
        in any sum) and quantizes the sum at the merged level.
        """
        right = left.next
        assert right is not None
        level = max(left.level, right.level) + 1
        q = self._quantizer
        old, young = left.row, right.row
        get = young.get
        if q is None:
            row = {col: count + get(col, _ZERO) for col, count in old.items()}
            for col, count in young.items():
                if col not in old:
                    row[col] = _ZERO + count
        else:
            quantize = q.quantize
            row = {
                col: quantize(count + get(col, _ZERO), level)
                for col, count in old.items()
            }
            for col, count in young.items():
                if col not in old:
                    row[col] = quantize(_ZERO + count, level)
        if level > self._max_level:
            self._max_level = level
        node = _Node(left.start, right.end, level, row, next(self._seq))
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
        young_age = max(0, self._time - right.end)
        old_age = self._time - left.start
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
        young_ref = right.end
        old_ref = left.start
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

    # ------------------------------------------------------------- restore

    def check(self) -> None:
        """Refuse a node list that no run reaches at this clock.

        Spans do not depend on the stream, and a merge of two engines
        keeps them, so where the closed form applies
        (:func:`wbmh_fresh_nodes`) they must be a fresh lattice's at this
        clock, and ``max_level`` at least its.  Elsewhere they must be
        whole seal intervals that follow each other with no overlap and no
        gap and end where the live interval begins, from tick 0 under an
        infinite support and from an unexpired head otherwise.  A node's
        level counts the merges below it, so it is at least the depth of a
        binary tree over the span's seal intervals (an engine that absorbed
        another sits above it) and at most ``max_level``.
        """
        if self._time < 0:
            raise InvalidParameterError(f"WBMH clock {self._time} is negative")
        w = self._seal_width
        spans: list[tuple[int, int]] = []
        node = self._head
        while node is not None:
            start, end, level = node.start, node.end, node.level
            width = end - start + 1
            if start % w or width % w or width <= 0:
                raise InvalidParameterError(
                    f"WBMH span [{start}, {end}] is not whole seal "
                    f"intervals of width {w}"
                )
            depth = (width // w - 1).bit_length()
            if not depth <= level <= self._max_level:
                raise InvalidParameterError(
                    f"WBMH level {level} of span [{start}, {end}] is outside "
                    f"[{depth}, max_level {self._max_level}]"
                )
            spans.append((start, end))
            node = node.next
        fresh = None
        if self.merge_strategy == "scheduled" and self._support is None:
            fresh = wbmh_fresh_nodes(_reference(self), self._time)
        if fresh is not None:
            nodes, top = fresh
            if spans != [(s, e) for s, e, _ in nodes] or self._max_level < top:
                raise InvalidParameterError(
                    f"WBMH spans or max_level are not those of a lattice at "
                    f"clock {self._time}"
                )
            return
        # Newest first, each span must end where the next one begins; the
        # oldest begins at tick 0 or where its predecessor has expired.
        now, sup = self._time, self._support
        begin = self._live_interval()[0]
        tiled = True
        for start, end in reversed(spans):
            tiled = tiled and end == begin - 1
            begin = start
        if begin and (sup is None or now - begin < sup):
            tiled = False
        if sup is not None and spans and now - spans[0][1] > sup:
            tiled = False
        if not tiled:
            raise InvalidParameterError(
                f"WBMH spans {spans} do not tile the ages up to the live "
                f"interval at clock {now}"
            )

    def _expire(self) -> None:
        sup = self._support
        if sup is None:
            return
        while self._head is not None and self._time - self._head.end > sup:
            dead = self._head
            self._head = dead.next
            dead.next = None
            dead.ver = _RETIRED
            if self._head is not None:
                self._head.prev = None
            else:
                self._tail = None
            self._n_sealed -= 1


#: One empty lattice per decay, ratio and merge strategy, on which
#: :meth:`Lattice.check` computes a fresh lattice's nodes.  Those depend
#: on that configuration and the clock alone, so this is a cache: what
#: it holds changes how fast ``check`` runs, never what it answers.  The
#: keys of a restored snapshot share one warm schedule instead of each
#: walking the regions on its own cold one, and a checked lattice's
#: schedule (whose computed regions its ``shared_bits`` count) stays as
#: its rebuild left it.  A built-in decay's ``repr`` names it exactly; an
#: entry holds its decay, so an id in a default ``repr`` is not reused
#: while the entry lives.
_REFERENCES: dict[tuple[object, ...], Lattice] = {}


def _reference(lattice: Lattice) -> Lattice:
    decay, ratio = lattice._decay, lattice.schedule.ratio
    key = (type(decay), repr(decay), ratio, lattice.merge_strategy)
    ref = _REFERENCES.get(key)
    if ref is None:
        if len(_REFERENCES) >= 16:
            _REFERENCES.clear()
        ref = _REFERENCES[key] = Lattice(
            decay, lattice.epsilon, RegionSchedule(decay, ratio), None,
            lattice.merge_strategy,
        )
    return ref


class WBMH(EngineBase):
    """Decaying sum for ratio-nonincreasing decay (POLYD and slower).

    One count column of a :class:`Lattice` (module docstring).  Built
    directly, the engine owns a private lattice holding just its column.

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

    __slots__ = ("_lat", "_col", "_items")

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
        quantizer: LevelQuantizer | FixedQuantizer | None
        if not quantize:
            quantizer = None
        elif horizon is not None:
            quantizer = FixedQuantizer(count_eps, horizon)
        else:
            quantizer = LevelQuantizer(count_eps)
        self._lat = Lattice(
            decay, float(epsilon), RegionSchedule(decay, ratio), quantizer,
            merge_strategy,
        )
        self._col = self._lat._join()
        self._items = 0

    # ------------------------------------------------------------------ API

    @property
    def time(self) -> int:
        return self._lat._time

    @property
    def decay(self) -> DecayFunction:
        return self._lat._decay

    @property
    def lattice(self) -> Lattice:
        """The lattice this engine is a column of."""
        return self._lat

    @property
    def epsilon(self) -> float:
        return self._lat.epsilon

    @property
    def merge_strategy(self) -> str:
        return self._lat.merge_strategy

    @property
    def schedule(self) -> RegionSchedule:
        return self._lat.schedule

    @property
    def seal_width(self) -> int:
        """Ticks between bucket seals (width of region 0)."""
        return self._lat._seal_width

    def add(self, value: float = 1.0) -> None:
        """Fold one weight into the live count.  A weight above
        :data:`~repro.histograms.soa.WBMH_MAX_WEIGHT` is refused, so no
        count a merge quantizes reaches ``inf``."""
        if not 0 <= value <= WBMH_MAX_WEIGHT:
            raise InvalidParameterError(_WEIGHT_DOMAIN.format(value))
        if value == 0:
            return
        lat = self._lat
        live = lat._live
        col = self._col
        count = live[col]
        if count:
            live[col] = count + value
        else:
            live[col] = value
            lat._dirty.append(col)
        self._items += 1

    def add_batch(self, values: Sequence[float]) -> None:  # lintkit: hot
        """Fold a batch into the live count: one write per batch,
        bit-identical to sequential ``add`` calls (left-to-right sum,
        zeros skipped).

        Single fused pass: validation and the fold share one loop over a
        local accumulator, and the live count is only written after the
        whole batch has been checked (nothing mutates on a mid-batch
        rejection).
        """
        count = 0.0
        have = False
        nonzero = 0
        lat = self._lat
        live = lat._live
        col = self._col
        first = live[col]
        most = WBMH_MAX_WEIGHT
        for value in values:
            if not 0 <= value <= most:
                raise InvalidParameterError(_WEIGHT_DOMAIN.format(value))
            if value == 0:
                continue
            if not have:
                count = first + value if first else value
                have = True
            else:
                count += value
            nonzero += 1
        if not have:
            return
        if not first:
            lat._dirty.append(col)
        live[col] = count
        self._items += nonzero

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
                self.advance_to(until)
            return
        ingest_trace(self, seq, until=until)

    def advance(self, steps: int = 1) -> None:
        """Advance the clock; a shared lattice moves only with its store."""
        if self._lat.shared and steps:
            raise InvalidParameterError(
                "this engine is a column of a shared lattice; advance the "
                "store that owns it"
            )
        self._lat.advance(steps)

    def query(self) -> Estimate:
        """Certified-bracket estimate of ``S_g(T)``.

        Every item in a bucket spanning times ``[start, end]`` has age in
        ``[T - end, T - start]``; stored counts under-estimate true counts
        by at most the level's drift factor. The bracket combines both.
        """
        return self.query_decay(self._lat._decay)

    def query_decay(self, other: DecayFunction) -> Estimate:
        """Certified bracket for any non-increasing decay ``other``.

        Bucket intervals bound every item's age regardless of which decay
        built the lattice, so any non-increasing ``other`` gets a valid
        bracket ``[sum c*g'(oldest), sum c*drift*g'(newest)]``. The width
        is only guaranteed to be within ``epsilon`` when ``other`` varies
        no faster across each region than the histogram's own decay; for
        faster-varying functions the bracket is honest but wide.
        """
        lat = self._lat
        col = self._col
        now = lat._time
        q = lat._quantizer
        weight = other.weight
        lower = 0.0
        upper = 0.0
        node = lat._head
        while node is not None:
            count = node.row.get(col)
            if count is not None:
                end = node.end
                newest_age = now - end if now >= end else 0
                level = node.level
                drift = q.drift_factor(level) if q is not None and level > 0 else 1.0
                lower += count * weight(now - node.start)
                upper += count * drift * weight(newest_age)
            node = node.next
        count = lat._live[col]
        if count != 0.0:
            start, end = lat._live_interval()
            newest_age = now - end if now >= end else 0
            lower += count * weight(now - start)
            upper += count * weight(newest_age)  # level 0: drift 1
        return Estimate(value=0.5 * (lower + upper), lower=lower, upper=upper)

    def check(self) -> None:
        """Refuse state no run can produce: every sealed and live count
        is finite and >= 0, and the lattice passes :meth:`Lattice.check`.

        Run on restore (:func:`repro.serialize.engine_from_dict`), never
        on the ingest path, whose writes refuse NaN and inf weights.
        """
        for bucket in self._iter_buckets():
            if not 0 <= bucket.count < math.inf:
                raise InvalidParameterError(
                    f"WBMH count must be finite and >= 0, got {bucket.count}"
                )
        self._lat.check()

    def bucket_view(self) -> list[Bucket]:
        """Snapshot of all buckets (sealed then live), oldest first."""
        return list(self._iter_buckets())

    def bucket_count(self) -> int:
        lat = self._lat
        return lat._n_sealed + (1 if lat._live[self._col] else 0)

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
        require_same_decay(self.decay, other.decay)
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

        A bucket holding counts from both operands goes one level up.  On
        a shared lattice, a column whose levels would change moves to a
        private lattice first; otherwise only its counts change.
        """
        if other is self:
            raise InvalidParameterError("cannot absorb an engine into itself")
        lat, theirs = self._lat, other._lat
        if theirs._time != lat._time:
            raise TimeOrderError(
                f"clock mismatch: {lat._time} vs {theirs._time}"
            )
        if (
            theirs.schedule.ratio != lat.schedule.ratio
            or theirs._seal_width != lat._seal_width
            or type(theirs._decay) is not type(lat._decay)
        ):
            raise InvalidParameterError(
                "absorb requires the same decay function and ratio"
            )
        mine = list(self._iter_buckets_sealed())
        their = list(other._iter_buckets_sealed())
        if [(b.start, b.end) for b in mine] != [(b.start, b.end) for b in their]:
            raise InvalidParameterError(
                "bucket lattices differ -- engines were not driven in "
                "lock-step (check advance calls)"
            )
        merged: list[tuple[int, int, int, float]] = []
        max_level = lat._max_level
        same_levels = True
        for a, b in zip(mine, their):
            count = a.count + b.count
            level = max(a.level, b.level)
            if count > 0 and (a.count > 0 and b.count > 0):
                level += 1
                if lat._quantizer is not None:
                    count = lat._quantizer.quantize(count, level)
            max_level = max(max_level, level)
            same_levels = same_levels and level == a.level
            merged.append((a.start, a.end, level, count))
        live = lat._live[self._col]
        extra = theirs._live[other._col]
        if extra:
            live = live + extra if live else extra
        if lat.shared:
            if same_levels and max_level == lat._max_level:
                col = self._col
                node = lat._head
                for _, _, _, count in merged:
                    assert node is not None
                    if count:
                        node.row[col] = count
                    node = node.next
                lat._set_live(col, live)
                self._items += other._items
                return
            private = lat._fork()
            lat.release(self)
            self._lat = lat = private
            self._col = lat._join()
        col = self._col
        lat._max_level = max_level
        lat._rebuild(
            [(s, e, level, {col: c} if c else {}) for s, e, level, c in merged]
        )
        lat._set_live(col, live)
        self._items += other._items

    def _iter_buckets_sealed(self) -> Iterator[Bucket]:
        col = self._col
        node = self._lat._head
        while node is not None:
            count = node.row.get(col, _ZERO)
            yield Bucket(node.start, node.end, count, node.level)
            node = node.next

    def storage_report(self) -> StorageReport:
        """Lemma 5.1 accounting.

        Per stream, what the stream stores: a one-bit flag per sealed node
        saying whether the node's row holds a count for this column, then
        each stored count (exponent of log log N bits plus the level's
        mantissa width) with its flag, and the clock register; a non-zero
        live count costs what a stored count does.  Rows hold only non-zero
        counts, so a zero bucket costs its 1-bit flag, and a stream with no
        zero bucket costs what one count per bucket cost when rows were
        dense.  The region schedule is stream-independent: its boundaries
        count as shared bits (one ``log N``-bit age per computed region
        start).
        """
        lat = self._lat
        q = lat._quantizer
        col = self._col
        horizon = max(2, lat._time)
        exp_bits = max(1, (max(1, horizon).bit_length()).bit_length())
        count_bits = 0
        node = lat._head
        while node is not None:
            count_bits += 1
            if col in node.row:
                mant = 52 if q is None else q.mantissa_bits(max(1, node.level))
                count_bits += exp_bits + mant
            node = node.next
        if lat._live[col]:
            mant = 52 if q is None else q.mantissa_bits(1)
            count_bits += exp_bits + mant + 1
        shared = bits_for_value(horizon) * lat.schedule.region_count()
        return StorageReport(
            engine="wbmh",
            buckets=self.bucket_count(),
            timestamp_bits=0,
            count_bits=count_bits,
            register_bits=bits_for_value(max(1, lat._time)),
            shared_bits=shared,
            notes={"max_level": float(lat._max_level)},
        )

    # ----------------------------------------------------------- structure

    def _iter_buckets(self) -> Iterator[Bucket]:
        yield from self._iter_buckets_sealed()
        count = self._lat._live[self._col]
        if count:
            start, end = self._lat._live_interval()
            yield Bucket(start, end, count)
