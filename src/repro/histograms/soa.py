"""Structure-of-arrays bucket kernels and the kernel-backend seam.

The histogram engines (:class:`~repro.histograms.eh.ExponentialHistogram`,
:class:`~repro.histograms.domination.DominationHistogram`, and through them
:class:`~repro.histograms.ceh.CascadedEH` and the WBMH bulk path) keep their
live bucket state in :class:`BucketColumns` -- four parallel columns
(starts, ends, counts, levels) instead of a list of
:class:`~repro.histograms.buckets.Bucket` objects.  The columns are plain
Python lists in *both* backends: CPython list indexing beats numpy scalar
indexing by 2-3x on the per-item hot paths (``add``/``advance``), so numpy
arrays are only materialized inside the *bulk* kernels, via
:class:`NumpyColumns` (int64/float64 staging columns with amortized
capacity-doubling growth).

The backend seam selects which *kernels* run, not which store holds state:

* ``"numpy"`` -- bulk ingest kernels use vectorized sweeps (closed-form EH
  cascade levels, the WBMH dyadic count fold, the domination no-merge
  pre-check) wherever the math allows;
* ``"python"`` -- the same kernels run their pure-Python twins, so numpy
  stays an optional dependency;
* ``"auto"`` (default) -- ``numpy`` when importable, else ``python``; the
  ``REPRO_KERNEL_BACKEND`` environment variable overrides the default
  without touching call sites (the CI fallback leg sets it to ``python``).

Every kernel is *exact*: it either reproduces the engine's item-at-a-time
process bit-for-bit (pinned by ``tests/property/test_property_kernel_identity``
across backends) or declines up front -- each bulk entry point pre-scans its
input purely and returns ``False`` without mutating anything, letting the
caller fall back to the organic :func:`~repro.core.batching.ingest_trace`
replay, so error semantics (including partial application before a mid-trace
validation failure) are exactly the organic ones.

EH bulk kernel
    A level simulation of the unary append-and-cascade process: per
    power-of-two size, the existing run and the carries from the level
    below form one queue; census pops and window expiries are replayed in
    arrival order (:func:`_eh_level_walk`).  Levels where nothing can
    expire collapse to a closed form -- the pop count and pair slices are
    computed directly (:func:`_eh_closed_pairs`), vectorized under the
    numpy backend.  Lazy per-level expiry is equivalent to the engine's
    eager head-walk because the global bucket list is end-sorted and
    expiry sets are monotone in the cutoff.

WBMH bulk kernel
    On a fresh engine over an infinite-support decay with the scheduled
    merge strategy, the bucket lattice is stream-independent and dyadic:
    class-``s`` node ``q`` covers ``[q*2^s*w, (q+1)*2^s*w - 1]`` and is
    created at the constant schedule offset ``s_s`` past its young end.
    The kernel derives created/survivor index ranges per class in closed
    form, folds counts layer by layer (vectorized ``frexp``-truncation
    quantization under numpy), and self-verifies the schedule constants --
    including a conservative mixed-class-pair safety bound -- falling back
    to the organic replay if any check fails.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.core.errors import InvalidParameterError
from repro.counters.approx_float import truncate_mantissa
from repro.histograms.buckets import Bucket

if TYPE_CHECKING:
    from repro.core.batching import TimedValue
    from repro.histograms.eh import ExponentialHistogram
    from repro.histograms.wbmh import WBMH

__all__ = [
    "HAVE_NUMPY",
    "BucketColumns",
    "NumpyColumns",
    "resolve_backend",
    "eh_bulk_ingest",
    "wbmh_bulk_ingest",
    "domination_merge_possible",
]

_np: Any
try:  # pragma: no cover - exercised implicitly by backend selection
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less environments
    _np = None

#: True when numpy imported; the ``"auto"`` backend resolves on this.
HAVE_NUMPY = _np is not None

#: Environment override consulted by :func:`resolve_backend`.
ENV_BACKEND = "REPRO_KERNEL_BACKEND"

#: Below this many vector elements the numpy call overhead loses to the
#: pure-Python loop, so the numpy backend stays on the scalar twin.
_VECTOR_CUTOVER = 32

#: Bulk EH ingestion expands per-tick totals into unit arrivals; traces
#: whose totals blow past this density fall back to the organic replay,
#: whose binary-decomposition ``_bulk_insert`` handles huge values in
#: logarithmic work.
_EH_EXPANSION_CAP = 1024


def resolve_backend(requested: str | None = None) -> str:
    """Resolve a kernel-backend request to ``"numpy"`` or ``"python"``.

    Explicit requests win; ``None``/``"auto"`` consults the
    ``REPRO_KERNEL_BACKEND`` environment variable and finally numpy
    availability.  Requesting numpy (explicitly or via the environment)
    when it is not importable is an error rather than a silent downgrade.
    """
    choice = requested
    if choice is None or choice == "auto":
        env = os.environ.get(ENV_BACKEND, "").strip().lower()
        if not env or env == "auto":
            return "numpy" if HAVE_NUMPY else "python"
        choice = env
    if choice == "python":
        return "python"
    if choice == "numpy":
        if not HAVE_NUMPY:
            raise InvalidParameterError(
                "kernel backend 'numpy' requested but numpy is not importable"
            )
        return "numpy"
    raise InvalidParameterError(
        f"unknown kernel backend {choice!r}; expected 'numpy', 'python' or 'auto'"
    )


class BucketColumns:
    """Structure-of-arrays bucket store: four parallel columns.

    ``starts``/``ends`` are arrival-time stamps, ``counts`` the bucket
    totals (ints for EH powers of two, floats for domination/WBMH), and
    ``levels`` the merge depths.  Rows are oldest-first and end-sorted,
    exactly like the former ``list[Bucket]`` representation; the engines
    index the columns directly on their hot paths and materialize
    :class:`Bucket` rows only at the ``bucket_view()`` boundary.
    """

    __slots__ = ("starts", "ends", "counts", "levels")

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.counts: list[float] = []
        self.levels: list[int] = []

    def __len__(self) -> int:
        return len(self.ends)

    def append(self, start: int, end: int, count: float, level: int) -> None:  # lintkit: hot
        self.starts.append(start)
        self.ends.append(end)
        self.counts.append(count)
        self.levels.append(level)

    def drop_head(self, n: int) -> None:
        """Drop the ``n`` oldest rows (expiry consumes a head prefix)."""
        if n:
            del self.starts[:n]
            del self.ends[:n]
            del self.counts[:n]
            del self.levels[:n]

    def replace(
        self,
        starts: list[int],
        ends: list[int],
        counts: list[float],
        levels: list[int],
    ) -> None:
        """Adopt new columns wholesale (bulk-kernel commit)."""
        self.starts = starts
        self.ends = ends
        self.counts = counts
        self.levels = levels

    def load_buckets(self, buckets: Iterable[Bucket]) -> None:
        """Replace the contents from a row-wise bucket list (serialize,
        merge)."""
        starts: list[int] = []
        ends: list[int] = []
        counts: list[float] = []
        levels: list[int] = []
        for b in buckets:
            starts.append(b.start)
            ends.append(b.end)
            counts.append(b.count)
            levels.append(b.level)
        self.replace(starts, ends, counts, levels)

    def to_buckets(self) -> list[Bucket]:
        """Materialize row objects (the ``bucket_view()`` boundary)."""
        return [
            Bucket(s, e, c, lv)
            for s, e, c, lv in zip(self.starts, self.ends, self.counts, self.levels)
        ]


class NumpyColumns:
    """Numpy staging columns with amortized capacity-doubling growth.

    The bulk kernels accumulate result rows here under the numpy backend:
    int64 ``starts``/``ends``/``levels`` and a float64 ``counts`` column,
    grown by doubling so that ``n`` appended rows cost ``O(n)`` copies
    total.  This is a *staging* store -- the engines' live state stays in
    :class:`BucketColumns` (see the module docstring for the measured
    rationale); ``to_lists`` converts back to plain-Python columns at the
    commit boundary.
    """

    __slots__ = ("_starts", "_ends", "_counts", "_levels", "_n")

    def __init__(self, capacity: int = 16) -> None:
        if _np is None:  # pragma: no cover - guarded by resolve_backend
            raise InvalidParameterError("NumpyColumns requires numpy")
        cap = max(1, int(capacity))
        self._starts = _np.empty(cap, dtype=_np.int64)
        self._ends = _np.empty(cap, dtype=_np.int64)
        self._counts = _np.empty(cap, dtype=_np.float64)
        self._levels = _np.empty(cap, dtype=_np.int64)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    @property
    def capacity(self) -> int:
        return int(self._starts.shape[0])

    def _grow_to(self, need: int) -> None:
        cap = int(self._starts.shape[0])
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        for name in ("_starts", "_ends", "_counts", "_levels"):
            old = getattr(self, name)
            fresh = _np.empty(cap, dtype=old.dtype)
            fresh[: self._n] = old[: self._n]
            setattr(self, name, fresh)

    def append(self, start: int, end: int, count: float, level: int) -> None:
        self._grow_to(self._n + 1)
        i = self._n
        self._starts[i] = start
        self._ends[i] = end
        self._counts[i] = count
        self._levels[i] = level
        self._n = i + 1

    def extend(
        self,
        starts: Any,
        ends: Any,
        counts: Any,
        levels: Any,
    ) -> None:
        """Append a block of rows (sequences or numpy arrays)."""
        k = len(starts)
        if not k:
            return
        self._grow_to(self._n + k)
        i = self._n
        self._starts[i : i + k] = starts
        self._ends[i : i + k] = ends
        self._counts[i : i + k] = counts
        self._levels[i : i + k] = levels
        self._n = i + k

    def columns(self) -> tuple[Any, Any, Any, Any]:
        """Live views of the filled prefix (no copies)."""
        n = self._n
        return (
            self._starts[:n],
            self._ends[:n],
            self._counts[:n],
            self._levels[:n],
        )

    def to_lists(self) -> tuple[list[int], list[int], list[float], list[int]]:
        n = self._n
        return (
            self._starts[:n].tolist(),
            self._ends[:n].tolist(),
            self._counts[:n].tolist(),
            self._levels[:n].tolist(),
        )

    def to_buckets(self) -> list[Bucket]:
        """Materialize row objects (Python scalars via ``tolist``)."""
        starts, ends, counts, levels = self.to_lists()
        return [
            Bucket(s, e, c, lv)
            for s, e, c, lv in zip(starts, ends, counts, levels)
        ]


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
    # Canonical-state checks: sizes are powers of two, non-increasing
    # oldest-first (violated only after a shard merge), runs at rest never
    # exceed the census cap, and nothing is already past the expiry
    # cutoff.  Any violation routes the whole call to the organic replay.
    counts = hist._cols.counts
    ends = hist._cols.ends
    cap = hist.buckets_per_size + 1
    prev_size = None
    run_len = 0
    for c in counts:
        ci = int(c)
        if ci != c or ci <= 0 or ci & (ci - 1):
            return None
        if prev_size is not None and ci > prev_size:
            return None
        run_len = run_len + 1 if ci == prev_size else 1
        if run_len > cap:
            return None
        prev_size = ci
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


def _eh_closed_pairs(
    qS: list[int],
    qE: list[int],
    qC: list[float],
    qL: list[int],
    arrT: list[int],
    n_run: int,
    cap: int,
    use_numpy: bool,
) -> tuple[int, list[int], tuple[list[int], list[int], list[float], list[int]]]:
    """Closed-form level processing when nothing at the level can expire.

    With no expiries the census trajectory is deterministic: the first pop
    fires at the ``cap + 1 - n_run``-th arrival and every second arrival
    after it, each consuming the two oldest queue elements.  The pair
    merges collapse to strided slices -- vectorized min/max under the
    numpy backend -- and the carry trigger times are a stride of the
    arrival times.  Bit-identical to :func:`_eh_level_walk` on the same
    input by construction.
    """
    k = len(arrT)
    j1 = cap + 1 - n_run
    if k < j1:
        return 0, [], ([], [], [], [])
    pairs = (k - j1) // 2 + 1
    cT = arrT[j1 - 1 :: 2]
    consumed = 2 * pairs
    cC = [qC[2 * p] + qC[2 * p + 1] for p in range(pairs)]
    if use_numpy and pairs >= _VECTOR_CUTOVER:
        s = _np.fromiter(qS, dtype=_np.int64, count=consumed).reshape(pairs, 2)
        e = _np.fromiter(qE, dtype=_np.int64, count=consumed).reshape(pairs, 2)
        lv = _np.fromiter(qL, dtype=_np.int64, count=consumed).reshape(pairs, 2)
        cS = _np.minimum(s[:, 0], s[:, 1]).tolist()
        cE = _np.maximum(e[:, 0], e[:, 1]).tolist()
        cL = (_np.maximum(lv[:, 0], lv[:, 1]) + 1).tolist()
    else:
        cS = []
        cE = []
        cL = []
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
    use_numpy = hist.kernel_backend == "numpy"
    cols = hist._cols
    t_last = ticks[-1]

    # Slice the existing columns into per-size runs (contiguous because
    # sizes are non-increasing oldest-first; verified by the pre-scan).
    counts_col = cols.counts
    runs: dict[int, tuple[list[int], list[int], list[float], list[int]]] = {}
    order: list[int] = []
    n0 = len(counts_col)
    i = 0
    while i < n0:
        size = int(counts_col[i])
        j = i
        while j < n0 and int(counts_col[j]) == size:
            j += 1
        runs[size] = (
            cols.starts[i:j],
            cols.ends[i:j],
            counts_col[i:j],
            cols.levels[i:j],
        )
        order.append(size)
        i = j

    # Level-1 arrivals: one unit element per item, stamped with its tick.
    arrT: list[int] = []
    if use_numpy and len(ticks) >= _VECTOR_CUTOVER:
        arrT = _np.repeat(
            _np.fromiter(ticks, dtype=_np.int64, count=len(ticks)),
            _np.fromiter(tick_counts, dtype=_np.int64, count=len(ticks)),
        ).tolist()
    else:
        for t, c in zip(ticks, tick_counts):
            if c:
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
                qS, qE, qC, qL, arrT, n_run, cap, use_numpy
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
    wbmh: "WBMH", t_final: int, n_leaves: int
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
    schedule = wbmh.schedule
    w = wbmh._seal_width
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
    wbmh: "WBMH", offsets: list[int], top_class: int, t_final: int
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
    schedule = wbmh.schedule
    w = wbmh._seal_width
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


def _wbmh_fold_level_py(  # lintkit: hot
    prev: list[float],
    n_parents: int,
    level: int,
    quantizer: Any,
    bits: int,
) -> list[float]:
    """Pure-Python count fold for one lattice class (numpy twin below)."""
    cur: list[float] = []
    for q in range(n_parents):
        c = prev[2 * q] + prev[2 * q + 1]
        if quantizer is not None and c > 0:
            c = truncate_mantissa(c, bits)
        cur.append(c)
    return cur


def wbmh_bulk_ingest(wbmh: "WBMH", items: Sequence["TimedValue"]) -> bool:
    """Whole-trace bulk ingestion for a *fresh* scheduled-strategy WBMH.

    Builds the stream-independent dyadic bucket lattice in closed form
    (module docstring), folds counts class by class with the engine's own
    quantization, and reconstructs the node chain plus merge heap through
    the same ``_rebuild`` path serialization uses.  Declines (``False``,
    nothing mutated) on: a non-fresh engine, finite decay support (expiry
    interacts with the lattice), the scan strategy, out-of-order or
    invalid input, or any failed schedule self-check.
    """
    if (
        wbmh.merge_strategy != "scheduled"
        or wbmh._support is not None
        or wbmh._time != 0
        or wbmh._head is not None
        or wbmh._live is not None
        or wbmh._items != 0
        or wbmh._merge_heap
    ):
        return False
    times: list[int] = []
    vals: list[float] = []
    for item in items:
        t = item.time
        v = item.value
        if not isinstance(t, int) or not isinstance(v, (int, float)):
            return False
        if not v >= 0:  # also catches NaN
            return False
        if t < (times[-1] if times else 0):
            return False
        times.append(t)
        vals.append(v)
    if not times:
        return False
    t_final = times[-1]
    w = wbmh._seal_width
    n_leaves = t_final // w
    chain = _wbmh_class_chain(wbmh, t_final, n_leaves)
    if chain is None:
        return False
    offsets, created = chain
    top_class = 0
    for s in range(len(created) - 1, 0, -1):
        if created[s] > 0:
            top_class = s
            break
    if top_class and not _wbmh_mixed_pairs_safe(
        wbmh, offsets, top_class, t_final
    ):
        return False

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

    # Fold counts class by class (quantizing exactly as _merge_nodes does,
    # with the per-class mantissa width memoized out of the inner loop).
    quantizer = wbmh._quantizer
    use_numpy = wbmh.kernel_backend == "numpy"
    by_class: list[Any] = [leaf_counts]
    for s in range(1, top_class + 1):
        n_parents = created[s]
        bits = quantizer.mantissa_bits(s) if quantizer is not None else 52
        prev_counts = by_class[s - 1]
        if use_numpy and n_parents >= _VECTOR_CUTOVER:
            arr = _np.asarray(prev_counts, dtype=_np.float64)
            sums = arr[: 2 * n_parents].reshape(n_parents, 2).sum(axis=1)
            if quantizer is not None:
                scale = float(1 << bits)
                m, e = _np.frexp(sums)
                sums = _np.ldexp(_np.floor(m * scale) / scale, e)
            by_class.append(sums)
        else:
            if isinstance(prev_counts, list):
                prev_list = prev_counts
            else:
                prev_list = prev_counts.tolist()
            by_class.append(
                _wbmh_fold_level_py(prev_list, n_parents, s, quantizer, bits)
            )

    # Survivors per class: nodes not yet consumed by the cascade above.
    # Classes descend oldest-first; within a class, index order is time
    # order.  Assemble through the staging columns under numpy.
    staging: NumpyColumns | None = (
        NumpyColumns(capacity=64) if use_numpy else None
    )
    buckets: list[Bucket] = []
    for s in range(top_class, -1, -1):
        width = (1 << s) * w
        lo = 2 * created[s + 1] if s + 1 < len(created) else 0
        hi = created[s]
        if lo >= hi:
            continue
        counts_here = by_class[s]
        if staging is not None:
            idx = _np.arange(lo, hi, dtype=_np.int64)
            block = (
                counts_here[lo:hi]
                if not isinstance(counts_here, list)
                else _np.asarray(counts_here[lo:hi], dtype=_np.float64)
            )
            staging.extend(
                idx * width,
                (idx + 1) * width - 1,
                block,
                _np.full(hi - lo, s, dtype=_np.int64),
            )
        else:
            for q in range(lo, hi):
                buckets.append(
                    Bucket(q * width, (q + 1) * width - 1, counts_here[q], s)
                )
    if staging is not None:
        buckets = staging.to_buckets()

    max_level = 0
    for s in range(1, top_class + 1):
        if created[s] > 0:
            max_level = s

    wbmh._time = t_final
    wbmh._rebuild(buckets)
    if live_count is not None:
        lo_t, hi_t = wbmh._live_interval()
        wbmh._live = Bucket(lo_t, hi_t, live_count)
    wbmh._items = nonzero
    wbmh._max_level = max_level
    return True


# ------------------------------------------------------------- domination


def domination_merge_possible(
    counts: Sequence[float], epsilon: float, backend: str
) -> bool:
    """Exact pre-check for the domination compaction sweep.

    Until its first merge, the compaction sweep's trajectory is exactly
    the pair/suffix scan below; if no adjacent pair is dominated by
    ``epsilon`` times its strictly-newer suffix sum, the sweep never
    merges and is a guaranteed no-op.  The arithmetic mirrors the sweep
    exactly (same accumulation order, same comparison), so a ``False``
    answer is a proof, not a heuristic.  Vectorized under the numpy
    backend for long bucket lists.
    """
    n = len(counts)
    if n < 2:
        return False
    if backend == "numpy" and n >= _VECTOR_CUTOVER * 2:
        arr = _np.asarray(counts, dtype=_np.float64)
        # suffix[i] = sum of counts newer than i, accumulated newest-first
        # exactly like the sweep's running total.
        suffix = _np.zeros(n, dtype=_np.float64)
        suffix[:-1] = _np.cumsum(arr[::-1])[::-1][1:]
        pair = arr[:-1] + arr[1:]
        return bool(_np.any(pair <= epsilon * suffix[1:]))
    suffix = 0.0
    for i in range(n - 1, 0, -1):
        if counts[i - 1] + counts[i] <= epsilon * suffix:
            return True
        suffix += counts[i]
    return False

