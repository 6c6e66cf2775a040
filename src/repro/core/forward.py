"""Forward decay engines (Cormode, Shkapenyuk, Srivastava, Xue, ICDE 2009).

The backward engines in this library weight an item by its *age*:
``g(T - t_i)`` with the query time ``T`` as the moving origin.  Forward
decay flips the reference point to a fixed *landmark* ``L`` at or before
the start of the stream and weights by how far the item sits **forward**
of it::

    S_g(T) = sum_i v_i * g(t_i - L) / g(T - L)

Because ``g(t_i - L)`` depends only on the item itself, ingestion is a
single accumulation -- O(1) per item, no advance-time compaction, no
bucket cascade -- and the accumulated state is a function of the item
*multiset*: forward decay is natively immune to out-of-order arrival.
For exponential ``g`` the quotient collapses to the familiar backward
exponential decay; for polynomial ``g`` the induced backward weight
depends on the query time and has no backward-engine equivalent.

Landmark renormalization / log-domain accumulation
--------------------------------------------------
Taken literally, ``g(t_i - L)`` overflows a double once
``lam * (t_i - L)`` passes ~709 on an exponential stream.  Instead of
periodically re-basing the landmark (which would destroy bit-level
reproducibility), :class:`ForwardDecaySum` keeps the *scale* of each
contribution in a base-2 block exponent: with ``f(t) = log2 g(t - L)``
an item is banked into block ``k = floor(f / 64)`` as the exact integer
value of the float ``v * 2**(f - 64k)``.  Per-block integer addition is
order-independent, so a shuffled trace reproduces the sorted trace's
query *bit for bit* (conformance law CL009), and no intermediate ever
exceeds the float range regardless of stream length.  The landmark is
fixed at ``L = 0`` -- renormalization happens per query, dividing by
``g(T - L)`` in the same block arithmetic.

Bounded state
-------------
A block far enough below a held block cannot change a bit of any
answer: it is worth under half an ulp of that block's term in the
query fold.  The engine keeps exactly the blocks at or above the
*edge*, the highest of the lowest block each held block leaves able to
matter (:func:`_floor_of`) and the content-independent floor
``top - D + 1`` (``D = 34``, derivation at :data:`_WINDOW`).  Per-key
state, snapshots and the query fold are therefore at most ``D`` blocks
whatever the stream length -- on a steady stream about as many as one
block's own value reaches, 18 for unit items at rate 0.05 -- every answer
is bit-identical to keeping every block, and the state is still a pure
function of the item multiset.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.core.average import DecayingAverage
from repro.core.batching import EngineBase, TimedValue
from repro.core.decay import DecayFunction
from repro.core.errors import InvalidParameterError, NotApplicableError
from repro.core.estimate import Estimate
from repro.core.merging import (
    align_merge_clocks,
    require_merge_operand,
    require_same_decay,
)
from repro.storage.model import StorageReport, bits_for_value

__all__ = [
    "ForwardDecay",
    "ForwardDecaySum",
    "ForwardDecayAverage",
    "ExactForwardSum",
]

#: Width of one scale block in bits.  Contributions ``v * 2**(f - 64k)``
#: stay within ``[v, v * 2**64)``, far inside the float range, while the
#: unbounded part of ``f`` lives in the integer block index ``k``.
_BLOCK_BITS = 64

#: ``1 / _BLOCK_BITS`` -- a power of two, so ``f * _INV_BLOCK`` is the
#: exact quotient and truncating it equals ``floor(f / 64)`` for f >= 0
#: (much cheaper than float floor-division in the hot loop).
_INV_BLOCK = 0.015625

#: Scale blocks kept: only blocks less than ``_WINDOW`` below the top
#: block can change an answer.  Every banked contribution is a finite
#: double, below ``2**1024``, so a block of ``n`` items is worth less
#: than ``n * 2**1024``; folded ``d`` blocks under the top by
#: :func:`_scaled_float` it is below ``2n * 2**(1024 - 64d)`` (the 2
#: covers the sticky-bit truncation), and ``ldexp`` rounds anything at
#: most ``2**-1075`` -- half the least subnormal -- to exactly ``+0.0``.
#: ``64d >= 1 + 76 + 1024 + 1075`` gives that for up to ``2**76`` items
#: in one block: ``d = 34``.  Adding ``+0.0`` leaves the fold unchanged
#: and the top block is never dropped, so every answer is bit-identical
#: to keeping every block, while the state stays at most 34 blocks
#: however long the stream runs.  It is the edge's content-independent
#: floor: a top holding ``5e-324 * w`` raises the edge no higher.
_WINDOW = 34

#: ``1 + 76 + 1024 + 53``: block ``j`` is absorbed by a held block ``b``
#: worth ``2**L_b`` or more in its own scale once ``64 * (b - j) >=
#: _ABSORB - L_b``.  Up to ``2**76`` contributions below ``2**1024`` fold
#: to a term under ``2**(1 + 76 + 1024)`` in ``j``'s scale (the 1 covers
#: the sticky-bit truncation), hence under ``2**(L_b - 53)`` -- half an
#: ulp of ``b``'s term -- in ``b``'s, and the highest-first fold's running
#: total never falls below ``b``'s term, so adding ``j`` changes no bit.
_ABSORB = 1154

#: Bits the query fold drops when the top block's scale overflows: the
#: blocks sum below ``2**(_ABSORB + 1)`` there, so ``2**-192`` of it is
#: far inside the float range, and ``top * 64 <= log2 g(T)`` keeps the
#: renormalizing factor at most ``2**192``.
_REFOLD = 192

#: ``2**52``.  For ``x >= 1`` the product ``x * 2**52`` is integer-valued
#: (a double has no mantissa bits below ``2**-52`` once ``x >= 1``), so
#: ``int(x * _P52)`` is the *exact* mantissa of ``x`` on the fixed
#: ``2**-52`` grid -- the hot-path replacement for ``as_integer_ratio``.
_P52 = 4503599627370496.0

_LOG2_E = 1.0 / math.log(2.0)

_OVERFLOW = (
    "forward contribution overflows a float; values this large are outside "
    "the engine's domain"
)


class ForwardDecay(DecayFunction):
    """A monotone non-decreasing forward weight ``g`` with ``g(0) = 1``.

    Two families cover the paper's examples:

    * ``kind="exp"`` -- ``g(n) = exp(rate * n)``.  The induced backward
      weight ``g(t - L)/g(T - L) = exp(-rate * (T - t))`` is the classic
      exponential decay, so :meth:`weight` is well-defined and the decay
      is shift-invariant in value.
    * ``kind="poly"`` -- ``g(n) = (n + 1) ** rate``.  The induced weight
      ``((t + 1)/(T + 1)) ** rate`` depends on the query time, so there
      is *no* fixed age-indexed weight; :meth:`weight` raises
      :class:`~repro.core.errors.NotApplicableError`.
    """

    def __init__(self, kind: str, rate: float) -> None:
        if kind not in ("exp", "poly"):
            raise InvalidParameterError(
                f"forward decay kind must be 'exp' or 'poly', got {kind!r}"
            )
        if not rate > 0 or not math.isfinite(rate):
            raise InvalidParameterError(f"rate must be > 0, got {rate}")
        self.kind = kind
        self.rate = float(rate)

    @property
    def shift_invariant(self) -> bool:
        """Whether the induced backward weight ignores the time origin."""
        return self.kind == "exp"

    def log2_g(self, offset: int) -> float:
        """``log2 g(offset)`` for ``offset >= 0`` (never overflows)."""
        if self.kind == "exp":
            return self.rate * _LOG2_E * offset
        return self.rate * math.log2(offset + 1)

    def weight(self, age: int) -> float:
        self._check_age(age)
        if self.kind == "exp":
            return math.exp(-self.rate * age)
        raise NotApplicableError(
            "polynomial forward decay has no age-indexed weight: the "
            "induced backward weight depends on the query time"
        )

    def is_ratio_nonincreasing(self, horizon: int = 4096) -> bool:
        if self.kind == "exp":
            return True
        raise NotApplicableError(
            "polynomial forward decay has no age-indexed weight ratio"
        )

    def describe(self) -> str:
        return f"FWD-{self.kind.upper()}(rate={self.rate:g})"

    def __repr__(self) -> str:
        return f"ForwardDecay(kind={self.kind!r}, rate={self.rate!r})"


def _scaled_float(num: int, exp: int) -> float:
    """Deterministic nearest float of ``num * 2**exp`` (``num > 0``).

    Big integers are truncated to 54 bits with a sticky low bit before the
    exact ``ldexp``, so the result is within one ulp of exact and -- the
    property the permutation law rests on -- a pure function of the
    integer, never of how it was accumulated.
    """
    bits = num.bit_length()
    if bits <= 53:
        return math.ldexp(num, exp)
    shift = bits - 54
    hi = num >> shift
    if num & ((1 << shift) - 1):
        hi |= 1
    try:
        return math.ldexp(hi, exp + shift)
    except OverflowError:
        return math.inf


class ForwardDecaySum(EngineBase):
    """Forward decaying sum with order-independent exact accumulation.

    State is a sparse map of the scale blocks at or above the edge, in
    increasing block order, ``k -> num * 2**exp`` (exact integers, see
    the module docstring):
    ingest banks each item's float contribution exactly, so the state --
    and therefore every query -- is a function of the item multiset
    alone.  Late items are accepted directly (``supports_out_of_order``);
    one landing below the edge is counted but cannot change an answer,
    so it is not banked.  The clock only ever moves forward to the
    newest timestamp seen.

    ``query`` folds the blocks highest-first into a float and divides by
    ``g(T - L)`` in the exponent, so long quiet periods underflow
    gracefully to 0.0 instead of overflowing.
    """

    __slots__ = ("_decay", "_time", "_buckets", "_items")

    #: Forward state is a function of the item multiset: ingestion accepts
    #: items stamped at or before the clock (``add_at``) without error.
    supports_out_of_order = True

    def __init__(self, decay: ForwardDecay) -> None:
        if not isinstance(decay, ForwardDecay):
            raise InvalidParameterError("ForwardDecaySum requires ForwardDecay")
        self._decay = decay
        self._time = 0
        self._buckets: dict[int, list[int]] = {}  # k -> [num, exp], k rising
        self._items = 0

    # -------------------------------------------------------------- clock

    @property
    def time(self) -> int:
        return self._time

    @property
    def decay(self) -> DecayFunction:
        return self._decay

    def advance(self, steps: int = 1) -> None:
        """Move the clock; forward state needs no compaction, ever."""
        if steps < 0:
            raise InvalidParameterError(f"steps must be >= 0, got {steps}")
        self._time += steps

    # ------------------------------------------------------------- writes

    def add(self, value: float = 1.0) -> None:
        """Bank one item at the clock: a one-item :meth:`add_batch`."""
        self.add_batch((value,))

    def add_at(self, when: int, value: float = 1.0) -> None:
        """Record an item stamped ``when``, late or not.

        A timestamp beyond the clock advances it; one at or before the
        clock is banked at its own weight -- the forward-decay answer to
        out-of-orderness.
        """
        if when < 0:
            raise InvalidParameterError(f"when must be >= 0, got {when}")
        if not value >= 0:
            raise InvalidParameterError(f"value must be >= 0, got {value}")
        self._bank(when, value)  # raises on overflow before the clock moves
        if when > self._time:
            self._time = when
        self._items += 1

    def add_batch(self, values: Sequence[float]) -> None:
        """Bank a same-instant batch; bit-identical to one :meth:`add_at`
        per value at the clock.

        The whole batch is checked before any of it is banked (every value
        non-negative, every contribution finite), so a refused batch
        leaves the engine as it was.
        """
        f = self._decay.log2_g(self._time)
        k = int(f * _INV_BLOCK)
        w = 2.0 ** (f - (k << 6))
        for value in values:
            if not value >= 0:
                raise InvalidParameterError(f"value must be >= 0, got {value}")
            if value * w == math.inf:
                raise InvalidParameterError(_OVERFLOW)
        buckets = self._buckets
        slot = buckets.get(k)
        run = 0
        last = math.nan  # equal to no value: the first one starts a run
        num = 0
        exp = 0
        for value in values:
            if value == last:
                run += 1
                continue
            if run and num:
                slot = _flush(buckets, k, slot, num, exp, run)
            num, exp = _exact_parts(value * w)
            last = value
            run = 1
        if run and num:
            _flush(buckets, k, slot, num, exp, run)
        self._items += len(values)
        _settle(buckets, (k,))

    def ingest(
        self, items: Iterable[TimedValue], *, until: int | None = None
    ) -> None:
        """Consume a trace in *any* time order (the forward hot path).

        Per distinct timestamp the residual weight is computed once and
        the live block (its index *and* its slot) is cached across
        timestamps, so dense traces skip the block lookup entirely; runs
        of identical ``(time, value)`` items collapse into one
        ``num * run`` addition (multiplication of the exact integer is
        the same integer as ``run`` sequential adds).  Bit-identical to
        replaying the items one at a time through :meth:`add_at`, in any
        order; an item that raises leaves the items before it banked,
        counted and on the clock, as that replay would.  The edge is
        re-evaluated once per block entered, after the loop.
        """
        decay = self._decay
        exp_kind = decay.kind == "exp"
        cfac = decay.rate * _LOG2_E
        log2g = decay.log2_g
        buckets = self._buckets
        touched: set[int] = set()
        now = self._time
        n = 0
        run = 0
        last_t = -1
        last_v = math.nan  # equal to no value: the first item is checked
        blo = 0.0
        bhi = -1.0  # empty range: the first item recomputes the block
        k = 0
        w = 1.0
        num = 0
        exp = 0
        pend = 0  # integer at exponent -52 awaiting the cached block
        slot: list[int] | None = None
        # Accepted items live in the blocks, in pend, or in the run of
        # (last_t, last_v) items, (run, num, exp), that is not banked yet;
        # their clock is max(now, last_t).  An item joins them only after
        # every check on it passed, so the tail below banks exactly the
        # accepted prefix, also when an item raises.
        try:
            for item in items:
                when = item.time
                value = item.value
                if when == last_t and value == last_v:
                    run += 1
                    n += 1
                    continue
                if not value >= 0:
                    raise InvalidParameterError(
                        f"value must be >= 0, got {value}"
                    )
                if when != last_t:
                    if when < 0:
                        raise InvalidParameterError(
                            f"time must be >= 0, got {when}"
                        )
                    if last_t > now:
                        now = last_t
                    f = cfac * when if exp_kind else log2g(when)
                    if not blo <= f < bhi:
                        # Leaving block k: bank everything deferred for it.
                        if run and num:
                            slot = _flush(buckets, k, slot, num, exp, run)
                            run = 0
                        if pend:
                            slot = _flush(buckets, k, slot, pend, -52, 1)
                            pend = 0
                        k = int(f * _INV_BLOCK)
                        blo = float(k << 6)
                        bhi = blo + 64.0
                        slot = buckets.get(k)
                        touched.add(k)
                    w = 2.0 ** (f - blo)
                if run and num:
                    # Contributions >= 1 land on the fixed -52 grid; defer
                    # them into one local integer (addition is associative,
                    # so the banked total is bit-identical) and only touch
                    # the slot for the rare sub-unit exponents.
                    if exp == -52:
                        pend += num if run == 1 else num * run
                    else:
                        slot = _flush(buckets, k, slot, num, exp, run)
                x = value * w
                if x >= 1.0:
                    if x >= _P52:
                        # Mirror _exact_parts branch for branch: x is
                        # already integer-valued here and x * _P52 could
                        # overflow.
                        if x == math.inf:
                            run = 0  # banked just above
                            raise InvalidParameterError(_OVERFLOW)
                        num = int(x)
                        exp = 0
                    else:
                        num = int(x * _P52)
                        exp = -52
                elif x > 0.0:
                    num, den = x.as_integer_ratio()
                    exp = 1 - den.bit_length()
                else:
                    num = 0
                last_t = when
                last_v = value
                run = 1
                n += 1
        finally:
            if run and num:
                slot = _flush(buckets, k, slot, num, exp, run)
            if pend:
                _flush(buckets, k, slot, pend, -52, 1)
            _settle(buckets, touched)
            self._items += n
            if last_t > now:
                now = last_t
            if now > self._time:
                self._time = now
        if until is not None:
            self.advance_to(until)

    # The tail flush and :meth:`add_batch` share :func:`_flush`; the loop
    # body above inlines the same arithmetic to spare a call per run.

    def _bank(self, when: int, value: float) -> None:
        decay = self._decay
        f = decay.log2_g(when)
        k = int(f * _INV_BLOCK)
        num, exp = _exact_parts(value * 2.0 ** (f - (k << 6)))
        if num:
            _flush(self._buckets, k, self._buckets.get(k), num, exp, 1)
            _settle(self._buckets, (k,))

    # -------------------------------------------------------------- reads

    def query(self) -> Estimate:
        """``S_g(T)`` -- exact in the forward arithmetic, block-folded.

        Blocks are folded highest-first, each converted through the same
        deterministic rounding, then renormalized by ``2**-log2 g(T)`` in
        the exponent: a pure function of ``(item multiset, T)``.  The fold
        runs in the top block's scale unless that passes the float range
        (blocks reach ``2**_ABSORB``); then it runs :data:`_REFOLD` bits
        lower, so the answer is ``inf`` only where the decayed sum is.
        """
        buckets = self._buckets
        if not buckets:
            return Estimate.exact(0.0)
        top = next(reversed(buckets))
        for shift in (0, _REFOLD):
            total = 0.0
            for k in reversed(buckets):
                num, exp = buckets[k]
                if num:
                    total += _scaled_float(
                        num, exp + (k - top) * _BLOCK_BITS - shift
                    )
            if total < math.inf:
                break
        f_t = self._decay.log2_g(self._time)
        value = total * 2.0 ** (top * _BLOCK_BITS + shift - f_t)
        return Estimate.exact(value)

    def _load_blocks(self, blocks: Iterable[Sequence[int]]) -> None:
        """Hold the restored ``[k, num, exp]`` blocks at or above the edge.

        Every block is checked before any is held, so a snapshot cannot
        size an allocation through the exponent it names; a block written
        by :func:`repro.serialize.engine_to_dict` under any earlier rule
        (every block, or the 34-block window) restores to the edge with
        the same answer.
        """
        if self._time < 0:
            raise InvalidParameterError(
                f"forward clock must be >= 0, got {self._time}"
            )
        top = int(self._decay.log2_g(self._time) * _INV_BLOCK)
        held: dict[int, list[int]] = {}
        last = -1
        for k, num, exp in blocks:
            # Writes bank into blocks 0 to the clock's, at the exponents
            # _exact_parts and the block sums produce, and no block
            # reaches 2**_ABSORB (2**130 near-DBL_MAX items), which keeps
            # every block at or above its own _floor_of.
            if not (isinstance(k, int) and last < k <= top):
                raise InvalidParameterError(
                    f"forward blocks must be increasing integers in "
                    f"[0, {top}], got {k!r} after {last}"
                )
            if not (
                isinstance(num, int)
                and isinstance(exp, int)
                and -1074 <= exp <= 0
                and 0 <= num
                and num.bit_length() - 1 + exp < _ABSORB
            ):
                raise InvalidParameterError(
                    f"forward block {k} must hold a non-negative integer "
                    f"below 2**{_ABSORB} at an exponent in [-1074, 0], got "
                    f"[{num!r}, {exp!r}]"
                )
            last = k
            if num:
                held[k] = [num, exp]
        self._buckets = held
        if held:
            _settle(held, held, next(reversed(held)) - _WINDOW + 1)

    def storage_report(self) -> StorageReport:
        register_bits = 0
        for num, _ in self._buckets.values():
            # mantissa bits plus one block-exponent field per bucket
            register_bits += max(1, num.bit_length()) + _BLOCK_BITS
        return StorageReport(
            engine="forward",
            buckets=len(self._buckets),
            timestamp_bits=bits_for_value(max(1, self._time)),
            register_bits=register_bits,
            notes={"exact": 1.0},
        )

    # -------------------------------------------------------------- merge

    def merge(self, other: "ForwardDecaySum") -> None:
        """Fold another forward sum in: exact block union (trivial monoid).

        The blocks are exact integers over a shared absolute-time scale,
        so merging is plain addition -- the merged engine is bit-identical
        to one that ingested the union stream in any order.
        """
        require_merge_operand(self, other)
        require_same_decay(self._decay, other._decay)
        align_merge_clocks(self, other)
        buckets = self._buckets
        for k, (num, exp) in other._buckets.items():
            if num:
                _flush(buckets, k, buckets.get(k), num, exp, 1)
        _settle(buckets, other._buckets)
        self._items += other._items

    def __repr__(self) -> str:
        return (
            f"ForwardDecaySum({self._decay!r}, time={self._time}, "
            f"blocks={len(self._buckets)})"
        )


def _exact_parts(contribution: float) -> tuple[int, int]:
    """The exact ``(num, exp)`` with ``contribution == num * 2**exp``.

    Every branch is lossless: a double at or above ``2**52`` is already
    integer-valued (exponent 0); in ``[1, 2**52)`` the fixed ``2**-52``
    grid holds every mantissa bit a double can have (see :data:`_P52`);
    below 1 the slower ``as_integer_ratio`` path keeps the sub-unit bits.
    Every write path (``add_at``/``add_batch``/``ingest``/``merge``)
    must agree with this function bit for bit -- it is what makes the
    block state a pure function of the item multiset.
    """
    if contribution >= _P52:
        if contribution == math.inf:
            raise InvalidParameterError(_OVERFLOW)
        return int(contribution), 0
    if contribution >= 1.0:
        return int(contribution * _P52), -52
    if contribution == 0.0:
        return 0, 0
    num, den = contribution.as_integer_ratio()
    return num, 1 - den.bit_length()


def _floor_of(k: int, slot: list[int]) -> int:
    """The lowest block that block ``k`` leaves able to move an answer.

    With ``L = floor(log2(num * 2**exp))`` the block's scale,
    ``k + floor((L - _ABSORB) / 64) + 1``: every block ``j`` below it has
    ``64 * (k - j) >= _ABSORB - L`` (see :data:`_ABSORB`).  It is at most
    ``k`` (no block reaches ``2**_ABSORB``), and it only rises as block
    ``k`` grows.
    """
    num, exp = slot
    return k + 1 + ((num.bit_length() - 1 + exp - _ABSORB) >> 6)


def _settle(
    buckets: dict[int, list[int]], touched: Iterable[int], edge: int = 0
) -> int:
    """Raise ``edge`` to the :func:`_floor_of` of each held block in
    ``touched``, drop every block below it, and return it.

    A write call passes the blocks it banked into, once, after banking
    (``_open`` has kept the window's floor, ``top - _WINDOW + 1``): a
    block it did not touch had its floor below the old edge, which no
    held block is under, so those floors need no second look.  The edge
    only rises as the multiset grows and a dropped block never sets it
    (its floor is at most itself), so the blocks kept -- exactly those
    at or above the edge of the whole item multiset -- stay a pure
    function of it.  ``buckets`` is in increasing block order, so the
    blocks dropped are its first ones.
    """
    for k in touched:
        slot = buckets.get(k)
        if slot is not None:
            floor = _floor_of(k, slot)
            if floor > edge:
                edge = floor
    while buckets:
        low = next(iter(buckets))
        if low >= edge:
            break
        del buckets[low]
    return edge


def _open(
    buckets: dict[int, list[int]], k: int, num: int, exp: int
) -> list[int] | None:
    """Create block ``k`` holding ``num * 2**exp``, unless it lies below
    the edge (the write is then dropped and ``None`` returned).

    Run only when a block is created.  A new top raises the window's
    floor, dropping the blocks under it; a block at or above the lowest
    held one is at or above the edge the call started with, so only a
    block below every held one settles the edge of them all first.
    Blocks stay in increasing order: a new top is appended, and a late
    block re-sorts the few held.
    """
    slot = [num, exp]
    top = next(reversed(buckets), -1)
    if k > top:
        _settle(buckets, (), k - _WINDOW + 1)
        buckets[k] = slot
        return slot
    if k < next(iter(buckets)) and k < _settle(
        buckets, buckets, top - _WINDOW + 1
    ):
        return None
    held = sorted([*buckets.items(), (k, slot)])
    buckets.clear()
    buckets.update(held)
    return slot


def _flush(
    buckets: dict[int, list[int]],
    k: int,
    slot: list[int] | None,
    num: int,
    exp: int,
    run: int,
) -> list[int] | None:
    """Bank ``run`` copies of ``num * 2**exp`` into block ``k`` exactly.

    ``num * run`` is the same integer as ``run`` sequential additions, so
    run-length collapsing preserves the bit-identity contracts.  Returns
    the (possibly freshly created) slot so callers can keep it cached,
    or ``None`` when block ``k`` lies below the edge (see :func:`_open`).
    """
    add = num if run == 1 else num * run
    if slot is None:
        return _open(buckets, k, add, exp)
    have = slot[1]
    if exp == have:
        slot[0] += add
    elif exp > have:
        slot[0] += add << (exp - have)
    else:
        slot[0] = (slot[0] << (have - exp)) + add
        slot[1] = exp
    return slot


class ForwardDecayAverage(DecayingAverage):
    """Forward-decayed average: a
    :class:`~repro.core.average.DecayingAverage` over two
    :class:`ForwardDecaySum`.

    The per-query normalization ``g(T - L)`` cancels in the ratio, so the
    average inherits forward decay's order-insensitivity; both components
    answer exactly, hence the bracket is the point value itself.
    """

    __slots__ = ()

    supports_out_of_order = True

    _report_name = "forward-avg"

    _num: ForwardDecaySum
    _den: ForwardDecaySum

    def __init__(self, decay: ForwardDecay) -> None:
        if not isinstance(decay, ForwardDecay):
            raise InvalidParameterError(
                "ForwardDecayAverage requires ForwardDecay"
            )
        super().__init__(
            decay,
            numerator=ForwardDecaySum(decay),
            denominator=ForwardDecaySum(decay),
        )

    def add_at(self, when: int, value: float) -> None:
        """Record a (possibly late) observation stamped ``when``."""
        if not value >= 0:
            raise InvalidParameterError(
                f"value must be >= 0 for decaying averages, got {value}"
            )
        self._num.add_at(when, value)
        self._den.add_at(when, 1.0)
        self._items += 1


class ExactForwardSum(EngineBase):
    """O(N) item-retaining forward reference (the conformance oracle).

    Keeps every item and evaluates ``sum v * 2**(f(t) - f(T))`` directly
    at query time -- weights never exceed 1, so nothing overflows.  The
    arithmetic shares nothing with :class:`ForwardDecaySum`'s block
    accumulator, which is what makes it a meaningful differential
    reference for CL001/CL008.
    """

    __slots__ = ("_decay", "_time", "_entries", "_items")

    supports_out_of_order = True

    def __init__(self, decay: ForwardDecay) -> None:
        if not isinstance(decay, ForwardDecay):
            raise InvalidParameterError("ExactForwardSum requires ForwardDecay")
        self._decay = decay
        self._time = 0
        self._entries: list[tuple[int, float]] = []
        self._items = 0

    @property
    def time(self) -> int:
        return self._time

    @property
    def decay(self) -> DecayFunction:
        return self._decay

    def advance(self, steps: int = 1) -> None:
        if steps < 0:
            raise InvalidParameterError(f"steps must be >= 0, got {steps}")
        self._time += steps

    def add(self, value: float = 1.0) -> None:
        self.add_at(self._time, value)

    def add_at(self, when: int, value: float = 1.0) -> None:
        if when < 0:
            raise InvalidParameterError(f"when must be >= 0, got {when}")
        if not value >= 0:
            raise InvalidParameterError(f"value must be >= 0, got {value}")
        if when > self._time:
            self._time = when
        self._entries.append((when, value))
        self._items += 1

    def add_batch(self, values: Sequence[float]) -> None:
        for value in values:
            self.add_at(self._time, value)

    def ingest(
        self, items: Iterable[TimedValue], *, until: int | None = None
    ) -> None:
        for item in items:
            self.add_at(item.time, item.value)
        if until is not None:
            self.advance_to(until)

    def query(self) -> Estimate:
        f_t = self._decay.log2_g(self._time)
        total = math.fsum(
            value * 2.0 ** (self._decay.log2_g(when) - f_t)
            for when, value in self._entries
        )
        return Estimate.exact(total)

    def merge(self, other: "ExactForwardSum") -> None:
        require_merge_operand(self, other)
        require_same_decay(self._decay, other._decay)
        align_merge_clocks(self, other)
        self._entries.extend(other._entries)
        self._items += other._items

    def storage_report(self) -> StorageReport:
        return StorageReport(
            engine="exact-forward",
            buckets=len(self._entries),
            timestamp_bits=len(self._entries)
            * bits_for_value(max(1, self._time)),
            register_bits=len(self._entries) * 64,
            notes={"exact": 1.0},
        )

    def __repr__(self) -> str:
        return (
            f"ExactForwardSum({self._decay!r}, time={self._time}, "
            f"items={self._items})"
        )
