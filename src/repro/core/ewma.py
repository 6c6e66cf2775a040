"""Exponential and polyexponential decay via constant-size registers.

Implements the classic recurrence the paper opens with (Eq. 1),

    S_EXPD(t) = f(t) + exp(-lam) * S_EXPD(t - 1),

its weighted-average form ``C <- (1 - w) x + w C`` used by RED and the other
section 1.1 applications, a bit-quantized variant for the Lemma 3.1 storage
experiments, and the polyexponential pipeline of section 3.4: decay by
``p_k(x) exp(-lam x)`` through ``k + 1`` cascaded exponential registers
(Brown's double/triple smoothing for k = 1, 2).
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Sequence

from repro.core.batching import EngineBase
from repro.core.decay import (
    DecayFunction,
    ExponentialDecay,
    PolyexponentialDecay,
    PolyExpPolynomialDecay,
)
from repro.core.errors import (
    EmptyAggregateError,
    InvalidParameterError,
    TimeOrderError,
)
from repro.core.estimate import Estimate
from repro.core.merging import (
    align_merge_clocks,
    require_merge_operand,
    require_same_decay,
)
from repro.storage.model import StorageReport

__all__ = [
    "ExponentialSum",
    "QuantizedExponentialSum",
    "EwmaRegister",
    "PolyexponentialSum",
    "GeneralPolyexpSum",
    "PolyexpPipeline",
]


@lru_cache
def _tick_factor(lam: float) -> float:
    """``exp(-lam)``, the per-tick decay factor.  One float per rate: a
    keyed store holds one register per key, all over the same decay."""
    return math.exp(-lam)


@lru_cache
def _inverse_factorials(k: int) -> tuple[float, ...]:
    """``1/j!`` for ``j <= k``, one tuple per pipeline order."""
    return tuple(1.0 / math.factorial(i) for i in range(k + 1))


#: A write may not raise a pipeline's :func:`_reach` to this or past it.
#: ``check`` refuses a reach of twice this: a state the writes made stays
#: below that after any rounding of its advances, and no rounding carries
#: a reach below that past the float range.
_WRITE_REACH = sys.float_info.max / 4


def _reach(
    moments: Sequence[float], lam: float, inv_fact: Sequence[float]
) -> float:
    """A bound on every value a pipeline holding ``moments`` forms from
    now on: each moment, and each partial sum ``advance`` takes before it
    applies ``exp(-lam)``, on this tick and on every later one.

    ``V_i = sum_{j <= i} lam**(j - i) M_j`` is at least ``M_i``, and no
    advance raises it: ``s`` ticks run the flow ``dM_i/dt = M_{i-1} -
    lam M_i`` for time ``s``, along which ``dV_i/dt = -lam M_i``.  A
    partial sum on the way to ``M_i`` is at most ``sum_{j <= i} M_j /
    (i - j)!``, hence at most ``sum_{j <= i} V_j / (i - j)!``, which does
    not grow either.  The reach, the largest of those sums, therefore
    only falls as the clock advances: a state passes a test on it
    whenever the state it was advanced from did.  Past the float range
    it reads ``inf``.
    """
    v: list[float] = []
    acc = 0.0
    for moment in moments:
        acc = acc / lam + moment
        v.append(acc)
    return max(
        sum(v[j] * inv_fact[i - j] for j in range(i + 1)) for i in range(len(v))
    )


@lru_cache
def _growth_bound(k: int, lam: float) -> float:
    """:func:`_reach` of moments that are all 1.  The reach sums moments
    with non-negative coefficients, so no moments reach further than
    their largest times this."""
    return _reach((1.0,) * (k + 1), lam, _inverse_factorials(k))


def _expd_register_bits(lam: float, time: int, items: int, mantissa_bits: int) -> int:
    """Bits of one EXPD register under the storage model.

    The register's magnitude spans from ``exp(-lam * T)`` (one ancient item)
    up to the total count, so its exponent is an integer of magnitude about
    ``lam * T / ln 2``; storing that exponent costs Theta(log(lam * T)) =
    Theta(log N) bits, which is exactly the paper's Lemma 3.1 upper bound.
    """
    exponent_magnitude = 1.0 + lam * max(1, time) / math.log(2) + math.log2(1 + items)
    exponent_bits = max(1, math.ceil(math.log2(exponent_magnitude + 1)))
    return exponent_bits + mantissa_bits + 1


class ExponentialSum(EngineBase):
    """EXPD decaying sum via the single-register recurrence (paper Eq. 1)."""

    __slots__ = ("_decay", "_factor", "_sum", "_time", "_items")

    def __init__(self, decay: ExponentialDecay) -> None:
        if not isinstance(decay, ExponentialDecay):
            raise InvalidParameterError("ExponentialSum requires ExponentialDecay")
        self._decay = decay
        self._factor = _tick_factor(decay.lam)
        self._sum = 0.0
        self._time = 0
        self._items = 0

    @property
    def time(self) -> int:
        return self._time

    @property
    def decay(self) -> DecayFunction:
        return self._decay

    def add(self, value: float = 1.0) -> None:
        total = self._sum + value
        if not (value >= 0 and total < math.inf):
            raise InvalidParameterError(
                f"value must be >= 0 and keep the register finite, got {value}"
            )
        self._sum = total
        self._items += 1

    def add_batch(self, values: Sequence[float]) -> None:
        """Fold a whole batch into the register: one state write per batch.

        The fold keeps the left-to-right accumulation order of sequential
        ``add`` calls, so the register is bit-identical either way.
        Validation shares the fold loop (one pass, no intermediate list;
        an overflow check after it); the register is only written once the
        whole batch has passed.
        """
        acc = self._sum
        n = 0
        for value in values:
            if not value >= 0:
                raise InvalidParameterError(f"value must be >= 0, got {value}")
            acc += value
            n += 1
        if not acc < math.inf:
            raise InvalidParameterError("weights must keep the register finite")
        self._sum = acc
        self._items += n

    def advance(self, steps: int = 1) -> None:
        if steps < 0:
            raise InvalidParameterError(f"steps must be >= 0, got {steps}")
        if steps:
            self._sum *= self._factor**steps
            self._time += steps

    def query(self) -> Estimate:
        return Estimate.exact(self._sum)

    def check(self) -> None:
        """Refuse a register no write can produce: it is finite and >= 0.

        Run on restore (:func:`repro.serialize.engine_from_dict`), never
        on the ingest path, whose writes keep the register in range.
        """
        if not 0 <= self._sum < math.inf:
            raise InvalidParameterError(
                f"EXPD register must be finite and >= 0, got {self._sum}"
            )

    def merge(self, other: "ExponentialSum") -> None:
        """Fold another EXPD register into this one by addition.

        ``S_EXPD`` is linear in the stream, so the union stream's register
        is the sum of the shard registers.  Unequal clocks are aligned by
        advancing the younger operand (a pure ``factor**steps`` scale)
        first.
        """
        require_merge_operand(self, other)
        require_same_decay(self._decay, other._decay)
        align_merge_clocks(self, other)
        total = self._sum + other._sum
        if not total < math.inf:
            raise InvalidParameterError("merge must keep the register finite")
        self._sum = total
        self._items += other._items

    def storage_report(self) -> StorageReport:
        # ``exact`` flags an exact register route: the factory's epsilon
        # bought nothing here (see ``make_decaying_sum``).
        return StorageReport(
            engine="ewma",
            register_bits=_expd_register_bits(
                self._decay.lam, self._time, self._items, mantissa_bits=52
            ),
            notes={"exact": 1.0},
        )


class QuantizedExponentialSum(ExponentialSum):
    """EXPD register truncated to ``mantissa_bits`` after every tick.

    Demonstrates Lemma 3.1's trade-off between register width and accuracy:
    relative error after N steps is about ``N * 2**-mantissa_bits`` in the
    worst case, so Theta(log N) mantissa bits keep the estimate within any
    fixed ``(1 +- eps)``.
    """

    __slots__ = ("mantissa_bits", "_extra_ops")

    def __init__(self, decay: ExponentialDecay, mantissa_bits: int) -> None:
        super().__init__(decay)
        if mantissa_bits < 1:
            raise InvalidParameterError("mantissa_bits must be >= 1")
        self.mantissa_bits = int(mantissa_bits)
        # Quantizations not accounted by time/items: one per merge.
        self._extra_ops = 0

    def _quantize(self, x: float) -> float:
        if x == 0.0:
            return 0.0
        mantissa, exponent = math.frexp(x)
        scale = 2.0**self.mantissa_bits
        return math.ldexp(math.floor(mantissa * scale) / scale, exponent)

    def add(self, value: float = 1.0) -> None:
        super().add(value)
        self._sum = self._quantize(self._sum)

    def add_batch(self, values: Sequence[float]) -> None:
        """Quantization after *every* item is part of this engine's
        contract (it is what Lemma 3.1 accounts), so the batch path is the
        sequential loop."""
        for value in values:
            self.add(value)

    def advance(self, steps: int = 1) -> None:
        if steps < 0:
            raise InvalidParameterError(f"steps must be >= 0, got {steps}")
        for _ in range(steps):
            self._sum = self._quantize(self._sum * self._factor)
            self._time += 1

    def merge(self, other: "ExponentialSum") -> None:
        """Register addition followed by one re-quantization.

        The extra truncation is charged to the error budget through
        ``_extra_ops`` so the certified upper bound stays sound.
        """
        if not isinstance(other, QuantizedExponentialSum):
            raise InvalidParameterError(
                "can only merge another QuantizedExponentialSum"
            )
        if other.mantissa_bits != self.mantissa_bits:
            raise InvalidParameterError(
                "cannot merge registers of different mantissa widths"
            )
        super().merge(other)
        self._extra_ops += 1 + other._extra_ops
        self._sum = self._quantize(self._sum)

    def query(self) -> Estimate:
        # Each quantization multiplies the stored value by (1 - delta) with
        # 0 <= delta < 2**-mantissa_bits; after `ops` operations the true sum
        # lies within [stored, stored / (1 - u)**ops].  The merged-in
        # operand's own quantizations are dominated by the same count once
        # its items and extra merge ops are folded in.
        ops = self._time + self._items + self._extra_ops
        u = 2.0**-self.mantissa_bits
        if u * ops >= 1.0:
            upper = math.inf if self._sum > 0 else 0.0
        else:
            upper = self._sum / (1.0 - u) ** ops
        return Estimate(value=self._sum, lower=self._sum, upper=upper)

    def storage_report(self) -> StorageReport:
        return StorageReport(
            engine=f"ewma[{self.mantissa_bits}b]",
            register_bits=_expd_register_bits(
                self._decay.lam, self._time, self._items, self.mantissa_bits
            ),
        )


class EwmaRegister:
    """The applications-style weighted average ``C <- (1 - w) x + w C``.

    This is the exact formula quoted in section 1.2 (RED queue averaging,
    ATM holding times, gateway ratings): one observation per update, with the
    contribution of an observation made ``T`` updates ago scaled by ``w**T``.
    """

    __slots__ = ("w", "_value", "updates")

    def __init__(self, w: float, initial: float | None = None) -> None:
        if not 0 < w < 1:
            raise InvalidParameterError(f"w must be in (0, 1), got {w}")
        self.w = float(w)
        self._value = initial
        self.updates = 0

    @property
    def value(self) -> float:
        if self._value is None:
            raise EmptyAggregateError("EwmaRegister has no observations yet")
        return self._value

    @property
    def initialized(self) -> bool:
        return self._value is not None

    def observe(self, x: float) -> float:
        """Fold one observation in and return the new average."""
        if self._value is None:
            self._value = float(x)
        else:
            self._value = (1.0 - self.w) * x + self.w * self._value
        self.updates += 1
        return self._value


class PolyexpPipeline:
    """All polyexponential moments ``M_j(T) = sum_t f(t) w_j(T - t)``.

    ``w_j(a) = a**j exp(-lam a) / j!``. The pipeline update (derived by
    expanding ``(a + 1)**k``) is

        M_k(T + 1) = exp(-lam) * sum_{j<=k} M_j(T) / (k - j)!  [+ f(T+1) for k=0]

    so ``k + 1`` registers suffice for any decay ``p_k(x) exp(-lam x)`` --
    the section 3.4 reduction.
    """

    __slots__ = (
        "k", "lam", "_factor", "_m", "_inv_fact", "_growth", "_time", "_items",
    )

    def __init__(self, k: int, lam: float) -> None:
        if k < 0:
            raise InvalidParameterError(f"k must be >= 0, got {k}")
        if not lam > 0:
            raise InvalidParameterError(f"lambda must be > 0, got {lam}")
        self.k = int(k)
        self.lam = float(lam)
        self._factor = _tick_factor(self.lam)
        self._m = [0.0] * (self.k + 1)
        self._inv_fact = _inverse_factorials(self.k)
        self._growth = _growth_bound(self.k, self.lam)
        self._time = 0
        self._items = 0

    @property
    def time(self) -> int:
        return self._time

    def moments(self) -> list[float]:
        """Current values ``[M_0, ..., M_k]``."""
        return list(self._m)

    def add(self, value: float = 1.0) -> None:
        # A new item has age 0: w_0(0) = 1, w_j(0) = 0 for j >= 1.
        self.add_batch((value,))

    def add_batch(self, values: Sequence[float]) -> None:
        """Fold a batch into ``M_0`` (the only register items touch at age
        0); bit-identical to sequential ``add`` calls. One pass: validation
        rides the fold loop and the register is written once at the end.

        A batch is refused, changing nothing, when it raises the moments'
        :func:`_reach` to ``_WRITE_REACH``, so no later advance turns a
        finite weight into an infinite moment."""
        acc = self._m[0]
        n = 0
        for value in values:
            if not value >= 0:
                raise InvalidParameterError(f"value must be >= 0, got {value}")
            acc += value
            n += 1
        if not self._admits([acc, *self._m[1:]]):
            raise InvalidParameterError(
                "weights must keep every moment finite on later ticks"
            )
        self._m[0] = acc
        self._items += n

    def _admits(self, moments: list[float]) -> bool:
        """Whether a write may leave ``moments``: it does not raise their
        :func:`_reach` to ``_WRITE_REACH``.  A reach only falls as the
        clock advances, so a write that adds nothing is always admitted."""
        if max(moments) * self._growth < _WRITE_REACH:
            return True
        reach = _reach(moments, self.lam, self._inv_fact)
        return reach < _WRITE_REACH or reach <= _reach(
            self._m, self.lam, self._inv_fact
        )

    def advance(self, steps: int = 1) -> None:
        if steps < 0:
            raise InvalidParameterError(f"steps must be >= 0, got {steps}")
        for _ in range(steps):
            prev = self._m
            nxt = [0.0] * (self.k + 1)
            for kk in range(self.k + 1):
                acc = 0.0
                for j in range(kk + 1):
                    acc += prev[j] * self._inv_fact[kk - j]
                nxt[kk] = self._factor * acc
            self._m = nxt
            self._time += 1

    def merge(self, other: "PolyexpPipeline") -> None:
        """Elementwise moment addition (each ``M_j`` is linear in the
        stream).  Requires identical pipeline shape and equal clocks; the
        engine wrappers align clocks before delegating here."""
        if other.k != self.k or other.lam != self.lam:
            raise InvalidParameterError(
                "cannot merge pipelines of different shape"
            )
        if other._time != self._time:
            raise TimeOrderError(
                f"clock mismatch: {self._time} vs {other._time}"
            )
        moments = [a + b for a, b in zip(self._m, other._m)]
        if not self._admits(moments):
            raise InvalidParameterError(
                "merge must keep every moment finite on later ticks"
            )
        self._m = moments
        self._items += other._items

    def check(self) -> None:
        """Refuse moments no write can produce: each is finite and >= 0,
        and their :func:`_reach` is below twice ``_WRITE_REACH``, so no
        later advance carries them past the float range.

        Run on restore (:func:`repro.serialize.engine_from_dict`), never
        on the ingest path, whose writes keep the reach below
        ``_WRITE_REACH``.
        """
        for j, moment in enumerate(self._m):
            if not 0 <= moment < math.inf:
                raise InvalidParameterError(
                    f"polyexponential moment M_{j} must be finite and >= 0, "
                    f"got {moment}"
                )
        if not _reach(self._m, self.lam, self._inv_fact) < 2 * _WRITE_REACH:
            raise InvalidParameterError(
                "polyexponential moments must stay finite on later ticks"
            )

    def combine(self, poly_coeffs: Sequence[float]) -> float:
        """Decaying sum under ``g(a) = (sum_j c_j a**j) exp(-lam a)``.

        ``poly_coeffs[j]`` is ``c_j``; the answer is
        ``sum_j c_j * j! * M_j`` since ``M_j`` carries the ``1/j!`` factor.
        """
        if len(poly_coeffs) > self.k + 1:
            raise InvalidParameterError(
                f"polynomial degree {len(poly_coeffs) - 1} exceeds pipeline k={self.k}"
            )
        total = 0.0
        for j, c in enumerate(poly_coeffs):
            total += c * math.factorial(j) * self._m[j]
        return total

    def storage_report(self) -> StorageReport:
        per_register = _expd_register_bits(
            self.lam, self._time, self._items, mantissa_bits=52
        )
        return StorageReport(
            engine=f"polyexp[k={self.k}]",
            register_bits=per_register * (self.k + 1),
            notes={"exact": 1.0},
        )


class _PolyexpSum(EngineBase):
    """The §3.4 pipeline behind one decay: everything but the answer.

    A subclass holds ``_decay`` and ``_pipe`` and says how the moments
    ``M_0..M_k`` combine into its decaying sum (``query``).
    """

    __slots__ = ()

    _decay: DecayFunction
    _pipe: PolyexpPipeline

    @property
    def time(self) -> int:
        return self._pipe.time

    @property
    def decay(self) -> DecayFunction:
        return self._decay

    def add(self, value: float = 1.0) -> None:
        self._pipe.add(value)

    def add_batch(self, values: Sequence[float]) -> None:
        self._pipe.add_batch(values)

    def advance(self, steps: int = 1) -> None:
        self._pipe.advance(steps)

    def merge(self, other: "_PolyexpSum") -> None:
        """Moment-register addition after clock alignment (§3.4 linearity)."""
        require_merge_operand(self, other)
        require_same_decay(self._decay, other._decay)
        align_merge_clocks(self, other)
        self._pipe.merge(other._pipe)


class GeneralPolyexpSum(_PolyexpSum):
    """Decaying sum under ``p(x) e^{-lam x}`` via the §3.4 reduction.

    ``k + 1`` pipelined exponential registers track the moments
    ``M_0..M_k``; the answer is the linear combination
    ``sum_j c_j * j! * M_j``. Exact up to float arithmetic, constant work
    per tick, Theta(k log N) bits.
    """

    __slots__ = ("_decay", "_pipe")

    _decay: PolyExpPolynomialDecay

    def __init__(self, decay: PolyExpPolynomialDecay) -> None:
        if not isinstance(decay, PolyExpPolynomialDecay):
            raise InvalidParameterError(
                "GeneralPolyexpSum requires PolyExpPolynomialDecay"
            )
        self._decay = decay
        self._pipe = PolyexpPipeline(len(decay.coeffs) - 1, decay.lam)

    def query(self) -> Estimate:
        return Estimate.exact(self._pipe.combine(self._decay.coeffs))

    def storage_report(self) -> StorageReport:
        report = self._pipe.storage_report()
        report.engine = f"polyexp-poly[deg={self._pipe.k}]"
        return report


class PolyexponentialSum(_PolyexpSum):
    """Decaying sum under :class:`PolyexponentialDecay` via the pipeline."""

    __slots__ = ("_decay", "_pipe")

    def __init__(self, decay: PolyexponentialDecay) -> None:
        if not isinstance(decay, PolyexponentialDecay):
            raise InvalidParameterError(
                "PolyexponentialSum requires PolyexponentialDecay"
            )
        self._decay = decay
        self._pipe = PolyexpPipeline(decay.k, decay.lam)

    def query(self) -> Estimate:
        # g(a) = a**k exp(-lam a)/k! = w_k(a), i.e. exactly M_k.
        return Estimate.exact(self._pipe.moments()[self._pipe.k])

    def storage_report(self) -> StorageReport:
        return self._pipe.storage_report()
