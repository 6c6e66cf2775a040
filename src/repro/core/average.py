"""Decaying Average Problem (paper section 2.2).

The decaying average ``A_g(T)`` is the ratio of two decaying sums: the
numerator over the value stream ``{(t_i, f_i)}`` and the denominator over
the unit stream ``{(t_i, 1)}``. As the paper observes, an approximate
average follows from approximate solutions to the two decaying-sum
instances; the bracket of the ratio is obtained by interval division of the
component brackets.  :class:`~repro.core.forward.ForwardDecayAverage` is
this class over two forward-decay sums.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.batching import EngineBase
from repro.core.decay import DecayFunction
from repro.core.errors import EmptyAggregateError, InvalidParameterError
from repro.core.estimate import Estimate
from repro.core.interfaces import DecayingSum, make_decaying_sum
from repro.storage.model import StorageReport

__all__ = ["DecayingAverage"]


class DecayingAverage(EngineBase):
    """Time-decaying weighted average over any decay function.

    By default both component sums use the storage-optimal engine chosen by
    :func:`repro.core.interfaces.make_decaying_sum`; callers may inject
    pre-built engines (e.g. two exact engines for ground truth).
    """

    __slots__ = ("_decay", "_num", "_den", "_items")

    #: The ``engine`` name of :meth:`storage_report`.
    _report_name = "avg"

    def __init__(
        self,
        decay: DecayFunction,
        epsilon: float = 0.1,
        *,
        numerator: DecayingSum | None = None,
        denominator: DecayingSum | None = None,
    ) -> None:
        self._decay = decay
        self._num = numerator or make_decaying_sum(decay, epsilon)
        self._den = denominator or make_decaying_sum(decay, epsilon)
        if self._num is self._den:
            raise InvalidParameterError(
                "numerator and denominator must be distinct engines"
            )
        self._items = 0

    @property
    def time(self) -> int:
        return self._num.time

    @property
    def decay(self) -> DecayFunction:
        return self._decay

    @property
    def items_observed(self) -> int:
        return self._items

    def add(self, value: float) -> None:
        """Record one observation ``f_i = value`` at the current time.

        Unlike the sum engines, averages accept any real value: the value is
        split into positive magnitude plus an offset-free handling is not
        needed because the engines only ever weight it; negative values are
        rejected to keep the component sums in their documented domain.
        """
        if not value >= 0:
            raise InvalidParameterError(
                f"value must be >= 0 for decaying averages, got {value}"
            )
        self._num.add(value)
        self._den.add(1.0)
        self._items += 1

    def add_batch(self, values: Sequence[float]) -> None:
        """Several observations at the current time, one :meth:`add` each."""
        for value in values:
            self.add(value)

    def advance(self, steps: int = 1) -> None:
        self._num.advance(steps)
        self._den.advance(steps)

    def query(self) -> Estimate:
        """Estimate ``A_g(T)`` with an interval-division bracket."""
        if self._items == 0:
            raise EmptyAggregateError("decaying average of an empty stream")
        num = self._num.query()
        den = self._den.query()
        if den.value <= 0.0:
            raise EmptyAggregateError(
                "all observed items have decayed to zero weight"
            )
        value = num.value / den.value
        lower = num.lower / den.upper if den.upper > 0 else 0.0
        upper = num.upper / den.lower if den.lower > 0 else math.inf
        lower = min(lower, value)
        upper = max(upper, value)
        return Estimate(value=value, lower=lower, upper=upper)

    def storage_report(self) -> StorageReport:
        return self._num.storage_report().combined(
            self._den.storage_report(), engine=self._report_name
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._decay!r}, time={self.time})"
