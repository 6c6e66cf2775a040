"""Higher time-decaying moments (the section 7.3 reduction, generalized).

The paper points (via Cohen & Kaplan 2004) at reducing decayed moments to
polylogarithmically many decayed counts. For the standard power moments the
reduction is direct: maintaining the decayed sums ``S_j = sum g * f**j``
for ``j = 0..k`` yields every raw and central moment up to order ``k``:

    raw_j     = S_j / S_0
    central_k = sum_{j<=k} C(k, j) * raw_j * (-mean)**(k-j)

from which variance (k = 2), skewness and kurtosis follow.
:class:`DecayedMoments` maintains the ``k + 1`` sums with any real-valued
decaying-sum engine (the same choices as
:class:`~repro.moments.variance.DecayedVariance`).

The conditioning caveat compounds with the order: relative error of a
central moment inflates by roughly ``S_k / central_k``; see
:meth:`DecayedMoments.conditioning`.
"""

from __future__ import annotations

import math

from repro.core.decay import DecayFunction
from repro.core.errors import EmptyAggregateError, InvalidParameterError
from repro.moments.variance import _real_engine
from repro.storage.model import StorageReport

__all__ = ["DecayedMoments"]


class DecayedMoments:
    """Raw/central decayed moments up to ``max_order`` for any decay."""

    def __init__(
        self,
        decay: DecayFunction,
        max_order: int = 4,
        epsilon: float = 0.05,
        *,
        engine_factory=None,
    ) -> None:
        if max_order < 1:
            raise InvalidParameterError("max_order must be >= 1")
        factory = engine_factory or (lambda: _real_engine(decay, epsilon))
        self._decay = decay
        self.max_order = int(max_order)
        self._sums = [factory() for _ in range(self.max_order + 1)]
        self._items = 0

    @property
    def time(self) -> int:
        return self._sums[0].time

    @property
    def decay(self) -> DecayFunction:
        return self._decay

    def add(self, value: float) -> None:
        if not value >= 0:
            raise InvalidParameterError(
                f"value must be >= 0 for the sum engines, got {value}"
            )
        power = 1.0
        for engine in self._sums:
            engine.add(power)
            power *= value
        self._items += 1

    def advance(self, steps: int = 1) -> None:
        for engine in self._sums:
            engine.advance(steps)

    def weight_total(self) -> float:
        """``S_0 = sum g`` -- the decayed count of observations."""
        return self._sums[0].query().value

    def raw_moment(self, order: int) -> float:
        """``E_g[f**order]`` -- the g-weighted raw moment."""
        self._check_order(order)
        s0 = self.weight_total()
        if s0 <= 0:
            raise EmptyAggregateError("no decayed weight in the stream")
        return self._sums[order].query().value / s0

    def mean(self) -> float:
        return self.raw_moment(1)

    def central_moment(self, order: int) -> float:
        """``E_g[(f - mean)**order]`` via the binomial expansion."""
        self._check_order(order)
        mean = self.mean()
        total = 0.0
        for j in range(order + 1):
            raw_j = 1.0 if j == 0 else self.raw_moment(j)
            total += math.comb(order, j) * raw_j * (-mean) ** (order - j)
        return total

    def variance(self) -> float:
        """Normalized decayed variance ``E_g[(f - mean)**2]``.

        Note: the paper's section 7.3 quantity ``V_g^2 = sum g (f - A)^2``
        (implemented by :class:`~repro.moments.variance.DecayedVariance`)
        is the *unnormalized* form; it equals this times
        :meth:`weight_total`.
        """
        return max(0.0, self.central_moment(2))

    def skewness(self) -> float:
        """Standardized third central moment (0 for symmetric streams)."""
        var = self.variance()
        if var <= 0:
            raise EmptyAggregateError("zero variance: skewness undefined")
        return self.central_moment(3) / var**1.5

    def kurtosis(self) -> float:
        """Standardized fourth central moment (3 for a Gaussian)."""
        if self.max_order < 4:
            raise InvalidParameterError("kurtosis needs max_order >= 4")
        var = self.variance()
        if var <= 0:
            raise EmptyAggregateError("zero variance: kurtosis undefined")
        return self.central_moment(4) / var**2

    def conditioning(self, order: int) -> float:
        """Error inflation ``raw_order / |central_order|`` (inf when 0)."""
        self._check_order(order)
        central = self.central_moment(order)
        if central == 0.0:
            return math.inf
        return abs(self.raw_moment(order) / central)

    def storage_report(self) -> StorageReport:
        report = self._sums[0].storage_report()
        for engine in self._sums[1:]:
            report = report.combined(engine.storage_report())
        report.engine = f"moments[k={self.max_order}]"
        return report

    def _check_order(self, order: int) -> None:
        if not 1 <= order <= self.max_order:
            raise InvalidParameterError(
                f"order must be in [1, {self.max_order}], got {order}"
            )
