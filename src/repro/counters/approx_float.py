"""Quantized floating-point counters (paper section 5, approximate counts).

WBMH stores each bucket count only approximately: a floating-point number
whose exponent costs ``log log N`` bits and whose mantissa is truncated to
``log(1/beta)`` bits. Rounding at merge level ``i`` uses
``beta_i ~ eps / i**2`` so the total multiplicative drift over any merge
tree is at most ``prod_i (1 + beta_i) <= 1 + eps`` without knowing ``N`` in
advance -- the refinement at the end of section 5.

This module provides the rounding primitive and the level schedule; WBMH
composes them.
"""

from __future__ import annotations

import math

from repro.core.errors import InvalidParameterError

__all__ = [
    "truncate_mantissa",
    "LevelQuantizer",
    "FixedQuantizer",
]


def truncate_mantissa(x: float, mantissa_bits: int) -> float:
    """Round ``x >= 0`` down to ``mantissa_bits`` significant bits.

    The result ``q`` satisfies ``q <= x <= q * (1 + 2**(1 - mantissa_bits))``
    (truncation loses less than one unit in the last mantissa place).
    """
    if x < 0:
        raise InvalidParameterError(f"value must be >= 0, got {x}")
    if mantissa_bits < 1:
        raise InvalidParameterError("mantissa_bits must be >= 1")
    if x == 0.0:
        return 0.0
    mantissa, exponent = math.frexp(x)  # mantissa in [0.5, 1)
    scale = float(1 << mantissa_bits)
    return math.ldexp(math.floor(mantissa * scale) / scale, exponent)


class LevelQuantizer:
    """The ``beta_i = c * eps / i**2`` rounding schedule of section 5.

    ``mantissa_bits(level)`` gives the stored mantissa width for a count
    produced at merge-tree depth ``level``; ``drift_factor(level)`` bounds
    the accumulated multiplicative error ``prod_{i<=level} (1 + beta_i)``,
    which stays below ``1 + eps`` for every level because
    ``sum 1/i**2 = pi**2 / 6``.
    """

    #: Normalization making ``sum_i beta_i <= eps``.
    _NORM = 6.0 / math.pi**2

    def __init__(self, eps: float) -> None:
        if not 0 < eps < 1:
            raise InvalidParameterError(f"eps must be in (0, 1), got {eps}")
        self.eps = float(eps)
        # Per-level constants, grown on demand: WBMH reads a drift factor
        # per bucket on every query and a mantissa width on every merge.
        # ``_drift[i]`` is the running product the loop below would reach
        # after ``i`` factors, so cached and fresh values are the same floats.
        self._drift = [1.0]
        self._bits: dict[int, int] = {}

    def beta(self, level: int) -> float:
        """Relative rounding tolerance at merge depth ``level >= 1``."""
        if level < 1:
            raise InvalidParameterError("level must be >= 1")
        return self.eps * self._NORM / level**2

    def mantissa_bits(self, level: int) -> int:
        """Stored mantissa width at depth ``level``: ``log(1/eps) + 2 log i``.

        Chosen so that truncation error ``2**(1 - bits) <= beta(level)``.
        """
        bits = self._bits.get(level)
        if bits is None:
            b = self.beta(level)
            bits = self._bits[level] = max(1, math.ceil(1.0 - math.log2(b)))
        return bits

    def quantize(self, x: float, level: int) -> float:
        """Truncate ``x`` for storage at merge depth ``level``."""
        return truncate_mantissa(x, self.mantissa_bits(level))

    def drift_factor(self, level: int) -> float:
        """Upper bound on ``true / stored`` after ``level`` nested merges."""
        drift = self._drift
        while len(drift) <= level:
            drift.append(drift[-1] * (1.0 + self.beta(len(drift))))
        return drift[level] if level > 0 else 1.0


class FixedQuantizer:
    """The paper's known-horizon rounding: ``beta = eps / log N`` at every level.

    Section 5's primary scheme: with the horizon ``N`` known in advance,
    every merge rounds to the same relative precision ``beta = eps/log2(N)``
    and the accumulated drift over a depth-``log N`` merge tree stays below
    ``(1 + beta)**log N ~ 1 + eps``. Cheaper per bucket than the adaptive
    :class:`LevelQuantizer` (``log(1/eps) + log log N`` mantissa bits,
    no ``2 log i`` term), which is what realizes the Lemma 5.1 storage gap
    at practical horizons.
    """

    def __init__(self, eps: float, horizon: int) -> None:
        if not 0 < eps < 1:
            raise InvalidParameterError(f"eps must be in (0, 1), got {eps}")
        if horizon < 2:
            raise InvalidParameterError(f"horizon must be >= 2, got {horizon}")
        self.eps = float(eps)
        self.horizon = int(horizon)
        self._beta = eps / math.log2(horizon)
        self._bits = max(1, math.ceil(1.0 - math.log2(self._beta)))
        self._drift: dict[int, float] = {}

    def beta(self, level: int) -> float:
        if level < 1:
            raise InvalidParameterError("level must be >= 1")
        return self._beta

    def mantissa_bits(self, level: int) -> int:
        return self._bits

    def quantize(self, x: float, level: int) -> float:
        return truncate_mantissa(x, self._bits)

    def drift_factor(self, level: int) -> float:
        drift = self._drift.get(level)
        if drift is None:
            drift = self._drift[level] = (1.0 + self._beta) ** level
        return drift
