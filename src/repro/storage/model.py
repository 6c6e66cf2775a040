"""Information-theoretic storage accounting (paper section 2.3).

The paper's results are statements about *bits of storage*: Theta(log N) for
exponential decay, Theta(log^2 N) for sliding windows and general decay via
cascaded Exponential Histograms, O(log N log log N) for polynomial decay via
WBMH, Omega(N) for exact tracking. CPython object sizes cannot exhibit these
shapes (a tiny int already costs 28 bytes), so every engine reports what a
bit-packed implementation of its state would store:

* ``timestamp_bits`` -- bits for per-bucket time boundaries. An Exponential
  Histogram must store a timestamp per bucket (log N bits each); a WBMH's
  boundaries are stream-independent (section 5) and therefore count toward
  ``shared_bits`` instead, amortized to zero across streams.
* ``count_bits`` -- bits for per-bucket counts. Exact counts of values up to
  N cost log N bits; WBMH's quantized counts cost
  ``log log N + log(1/beta)`` bits (exponent + truncated mantissa).
* ``register_bits`` -- bits of scalar registers (the EWMA accumulator, the
  current clock, Morris counter exponents).
* ``shared_bits`` -- stream-independent state that a deployment maintaining
  many streams (the paper's 100M-customer scenario) stores once.

``per_stream_bits`` -- the quantity all benchmarks plot -- excludes
``shared_bits``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.errors import InvalidParameterError

__all__ = [
    "StorageReport",
    "bits_for_value",
    "bits_for_count",
    "float_register_bits",
]


def bits_for_value(max_value: int) -> int:
    """Bits needed to store one integer in ``[0, max_value]``.

    ``bits_for_value(0) == 1``: even a constant register occupies one bit in
    this model, which keeps sums over empty structures honest.
    """
    if max_value < 0:
        raise InvalidParameterError(f"max_value must be >= 0, got {max_value}")
    return max(1, math.ceil(math.log2(max_value + 1)))


def bits_for_count(count: int) -> int:
    """Bits for an exact non-negative counter currently holding ``count``."""
    return bits_for_value(count)


def float_register_bits(max_magnitude: float, mantissa_bits: int) -> int:
    """Bits for one quantized floating-point register.

    The exponent must span magnitudes up to ``max_magnitude`` (log log bits),
    the mantissa is truncated to ``mantissa_bits`` (paper section 5's
    approximate bucket counts), plus one sign/flag bit.
    """
    if mantissa_bits < 1:
        raise InvalidParameterError("mantissa_bits must be >= 1")
    exp_range = max(2.0, abs(max_magnitude))
    exponent_bits = max(1, math.ceil(math.log2(1.0 + math.log2(exp_range))))
    return exponent_bits + mantissa_bits + 1


@dataclass(slots=True)
class StorageReport:
    """Bit-level storage breakdown for one engine instance."""

    engine: str
    buckets: int = 0
    timestamp_bits: int = 0
    count_bits: int = 0
    register_bits: int = 0
    shared_bits: int = 0
    notes: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("buckets", "timestamp_bits", "count_bits",
                     "register_bits", "shared_bits"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"{name} must be >= 0")

    @property
    def per_stream_bits(self) -> int:
        """Bits a deployment pays per additional stream."""
        return self.timestamp_bits + self.count_bits + self.register_bits

    @property
    def total_bits(self) -> int:
        """All bits including stream-independent shared state."""
        return self.per_stream_bits + self.shared_bits

    @classmethod
    def aggregate(
        cls, engine: str, reports: Iterable["StorageReport"]
    ) -> "StorageReport":
        """Many streams' reports as one: per-stream bits summed, shared once.

        Every stream of a keyed store shares the same stream-independent
        state (one WBMH region schedule), so the aggregate counts the
        largest ``shared_bits`` a single time -- the section 1.1 storage
        argument.
        """
        total = cls(engine=engine)
        for rep in reports:
            total.shared_bits = max(total.shared_bits, rep.shared_bits)
            total.buckets += rep.buckets
            total.timestamp_bits += rep.timestamp_bits
            total.count_bits += rep.count_bits
            total.register_bits += rep.register_bits
        return total

    def combined(self, other: "StorageReport", engine: str | None = None) -> "StorageReport":
        """Merge two reports (e.g. numerator + denominator of an average)."""
        return StorageReport(
            engine=engine or f"{self.engine}+{other.engine}",
            buckets=self.buckets + other.buckets,
            timestamp_bits=self.timestamp_bits + other.timestamp_bits,
            count_bits=self.count_bits + other.count_bits,
            register_bits=self.register_bits + other.register_bits,
            shared_bits=self.shared_bits + other.shared_bits,
            notes={**self.notes, **other.notes},
        )
