"""Approximate-boundary CEH (the Matias remark closing paper section 5).

The paper notes that polynomially-decaying counts can also be tracked by a
cascaded EH whose *time boundaries are maintained approximately*, at only
``O(log log N)`` bits per boundary: for polynomial decay, a constant-factor
error in a bucket's age translates into a constant-factor error in that
bucket's contribution.

A deterministic counter cannot advance an age estimate held in
``o(log N)`` bits (once the register's granularity exceeds one tick, +1
underflows), so the boundary registers here are *randomized geometric
counters* in the style of Morris: the register holds a class index ``j``
and increments with probability ``(1 + delta)**-j`` per tick, giving an
unbiased age estimate ``((1+delta)**j - 1)/delta`` with relative standard
deviation about ``sqrt(delta/2)`` in ``O(log log N + log(1/delta))`` bits.

Consequently the error guarantee of :class:`ApproxBoundaryCEH` is
*probabilistic* (a 3-sigma band, like :class:`~repro.counters.morris.MorrisCounter`),
unlike the certified brackets of the deterministic engines. The structure
matches the WBMH's ``O(log N (log log N + log 1/delta))`` total bits, which
is the content of the remark.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Sequence

from repro.core.batching import EngineBase
from repro.core.decay import DecayFunction
from repro.core.errors import InvalidParameterError, NotApplicableError
from repro.core.estimate import Estimate
from repro.storage.model import StorageReport, bits_for_value

__all__ = ["GeometricAgeRegister", "ApproxBoundaryCEH"]


class GeometricAgeRegister:
    """Morris-style elapsed-time counter in O(log log N) bits.

    ``advance()`` is called once per tick; the stored class index ``j``
    increments with probability ``(1 + delta)**-j``, making
    ``estimate() = ((1+delta)**j - 1) / delta`` an unbiased estimator of
    the number of ticks elapsed since construction.
    """

    __slots__ = ("delta", "_j", "_rng", "_base")

    def __init__(self, delta: float, rng: random.Random) -> None:
        if not 0 < delta < 1:
            raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
        self.delta = float(delta)
        self._base = 1.0 + delta
        self._j = 0
        self._rng = rng

    @property
    def index(self) -> int:
        """The stored class index (the only per-register state)."""
        return self._j

    def advance(self, steps: int = 1) -> None:
        if steps < 0:
            raise InvalidParameterError(f"steps must be >= 0, got {steps}")
        for _ in range(steps):
            if self._rng.random() < self._base**-self._j:
                self._j += 1

    def estimate(self) -> float:
        """Unbiased estimate of elapsed ticks."""
        return (self._base**self._j - 1.0) / self.delta

    def bracket(self, sigmas: float = 3.0) -> tuple[float, float]:
        """A ``sigmas``-standard-deviation band around the estimate."""
        a = self.estimate()
        spread = sigmas * math.sqrt(self.delta / 2.0) * max(a, 1.0)
        return max(0.0, a - spread), a + spread

    def storage_bits(self) -> int:
        """Bits to hold the class index: log log N + log(1/delta)."""
        return bits_for_value(max(1, self._j))


class _ABucket:
    """EH bucket with one randomized age register instead of a timestamp.

    Only the *newest* age is held per bucket: a bucket's oldest item is
    younger than its older neighbour's newest item, so the per-bucket
    weight brackets telescope through the neighbour registers (the same
    observation behind paper Eq. 4). One extra global register tracks the
    age of the oldest retained item.
    """

    __slots__ = ("size", "newest")

    def __init__(self, size: int, newest: GeometricAgeRegister) -> None:
        self.size = size
        self.newest = newest


class ApproxBoundaryCEH(EngineBase):
    """Decaying 0/1 count with approximate bucket boundaries.

    Parameters
    ----------
    decay:
        The decay function; must be *smooth* in the sense that a small
        relative age error yields a small relative weight error --
        polynomial decay is the paper's target. Bounded-support decay is
        rejected: approximate expiry would make errors unbounded at the
        support edge (the paper makes the remark for polynomial decay
        only).
    epsilon:
        Accuracy knob: the EH domination invariant uses ``epsilon`` and the
        boundary registers use ``delta = (epsilon / (2 * alpha_hint))**2``
        so that the age noise contributes ~epsilon/2 weight noise.
    alpha_hint:
        The local log-log slope of the decay (alpha for POLYD); converts
        age error into weight error.
    """

    #: The weight domain: a decaying 0/1 count takes integer counts.
    integer_weights = True

    def __init__(
        self,
        decay: DecayFunction,
        epsilon: float,
        *,
        alpha_hint: float = 1.0,
        seed: int = 0,
    ) -> None:
        if not 0 < epsilon < 1:
            raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon}")
        if alpha_hint <= 0:
            raise InvalidParameterError("alpha_hint must be > 0")
        if decay.support() is not None:
            raise NotApplicableError(
                "approximate boundaries need smooth infinite-support decay "
                "(the Matias remark targets polynomial decay); "
                "use CascadedEH for bounded-support functions"
            )
        self._decay = decay
        self.epsilon = float(epsilon)
        self.alpha_hint = float(alpha_hint)
        # Age rel-std sqrt(delta/2) * alpha ~ eps/2  =>  delta ~ (eps/alpha)^2 / 2.
        self.delta = min(0.5, (epsilon / (2.0 * alpha_hint)) ** 2 * 2.0)
        self.buckets_per_size = math.ceil(1.0 / epsilon)
        self._rng = random.Random(seed)
        self._buckets: list[_ABucket] = []  # oldest first
        self._per_size: Counter[int] = Counter()
        self._oldest_reg: GeometricAgeRegister | None = None
        self._time = 0
        self._total = 0

    @property
    def time(self) -> int:
        return self._time

    @property
    def decay(self) -> DecayFunction:
        return self._decay

    def add(self, value: float = 1.0) -> None:
        if not value >= 0 or value % 1:  # NaN, inf and fractions too
            raise InvalidParameterError(
                f"ApproxBoundaryCEH takes non-negative integer counts, got {value}"
            )
        for _ in range(int(value)):
            if self._oldest_reg is None:
                self._oldest_reg = GeometricAgeRegister(self.delta, self._rng)
            reg_new = GeometricAgeRegister(self.delta, self._rng)
            self._buckets.append(_ABucket(1, reg_new))
            self._per_size[1] += 1
            self._total += 1
            self._cascade()

    def add_batch(self, values: Sequence[float]) -> None:
        """Sequential adds: every unit insertion draws fresh randomness for
        its boundary register, so batching cannot collapse the loop without
        changing the sampled structure."""
        for value in values:
            self.add(value)

    def advance(self, steps: int = 1) -> None:
        if steps < 0:
            raise InvalidParameterError(f"steps must be >= 0, got {steps}")
        self._time += steps
        for b in self._buckets:
            b.newest.advance(steps)
        if self._oldest_reg is not None:
            self._oldest_reg.advance(steps)

    def query(self) -> Estimate:
        """Decaying count via Eq. 4 over estimated boundary ages.

        The band combines the per-bucket age uncertainty (3 sigma) with the
        bucket's age span; it is probabilistic, not certified.
        """
        g = self._decay.weight
        value = 0.0
        lower = 0.0
        upper = 0.0
        # Telescoped brackets: bucket i's oldest item is younger than
        # bucket i-1's newest item (i-1 being older); the very oldest item
        # is tracked by the dedicated global register.
        prev_old_hi = (
            self._oldest_reg.bracket()[1] if self._oldest_reg is not None else 0.0
        )
        for b in self._buckets:
            new_lo, new_hi = b.newest.bracket()
            value += b.size * g(round(b.newest.estimate()))
            upper += b.size * g(int(new_lo))
            lower += b.size * g(math.ceil(max(prev_old_hi, new_lo)))
            prev_old_hi = new_hi
        value = min(max(value, lower), upper)
        return Estimate(value=value, lower=lower, upper=upper)

    def merge(self, other: "ApproxBoundaryCEH") -> None:
        """Structural merge is undefined for randomized boundaries.

        Each operand's bucket ages are private random walks; interleaving
        them has no seed from which the merged registers could be
        regenerated, and the telescoped bracket of :meth:`query` assumes
        one stream's ordering.  Shard deployments should combine *answers*
        instead (:func:`repro.histograms.domination.widen_merged_estimate`),
        which ``ServiceStore.query_total`` does automatically.
        """
        raise NotApplicableError(
            "ApproxBoundaryCEH state is randomized and cannot be merged; "
            "combine query() brackets instead"
        )

    def bucket_count(self) -> int:
        return len(self._buckets)

    def storage_report(self) -> StorageReport:
        n = len(self._buckets)
        boundary_bits = sum(b.newest.storage_bits() for b in self._buckets)
        if self._oldest_reg is not None:
            boundary_bits += self._oldest_reg.storage_bits()
        max_size = max((b.size for b in self._buckets), default=1)
        size_exp_bits = bits_for_value(max(1, max_size.bit_length()))
        return StorageReport(
            engine="ceh[approx-boundary]",
            buckets=n,
            timestamp_bits=boundary_bits,  # log log N bits per boundary
            count_bits=size_exp_bits * n,
            register_bits=bits_for_value(max(1, self._time)),
        )

    def _cascade(self) -> None:
        m = self.buckets_per_size
        size = 1
        while self._per_size[size] > m + 1:
            run_start = self._run_start(size)
            older = self._buckets[run_start]
            newer = self._buckets[run_start + 1]
            merged = _ABucket(older.size + newer.size, newer.newest)
            self._buckets[run_start : run_start + 2] = [merged]
            self._per_size[size] -= 2
            if self._per_size[size] == 0:
                del self._per_size[size]
            self._per_size[size * 2] += 1
            size *= 2

    def _run_start(self, size: int) -> int:
        preceding = 0
        for s, n in self._per_size.items():
            if s > size:
                preceding += n
        return preceding
