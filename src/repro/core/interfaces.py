"""Shared protocol for decaying-sum engines and an engine factory.

Every engine (exact, EWMA, EH, CEH, WBMH) follows the same discrete-time
protocol:

* ``add(value)`` records an item arriving at the current time ``T``.
* ``add_batch(values)`` records several items at ``T`` with amortized
  per-bucket (not per-item) work; bit-identical to sequential ``add`` calls.
* ``advance(steps)`` moves the clock forward.
* ``advance_to(when)`` jumps the clock to an absolute time (monotone).
* ``ingest(items)`` consumes a whole time-sorted ``(time, value)`` trace,
  advancing once per distinct arrival time and batching same-time items.
* ``query()`` returns an :class:`~repro.core.estimate.Estimate` of the
  decaying sum ``S_g(T) = sum f_i * g(T - t_i)`` over everything observed so
  far, items at the current instant included with weight ``g(0)``.
* ``storage_report()`` returns the bit-level storage accounting
  (:class:`~repro.storage.model.StorageReport`) that the paper's bounds are
  measured against.
* ``merge(other)`` folds another summary of the *same* engine type and decay
  into this one, as if this engine had observed the union of both streams --
  the linearity property behind the sharded service front's fan-in
  (:mod:`repro.service.sharded`).  Register engines merge exactly;
  histogram engines compose their error budgets (see
  :mod:`repro.core.merging`).

Each family also declares its weight domain.  Item values are
non-negative and finite; the EH-based families count integer arrivals
and say so with a true ``integer_weights`` attribute, refusing fractions
too.  An engine without the attribute takes any non-negative finite
value.  Keyed stores read the declaration once, as they read the
forward-decay family's ``supports_out_of_order``, and refuse a weight
outside the domain before it reaches a ledger.

The factory :func:`make_decaying_sum` picks the best engine for a given
decay family, mirroring the paper's guidance: the single-register recurrence
for exponential decay, the Exponential Histogram for sliding windows, WBMH
for ratio-nonincreasing (e.g. polynomial) decay, and the cascaded EH for
everything else.  A keyed store holds the same engines for many streams
through its keyed-engine seam (:mod:`repro.service.keyed`), where WBMH
keys share one stream-independent bucket lattice.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Protocol, Sequence, runtime_checkable

from repro.core.batching import TimedValue
from repro.core.decay import (
    DecayFunction,
    ExponentialDecay,
    PolyexponentialDecay,
    PolyExpPolynomialDecay,
    SlidingWindowDecay,
)
from repro.core.errors import InvalidParameterError
from repro.core.estimate import Estimate

if TYPE_CHECKING:
    from repro.storage.model import StorageReport

__all__ = ["DecayingSum", "make_decaying_sum"]


@runtime_checkable
class DecayingSum(Protocol):
    """Protocol implemented by every decaying-sum engine."""

    __slots__ = ()

    @property
    def time(self) -> int:
        """Current clock value ``T`` (starts at 0)."""

    @property
    def decay(self) -> DecayFunction:
        """The decay function this engine maintains."""

    def add(self, value: float = 1.0) -> None:
        """Record an item with the given non-negative value at time ``T``."""

    def add_batch(self, values: Sequence[float]) -> None:
        """Record several items at time ``T``; bit-identical to sequential
        ``add`` calls but with amortized per-bucket work."""

    def advance(self, steps: int = 1) -> None:
        """Advance the clock by ``steps >= 0`` time units."""

    def advance_to(self, when: int) -> None:
        """Advance the clock to the absolute time ``when >= T``."""

    def ingest(
        self, items: Iterable[TimedValue], *, until: int | None = None
    ) -> None:
        """Consume a time-sorted ``(time, value)`` trace through the batch
        path, advancing once per distinct arrival time."""

    def query(self) -> Estimate:
        """Estimate ``S_g(T)`` with certified bounds."""

    def storage_report(self) -> "StorageReport":
        """Bit-level storage accounting for the paper's bounds."""

    def merge(self, other: "DecayingSum") -> None:
        """Fold ``other`` (same engine type and decay) into this summary.

        Afterwards this engine summarises the union of both streams as of
        the common clock ``max(self.time, other.time)``; the younger
        operand is advanced to that clock first.  Exact for register
        engines, error-budget-composing for histogram engines."""


def make_decaying_sum(
    decay: DecayFunction,
    epsilon: float = 0.1,
    *,
    horizon_hint: int | None = None,
) -> DecayingSum:
    """Build the storage-optimal engine for ``decay`` per the paper.

    * EXPD -> :class:`repro.core.ewma.ExponentialSum` (Theta(log N) bits,
      Eq. 1).
    * SLIWIN -> :class:`repro.histograms.eh.ExponentialHistogram` wrapped as
      a decaying sum (Theta(log^2 N) bits, Datar et al.).
    * polyexponential ``a**k exp(-lam a) / k!`` and general
      ``p(x) exp(-lam x)`` -> the pipelined-register reductions of
      section 3.4 (:class:`repro.core.ewma.PolyexponentialSum`,
      :class:`repro.core.ewma.GeneralPolyexpSum`; exact, Theta(k log N)
      bits).  These weights are not nonincreasing (zero at age 0), so the
      histogram engines' domination bounds do not apply to them.
    * forward decay (Cormode et al., ICDE 2009) ->
      :class:`repro.core.forward.ForwardDecaySum` (O(1) ingest, no
      compaction, natively order-insensitive; only the scale blocks that
      can still move an answer, at most 34, however long the stream runs).
    * ratio-nonincreasing decay (POLYD and slower) ->
      :class:`repro.histograms.wbmh.WBMH`
      (O(log D(g) log log N) bits, Lemma 5.1).
    * anything else -> :class:`repro.histograms.ceh.CascadedEH`
      (O(log^2 N) bits for any nonincreasing decay, Theorem 1).

    ``epsilon`` only shapes the *approximate* (histogram) routes.  The
    EXPD, polyexponential and forward-decay routes are exact register
    pipelines: they accept and validate ``epsilon`` for interface
    uniformity but ignore it, and signal so by reporting
    ``storage_report().notes["exact"] == 1.0`` -- callers sweeping
    epsilon against storage should skip engines carrying that note.

    ``horizon_hint`` bounds the age range used for the numerical
    ratio-nonincreasing check on user-defined decay functions; it must be
    at least 1 (a shorter horizon checks nothing and would silently skew
    the WBMH-vs-CEH routing).
    """
    # Imported here to keep repro.core free of package-level import cycles.
    from repro.core.ewma import (
        ExponentialSum,
        GeneralPolyexpSum,
        PolyexponentialSum,
    )
    from repro.core.forward import ForwardDecay, ForwardDecaySum
    from repro.histograms.ceh import CascadedEH
    from repro.histograms.eh import SlidingWindowSum
    from repro.histograms.wbmh import WBMH

    if not 0 < epsilon < 1:
        raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon}")
    if horizon_hint is not None and horizon_hint < 1:
        raise InvalidParameterError(
            f"horizon_hint must be >= 1, got {horizon_hint}"
        )
    if isinstance(decay, ForwardDecay):
        return ForwardDecaySum(decay)
    if isinstance(decay, ExponentialDecay):
        return ExponentialSum(decay)
    if isinstance(decay, SlidingWindowDecay):
        return SlidingWindowSum(decay.window, epsilon)
    if isinstance(decay, PolyexponentialDecay):
        return PolyexponentialSum(decay)
    if isinstance(decay, PolyExpPolynomialDecay):
        return GeneralPolyexpSum(decay)
    horizon = horizon_hint if horizon_hint is not None else 4096
    if decay.is_ratio_nonincreasing(horizon):
        return WBMH(decay, epsilon)
    return CascadedEH(decay, epsilon)

