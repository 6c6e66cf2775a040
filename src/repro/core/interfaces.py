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
  the linearity property behind shard-parallel ingestion
  (:mod:`repro.parallel`).  Register engines merge exactly; histogram
  engines compose their error budgets (see :mod:`repro.core.merging`).

The factory :func:`make_decaying_sum` picks the best engine for a given
decay family, mirroring the paper's guidance: the single-register recurrence
for exponential decay, the Exponential Histogram for sliding windows, WBMH
for ratio-nonincreasing (e.g. polynomial) decay, and the cascaded EH for
everything else.  :func:`keyed_engine_factory` builds the same engines for
many keyed streams at once, with the stream-independent WBMH region
schedule shared between them.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Protocol,
    Sequence,
    runtime_checkable,
)

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

__all__ = ["DecayingSum", "keyed_engine_factory", "make_decaying_sum"]


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
    backend: str = "auto",
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
      compaction, natively order-insensitive).
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

    ``backend`` selects the structure-of-arrays kernel backend for the
    histogram routes (``"numpy"``, ``"python"``, or ``"auto"`` -- see
    :func:`repro.histograms.soa.resolve_backend`; the
    ``REPRO_KERNEL_BACKEND`` environment variable overrides ``"auto"``).
    Register engines have no bucket kernels; they validate the value and
    ignore it.  The backend never changes any answer -- only which kernel
    twins compute it.
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

    from repro.histograms.soa import resolve_backend

    if not 0 < epsilon < 1:
        raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon}")
    if horizon_hint is not None and horizon_hint < 1:
        raise InvalidParameterError(
            f"horizon_hint must be >= 1, got {horizon_hint}"
        )
    # Validate eagerly so register routes reject bad backend names too
    # (interface uniformity, like epsilon above).
    kernel_backend = resolve_backend(backend)
    if isinstance(decay, ForwardDecay):
        return ForwardDecaySum(decay)
    if isinstance(decay, ExponentialDecay):
        return ExponentialSum(decay)
    if isinstance(decay, SlidingWindowDecay):
        return SlidingWindowSum(
            decay.window, epsilon, kernel_backend=kernel_backend
        )
    if isinstance(decay, PolyexponentialDecay):
        return PolyexponentialSum(decay)
    if isinstance(decay, PolyExpPolynomialDecay):
        return GeneralPolyexpSum(decay)
    horizon = horizon_hint if horizon_hint is not None else 4096
    if decay.is_ratio_nonincreasing(horizon):
        return WBMH(decay, epsilon, kernel_backend=kernel_backend)
    return CascadedEH(decay, epsilon, kernel_backend=kernel_backend)


def keyed_engine_factory(
    decay: DecayFunction, epsilon: float = 0.1
) -> Callable[[], DecayingSum]:
    """A builder of :func:`make_decaying_sum`'s engine, one per keyed stream.

    Every engine it builds is the one ``make_decaying_sum(decay, epsilon)``
    builds, except that all WBMH engines share one
    :class:`~repro.histograms.boundaries.RegionSchedule`: region boundaries
    depend on the decay and the clock, never on the stream (section 5), so a
    fleet of per-key summaries stores them once.  The factory probes one
    engine up front and reuses its schedule.
    """
    from repro.histograms.wbmh import WBMH

    probe = make_decaying_sum(decay, epsilon)
    if isinstance(probe, WBMH):
        schedule = probe.schedule
        backend = probe.kernel_backend
        return lambda: WBMH(
            decay, epsilon, schedule=schedule, kernel_backend=backend
        )
    return lambda: make_decaying_sum(decay, epsilon)
