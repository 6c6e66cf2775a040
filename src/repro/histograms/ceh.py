"""Cascaded Exponential Histograms (paper section 4.2, Theorem 1).

Theorem 1: the decaying sum under *any* decay function can be estimated from
a single Exponential Histogram of window ``N`` (= the decay support, or
elapsed time for infinite-support decay). The summation-by-parts identity
(paper Eq. 3) writes ``S_g(T)`` as a positively-weighted combination of
sliding-window counts at every bucket boundary, which collapses (Eq. 4) to

    S'_g(T) = sum_j C_j * g(T - w_j)

over the histogram buckets, where ``w_j`` is the end time of bucket ``j``.
Since every item in bucket ``j`` is at least as old as ``w_j``, this is the
certified *upper* estimator; weighting by the bucket start time gives the
certified *lower* estimator. The EH domination invariant keeps the bracket
within a ``(1 +- eps)`` factor.

Two backends are provided:

* ``"eh"`` (default) -- the classic power-of-two EH for integer counts (the
  paper's DCP setting);
* ``"domination"`` -- the generalized domination-merging histogram for
  arbitrary non-negative real values.
"""

from __future__ import annotations

import math
from typing import Iterable, Literal, Sequence

from repro.core.batching import EngineBase, TimedValue
from repro.core.decay import DecayFunction
from repro.core.errors import InvalidParameterError
from repro.core.estimate import Estimate
from repro.core.merging import require_merge_operand, require_same_decay
from repro.histograms.domination import DominationHistogram
from repro.histograms.eh import ExponentialHistogram
from repro.storage.model import StorageReport

__all__ = ["CascadedEH"]

Backend = Literal["eh", "domination"]


def _midpoint(lower: float, upper: float) -> float:
    """The bracket's midpoint; halved before the sum only where the sum
    passes the float range, so every other midpoint keeps its bits."""
    value = 0.5 * (upper + lower)
    if value == math.inf:
        value = 0.5 * upper + 0.5 * lower
    return value


class CascadedEH(EngineBase):
    """Decaying sum under any decay function, via one EH (Theorem 1)."""

    __slots__ = (
        "_decay",
        "epsilon",
        "estimator",
        "backend",
        "_hist",
    )

    def __init__(
        self,
        decay: DecayFunction,
        epsilon: float,
        *,
        backend: Backend = "eh",
        estimator: Literal["upper", "lower", "midpoint"] = "midpoint",
    ) -> None:
        if not 0 < epsilon < 1:
            raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon}")
        if estimator not in ("upper", "lower", "midpoint"):
            raise InvalidParameterError(f"unknown estimator {estimator!r}")
        sup = decay.support()
        window = None if sup is None else sup + 1
        self._decay = decay
        self.epsilon = float(epsilon)
        self.estimator = estimator
        if backend == "eh":
            self._hist: ExponentialHistogram | DominationHistogram = (
                ExponentialHistogram(window, epsilon)
            )
        elif backend == "domination":
            self._hist = DominationHistogram(window, epsilon)
        else:
            raise InvalidParameterError(f"unknown backend {backend!r}")
        self.backend = backend

    @property
    def time(self) -> int:
        return self._hist.time

    @property
    def decay(self) -> DecayFunction:
        return self._decay

    @property
    def histogram(self) -> ExponentialHistogram | DominationHistogram:
        """The underlying bucket structure (exposed for storage benches)."""
        return self._hist

    @property
    def integer_weights(self) -> bool:
        """The weight domain: integer counts on the EH backend, any
        non-negative finite weight on the domination backend."""
        return self.backend == "eh"

    def add(self, value: float = 1.0) -> None:
        self._hist.add(value)

    def add_batch(self, values: Sequence[float]) -> None:
        """Route the batch to the backend's bulk insert (binary
        decomposition for the EH backend)."""
        self._hist.add_batch(values)

    def advance(self, steps: int = 1) -> None:
        self._hist.advance(steps)

    def ingest(
        self, items: Iterable[TimedValue], *, until: int | None = None
    ) -> None:
        # Forward straight to the backend histogram: its clock is this
        # engine's clock, so the replay is identical minus the adapter hop
        # on every per-item advance/add call.
        self._hist.ingest(items, until=until)

    def query(self) -> Estimate:
        """Evaluate Eq. 4 over the bucket snapshot with certified bounds.

        For each bucket, every item's age lies in
        ``[T - end, T - start]``; the decaying contribution is therefore in
        ``[count * g(T - start), count * g(T - end)]``. Ages beyond the decay
        support get weight zero automatically, which handles the bucket that
        straddles the support boundary.  The point value is the
        ``estimator`` end of that bracket, or its midpoint.
        """
        lower, upper = self._bracket(self._decay)
        if self.estimator == "upper":
            value = upper
        elif self.estimator == "lower":
            value = lower
        else:
            value = _midpoint(lower, upper)
        return Estimate(value=value, lower=lower, upper=upper)

    def query_decay(self, other: DecayFunction) -> Estimate:
        """Answer for a *different* decay function from the same structure.

        This is the practical payoff of Theorem 1: one histogram serves
        every decay function whose support fits inside the structure's
        window. The requested decay must not out-live the structure's
        expiry horizon.
        """
        window = self._window()
        other_sup = other.support()
        if window is not None and (other_sup is None or other_sup + 1 > window):
            raise InvalidParameterError(
                "requested decay function outlives the structure's window"
            )
        lower, upper = self._bracket(other)
        return Estimate(value=_midpoint(lower, upper), lower=lower, upper=upper)

    def _bracket(self, decay: DecayFunction) -> tuple[float, float]:
        """``(lower, upper)``: Eq. 4 weighted by bucket starts and ends,
        read off the backend's columns."""
        hist = self._hist
        now = hist.time
        weight = decay.weight
        upper = 0.0
        lower = 0.0
        for start, end, count in zip(hist.starts, hist.ends, hist.counts):
            upper += count * weight(now - end)
            lower += count * weight(now - start)
        return lower, upper

    def merge(self, other: "CascadedEH") -> None:
        """Merge another cascaded histogram over the same decay and backend.

        Delegates to the backend histogram's bucket-interleave merge (which
        aligns clocks and composes the error budgets); the Eq. 4 bracket
        stays sound because it is evaluated from actual bucket spans,
        whatever their interleaving.
        """
        require_merge_operand(self, other)
        require_same_decay(self._decay, other._decay)
        if self.backend != other.backend:
            raise InvalidParameterError(
                f"cannot merge backends {self.backend!r} and {other.backend!r}"
            )
        # Backend types match because decay+backend match, so mypy narrowing
        # aside, this is EH-with-EH or domination-with-domination.
        self._hist.merge(other._hist)  # type: ignore[arg-type]

    @property
    def effective_epsilon(self) -> float:
        """Composed error budget of the backend histogram."""
        return self._hist.effective_epsilon

    def storage_report(self) -> StorageReport:
        report = self._hist.storage_report()
        report.engine = f"ceh[{self.backend}]"
        return report

    def _window(self) -> int | None:
        return self._hist.window
