"""Exact decaying-sum reference engine.

Stores the entire stream (aggregated per time step, as the paper's
``f(t) = sum of values arriving at t``) and evaluates ``S_g(T)`` directly.
This is the ground truth that every approximate engine is validated against,
and the Omega(N) baseline of Lemmas 3.1 and 3.2: its ``storage_report()``
grows linearly with elapsed time.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Sequence

from repro.core.batching import EngineBase
from repro.core.decay import DecayFunction
from repro.core.errors import InvalidParameterError
from repro.core.estimate import Estimate
from repro.core.merging import (
    align_merge_clocks,
    require_merge_operand,
    require_same_decay,
)
from repro.storage.model import StorageReport, bits_for_value

__all__ = ["ExactDecayingSum"]


class ExactDecayingSum(EngineBase):
    """Ground-truth decaying sum via full stream retention.

    Items older than the decay support are dropped (they will never again
    carry weight), so for bounded-support decays such as sliding windows the
    retained prefix is the window itself -- exactly the paper's observation
    that exact SLIWIN counting needs Omega(N) storage.
    """

    __slots__ = ("_decay", "_time", "_values", "_items")

    def __init__(self, decay: DecayFunction) -> None:
        self._decay = decay
        self._time = 0
        # Per-time totals f(t) for retained times, oldest first.
        self._values: deque[tuple[int, float]] = deque()
        self._items = 0

    @property
    def time(self) -> int:
        return self._time

    @property
    def decay(self) -> DecayFunction:
        return self._decay

    @property
    def items_observed(self) -> int:
        """Number of ``add`` calls over the engine's lifetime."""
        return self._items

    def add(self, value: float = 1.0) -> None:
        if not 0 <= value < math.inf:
            raise InvalidParameterError(f"value must be finite and >= 0, got {value}")
        tail = self._values
        if tail and tail[-1][0] == self._time:
            total = tail[-1][1] + value
            if total == math.inf:
                raise InvalidParameterError("weights must keep f(t) finite")
            tail[-1] = (self._time, total)
        else:
            tail.append((self._time, value))
        self._items += 1

    def add_batch(self, values: Sequence[float]) -> None:
        """Fold a batch into the current tick's slot: one deque write per
        batch, bit-identical to sequential ``add`` calls.

        Single pass: validation and the left-to-right fold share one loop
        over a local accumulator, and nothing is written to the engine
        until the whole batch has been checked."""
        it = iter(values)
        first = next(it, None)
        if first is None:
            return
        if not first >= 0:
            raise InvalidParameterError(f"value must be >= 0, got {first}")
        tail = self._values
        if tail and tail[-1][0] == self._time:
            acc = tail[-1][1] + first
            fresh = False
        else:
            acc = float(first)
            fresh = True
        n = 1
        for value in it:
            if not value >= 0:
                raise InvalidParameterError(f"value must be >= 0, got {value}")
            acc += value
            n += 1
        if not acc < math.inf:
            raise InvalidParameterError("weights must keep f(t) finite")
        self._items += n
        if fresh:
            tail.append((self._time, acc))
        else:
            tail[-1] = (self._time, acc)

    def advance(self, steps: int = 1) -> None:
        if steps < 0:
            raise InvalidParameterError(f"steps must be >= 0, got {steps}")
        self._time += steps
        self._expire()

    def merge(self, other: "ExactDecayingSum") -> None:
        """Fold ``other``'s retained per-time totals into this engine.

        The union stream's ``f(t)`` is the sum of the operands' per-time
        totals, so the merged deque is the two-pointer merge of the two
        time-sorted deques with same-time slots added.  For integer-valued
        traces this is *bit-identical* to a serial replay of the union:
        each slot's total is a sum of integers, which float addition
        computes exactly in any order.  Unequal clocks are aligned by
        advancing the younger operand first (expiry included).
        """
        require_merge_operand(self, other)
        require_same_decay(self._decay, other._decay)
        align_merge_clocks(self, other)
        if not other._values:
            return
        merged: deque[tuple[int, float]] = deque()
        # Deque indexing is O(distance-from-end); materialize once so the
        # two-pointer sweep stays linear.
        a, b = list(self._values), list(other._values)
        i = j = 0
        while i < len(a) and j < len(b):
            ta, va = a[i]
            tb, vb = b[j]
            if ta < tb:
                merged.append((ta, va))
                i += 1
            elif tb < ta:
                merged.append((tb, vb))
                j += 1
            else:
                merged.append((ta, va + vb))
                i += 1
                j += 1
        while i < len(a):
            merged.append(a[i])
            i += 1
        while j < len(b):
            merged.append(b[j])
            j += 1
        self._values = merged
        self._items += other._items

    def query(self) -> Estimate:
        total = 0.0
        for t, v in self._values:
            total += v * self._decay.weight(self._time - t)
        return Estimate.exact(total)

    def query_at_age_offset(self, extra_age: int) -> float:
        """Ground truth ``S_g`` as if the clock were ``extra_age`` ahead.

        Used by benchmarks that compare several engines at a single frozen
        stream without mutating state.
        """
        if extra_age < 0:
            raise InvalidParameterError("extra_age must be >= 0")
        total = 0.0
        for t, v in self._values:
            total += v * self._decay.weight(self._time - t + extra_age)
        return total

    def storage_report(self) -> StorageReport:
        time_bits = bits_for_value(max(1, self._time))
        count_bits = 0
        for _, v in self._values:
            count_bits += bits_for_value(max(1, int(v)))
        return StorageReport(
            engine="exact",
            buckets=len(self._values),
            timestamp_bits=time_bits * len(self._values),
            count_bits=count_bits,
            register_bits=time_bits,
        )

    def _expire(self) -> None:
        sup = self._decay.support()
        if sup is None:
            return
        while self._values and self._time - self._values[0][0] > sup:
            self._values.popleft()
