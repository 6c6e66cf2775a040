"""The reference replay and the bit-for-bit check of served answers.

The reference is a plain in-process :class:`ServiceStore` with the
workload's decay and TTL but no lateness policy, fed the items the server
acknowledged, stably sorted by time, through ``observe_batch``.  Any
admission path the server took (the daemon queue, the bounded-lateness
buffer, native late folds on the sharded workers) must land on the same
state.  Timing its ``observe_batch`` calls gives the single-threaded
store-only baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable

import numpy as np

from bench.loadgen import Phases
from bench.workloads import Inputs
from repro.service import ServiceStore
from repro.streams.io import KeyedItem

__all__ = ["Reference", "replay", "check"]

REPLAY_CHUNK = 1000


@dataclass
class Reference:
    store: ServiceStore
    items: int
    seconds: float

    @property
    def items_per_s(self) -> float:
        return self.items / self.seconds


@dataclass
class Mismatches:
    checked: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.problems)


def acknowledged(inputs: Inputs, phases: Phases) -> np.ndarray:
    """Indices of every item the server acknowledged, in arrival order."""
    head = sum(inputs.warmup_items) + sum(inputs.phase_a_items)
    parts = [np.arange(head)]
    start = head
    for acked, count in zip(phases.acked_writes, inputs.phase_b_items):
        if acked:
            parts.append(np.arange(start, start + count))
        start += count
    return np.concatenate(parts)


def replay(
    inputs: Inputs,
    indices: np.ndarray,
    tamper: Callable[[ServiceStore], None] | None = None,
) -> Reference:
    """Replay the acknowledged items; ``tamper`` may corrupt the result."""
    workload = inputs.workload
    store = ServiceStore(workload.decay(), ttl=workload.ttl)
    order = indices[np.argsort(inputs.times[indices], kind="stable")]
    names = [f"k{index}" for index in range(workload.keys)]
    elapsed = 0
    for lo in range(0, len(order), REPLAY_CHUNK):
        chunk = order[lo:lo + REPLAY_CHUNK]
        batch = [
            KeyedItem(names[key], when, value)
            for key, when, value in zip(
                inputs.keys[chunk].tolist(),
                inputs.times[chunk].tolist(),
                inputs.values[chunk].tolist(),
            )
        ]
        start = perf_counter_ns()
        store.observe_batch(batch)
        elapsed += perf_counter_ns() - start
    if tamper is not None:
        tamper(store)
    return Reference(store, len(order), max(elapsed, 1) / 1e9)


def _same(a: Any, b: float) -> bool:
    return isinstance(a, (int, float)) and float(a).hex() == float(b).hex()


def check(phases: Phases, reference: Reference) -> Mismatches:
    """Compare the served key set and every served answer, bit for bit."""
    out = Mismatches()
    store = reference.store
    served = phases.keys_payload.get("keys", [])
    expected = store.keys()
    out.checked += 1
    if sorted(served) != expected:
        missing = sorted(set(expected) - set(served))[:5]
        extra = sorted(set(served) - set(expected))[:5]
        out.problems.append(
            f"key sets differ: {len(served)} served, {len(expected)} "
            f"expected; missing {missing}, unexpected {extra}"
        )
    for key, answer in phases.answers.items():
        if key not in store:
            continue
        out.checked += 1
        estimate = store.query(key)
        fields = ("value", "lower", "upper")
        if answer.get("time") != store.time or not all(
            _same(answer.get(name), getattr(estimate, name)) for name in fields
        ):
            out.problems.append(
                f"{key}: served {answer!r}, reference time {store.time} "
                f"{estimate!r}"
            )
    return out
