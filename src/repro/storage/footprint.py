"""Resident footprint of a keyed store's keys: objects and bytes per key.

Paper section 1.1 sizes a deployment by how many summaries it keeps, and
:mod:`repro.storage.model` prices one summary in bits.  This module
measures what a :class:`~repro.service.store.ServiceStore` key actually
holds in the process: the GC-tracked objects it adds (exact, so a test
can pin them) and the bytes ``tracemalloc`` traces for it (engine state,
the key's string and its entries in the store's dicts).

Every family's store is built the same way: ``ServiceStore(decay, 0.1)``
with each key written a unit weight at ticks 0 and 3.  One more row,
``wbmh-staggered``, writes key ``i`` once, at tick ``i``: its keys write at
different ticks, so the shared WBMH lattice grows nodes that most keys
hold no count on.  Run it as ``python -m repro.storage.footprint``
(``make keybytes``) for the table at 4,096 keys.
"""

from __future__ import annotations

import gc
import tracemalloc
from typing import Callable

from repro.core.decay import (
    DecayFunction,
    ExponentialDecay,
    LinearDecay,
    PolyexponentialDecay,
    PolynomialDecay,
    SlidingWindowDecay,
)
from repro.core.forward import ForwardDecay
from repro.service.store import ServiceStore
from repro.streams.io import KeyedItem

__all__ = [
    "FAMILIES", "bytes_per_key", "objects_per_key", "staggered_bytes_per_key",
    "main",
]

#: One decay per per-key engine family a store routes to.
FAMILIES: dict[str, Callable[[], DecayFunction]] = {
    "sliwin": lambda: SlidingWindowDecay(512),
    "ceh-linear": lambda: LinearDecay(512),
    "polyexp": lambda: PolyexponentialDecay(2, 0.1),
    "fwd": lambda: ForwardDecay("exp", 0.05),
    "ewma": lambda: ExponentialDecay(0.05),
    "wbmh": lambda: PolynomialDecay(1.0),
}

#: The ticks every key is written at.
_TICKS = (0, 3)


def _store(family: str, keys: int) -> ServiceStore:
    store = ServiceStore(FAMILIES[family](), 0.1)
    for tick in _TICKS:
        store.observe_batch(
            [KeyedItem(f"k{i}", tick, 1.0) for i in range(keys)]
        )
    return store


def _staggered(keys: int) -> ServiceStore:
    store = ServiceStore(FAMILIES["wbmh"](), 0.1)
    store.observe_batch([KeyedItem(f"k{i}", i, 1.0) for i in range(keys)])
    return store


def _held(store: ServiceStore) -> tuple[int, int]:
    """GC-tracked objects and traced bytes while ``store`` is alive (it
    is an argument so that it is)."""
    gc.collect()
    return len(gc.get_objects()), tracemalloc.get_traced_memory()[0]


def objects_per_key(family: str, keys: int = 512) -> float:
    """GC-tracked objects each key adds: the difference between a
    ``2 * keys``-key store and a ``keys``-key one, so what every store
    holds once (its dicts, a shared lattice) cancels out."""
    small = _held(_store(family, keys))[0]
    large = _held(_store(family, 2 * keys))[0]
    return (large - small) / keys


def bytes_per_key(family: str, keys: int = 4096) -> float:
    """Bytes ``tracemalloc`` traces for a ``keys``-key store, per key."""
    return _traced(lambda: _store(family, keys)) / keys


def staggered_bytes_per_key(keys: int = 4096) -> float:
    """Bytes per key of a WBMH store whose key ``i`` wrote once, at tick
    ``i``: the whole shared lattice over ``keys`` ticks, spread over its
    keys."""
    return _traced(lambda: _staggered(keys)) / keys


def _traced(build: Callable[[], ServiceStore]) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        return _held(build())[1]
    finally:
        tracemalloc.stop()


def main() -> int:
    """Print the markdown table: objects and bytes per key, per family."""
    print("| family | objects per key | bytes per key (4,096 keys) |")
    print("|---|---|---|")
    for family in FAMILIES:
        print(
            f"| {family} | {objects_per_key(family):g} | "
            f"{bytes_per_key(family):,.0f} B |"
        )
    print(f"| wbmh-staggered | - | {staggered_bytes_per_key():,.0f} B |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
