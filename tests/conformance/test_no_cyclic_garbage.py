"""No engine leaves cyclic garbage behind while it runs.

Reference counting alone must free whatever an engine discards: a merged,
expired or rebuilt WBMH bucket, a folded EH bucket, a checkpoint's
intermediate objects.  Anything that only the cyclic collector can free
piles up between its passes and makes a long-running service pay for
them (a gen-2 pass walks every live object).  Each test drives the whole
engine surface -- ``add``, ``add_batch``, ``advance``, ``query``,
``merge`` and a checkpoint round trip -- with the collector off, keeps
every engine it built alive, and then requires a collection to find
nothing.  A WBMH's live buckets form a doubly linked list, so an engine
dropped while it holds sealed buckets is left to the collector; that is
not what these tests cover.
"""

from __future__ import annotations

import gc
import random
from typing import Callable

import pytest

from repro.conformance.engines import default_specs
from repro.core.decay import PolynomialDecay
from repro.serialize import engine_from_dict, engine_to_dict
from repro.service.store import ServiceStore
from repro.streams.io import KeyedItem

SPECS = default_specs()


def _cyclic_garbage(drive: Callable[[], list[object]]) -> int:
    """Objects a collection frees after ``drive()``, run with the
    collector off; whatever ``drive`` returns stays alive meanwhile."""
    gc.collect()
    gc.disable()
    try:
        kept = drive()
        found = gc.collect()
    finally:
        gc.enable()
    assert kept
    return found


def _drive(engine, rng: random.Random, ticks: int) -> None:
    for tick in range(ticks):
        engine.add(float(rng.randint(0, 4)))
        if tick % 7 == 0:
            engine.add_batch([1.0, 1.0, float(rng.randint(0, 3))])
        engine.advance(rng.randint(1, 2))
        if tick % 97 == 0:
            engine.query()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_engine_leaves_no_cyclic_garbage(name) -> None:
    spec = SPECS[name]
    rng = random.Random(name)

    def drive() -> list[object]:
        engine = spec.build()
        other = spec.build()
        _drive(engine, rng, 2_000)
        _drive(other, rng, 1_000)
        engine.merge(other)
        clone = engine_from_dict(engine_to_dict(engine))
        _drive(clone, rng, 500)
        clone.query()
        return [engine, other, clone]

    assert _cyclic_garbage(drive) == 0


def test_wbmh_service_store_leaves_no_cyclic_garbage() -> None:
    rng = random.Random(64)
    keys = [f"k{i}" for i in range(64)]

    def drive() -> list[object]:
        store = ServiceStore(PolynomialDecay(1.0))
        when = 0
        for _ in range(3):
            batch = []
            for _ in range(2_000):
                when += rng.random() < 0.5
                batch.append(
                    KeyedItem(rng.choice(keys), when, rng.randint(1, 4))
                )
            store.observe_batch(batch)
            for key in keys[::9]:
                store.query(key)
        donor = store.export_engine(keys[0])
        store.merge_into(keys[1], donor)
        twin = ServiceStore.from_dict(store.to_dict())
        twin.observe_batch([KeyedItem(keys[2], when + 40, 1.0)])
        return [store, donor, twin]

    assert _cyclic_garbage(drive) == 0
