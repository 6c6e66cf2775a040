"""Diagnostic sweep: store-only ingest over engines x key counts.

``python3 bench/run.py --matrix`` replays a Zipf(1) keyed trace (two
items per tick) straight into ``ServiceStore.observe_batch`` for every
engine in {ewma, eh, ceh, wbmh, fwd} at 64, 4096 and 65536 keys, and
reports items/s and engine advances per item for each cell.  A cell
stops after ``CELL_CAP_S`` seconds and reports the items it finished.
It is not part of ``BENCHMARK.json``: it covers the whole engine matrix
without adding to the gated run time.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

import numpy as np

from repro.core.decay import (
    DecayFunction,
    ExponentialDecay,
    LinearDecay,
    PolynomialDecay,
    SlidingWindowDecay,
)
from repro.core.forward import ForwardDecay
from repro.service import ServiceStore
from repro.streams.io import KeyedItem

__all__ = ["ENGINES", "KEY_COUNTS", "run_cell", "main"]

ENGINES: dict[str, Callable[[], DecayFunction]] = {
    "ewma": lambda: ExponentialDecay(0.05),
    "eh": lambda: SlidingWindowDecay(512),
    "ceh": lambda: LinearDecay(96),
    "wbmh": lambda: PolynomialDecay(1.0),
    "fwd": lambda: ForwardDecay("exp", 0.05),
}
KEY_COUNTS = (64, 4096, 65536)
CELL_CAP_S = 20.0
CELL_MAX_ITEMS = 200_000
CHUNK = 1000
SEED = 7


class CountingStore(ServiceStore):
    """A store that counts the engine advances its clock moves cost."""

    advances = 0

    def advance(self, steps: int = 1) -> None:
        if steps > 0:
            self.advances += len(self)
        super().advance(steps)


def _chunk(
    rng: np.random.Generator, cdf: np.ndarray, start_tick: int
) -> tuple[list[KeyedItem], int]:
    keys = np.searchsorted(cdf, rng.random(CHUNK) * cdf[-1], side="right")
    values = rng.integers(1, 5, size=CHUNK).tolist()
    step = rng.random(CHUNK) < 0.5
    times = (np.cumsum(step) + start_tick).tolist()
    items = [
        KeyedItem(f"k{k}", t, v)
        for k, t, v in zip(keys.tolist(), times, values)
    ]
    return items, int(times[-1])


def run_cell(
    engine: str, keys: int, cap_s: float = CELL_CAP_S,
    max_items: int = CELL_MAX_ITEMS,
) -> dict[str, Any]:
    """Replay up to ``max_items`` items or ``cap_s`` seconds; one row."""
    rng = np.random.default_rng([SEED, keys])
    cdf = np.cumsum(1.0 / np.arange(1, keys + 1))
    store = CountingStore(ENGINES[engine]())
    tick = 1
    items = 0
    elapsed = 0
    while items < max_items and elapsed < cap_s * 1e9:
        batch, tick = _chunk(rng, cdf, tick)
        start = perf_counter_ns()
        store.observe_batch(batch)
        elapsed += perf_counter_ns() - start
        items += len(batch)
    return {
        "engine": engine,
        "keys": keys,
        "items": items,
        "seconds": elapsed / 1e9,
        "items_per_s": items / (elapsed / 1e9),
        "engine_advances_per_item": store.advances / items,
        "live_keys": len(store),
        "capped": items < max_items,
    }


def main(out: Path | None = None) -> int:
    print(f"store-only observe_batch, {os.cpu_count()} cpus, "
          f"cap {CELL_CAP_S:g} s or {CELL_MAX_ITEMS} items per cell")
    print(f"{'engine':6s} {'keys':>6s} {'items':>8s} {'items/s':>12s} "
          f"{'adv/item':>10s} {'live':>6s}")
    rows = []
    for engine in ENGINES:
        for keys in KEY_COUNTS:
            row = run_cell(engine, keys)
            rows.append(row)
            print(
                f"{engine:6s} {keys:6d} {row['items']:8d} "
                f"{row['items_per_s']:12.1f} "
                f"{row['engine_advances_per_item']:10.1f} "
                f"{row['live_keys']:6d}" + ("  (capped)" if row["capped"] else ""),
                flush=True,
            )
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"cells": rows}, indent=1))
    return 0
