"""What a keyed store's key holds, and what a server imports.

A keyed store multiplies every per-key byte by its key count, so the
objects a key adds are pinned exactly (:mod:`repro.storage.footprint`
counts them: GC-tracked objects per key after writes at two ticks), and
its traced bytes stay under ceilings about 10% above the CPython 3.11
figures at 4,096 keys.  The WBMH keys are columns of one shared lattice,
whose nodes are not per key and whose rows hold only non-zero counts, so
keys that write at different ticks stay under a ceiling too.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.decay import (
    ExponentialDecay,
    PolyexponentialDecay,
    SlidingWindowDecay,
)
from repro.service.store import ServiceStore
from repro.storage.footprint import (
    FAMILIES,
    bytes_per_key,
    objects_per_key,
    staggered_bytes_per_key,
)
from repro.streams.io import KeyedItem

REPO_ROOT = Path(__file__).parents[2]

#: GC-tracked objects per key.  sliwin: the engine (the EH itself), its
#: four bucket columns and its size census.  ceh-linear: the same plus
#: the CEH wrapper.  polyexp: the engine, its pipeline and the moment
#: list.  fwd at one block: the engine, its block map and the block.
OBJECTS = {
    "sliwin": 6,
    "ceh-linear": 7,
    "polyexp": 3,
    "fwd": 3,
    "ewma": 1,
    "wbmh": 1,
}

#: Traced bytes per key at 4,096 keys (CPython 3.11: sliwin 744,
#: ceh-linear 848, polyexp 480, fwd 580, ewma 280, wbmh 323).
BYTES = {
    "sliwin": 800,
    "ceh-linear": 930,
    "polyexp": 520,
    "fwd": 640,
    "ewma": 310,
    "wbmh": 335,
}


def test_every_family_is_gated() -> None:
    assert set(OBJECTS) == set(BYTES) == set(FAMILIES)


@pytest.mark.parametrize("family", sorted(OBJECTS))
def test_objects_per_key_are_pinned(family: str) -> None:
    assert objects_per_key(family) == OBJECTS[family]


@pytest.mark.parametrize("family", sorted(BYTES))
def test_bytes_per_key_stay_under_their_ceiling(family: str) -> None:
    assert bytes_per_key(family) <= BYTES[family]


def test_wbmh_keys_writing_at_different_ticks_stay_under_a_ceiling() -> None:
    """4,096 keys, key i written once at tick i (CPython 3.11: 303 B).  A
    full-width lattice row would charge every key a cell on every node."""
    assert staggered_bytes_per_key() <= 335


def _engines(decay, keys: int = 3) -> list:
    store = ServiceStore(decay, 0.1)
    store.observe_batch([KeyedItem(f"k{i}", 0, 1.0) for i in range(keys)])
    return [store.engine(f"k{i}") for i in range(keys)]


def test_registers_share_their_decay_constants() -> None:
    """The per-tick factor and the inverse factorials are one object per
    decay, not one per key (a float is not GC-tracked, so the object
    count cannot see a per-key copy)."""
    first, *rest = _engines(ExponentialDecay(0.05))
    assert all(e._factor is first._factor for e in rest)
    first, *rest = _engines(PolyexponentialDecay(2, 0.1))
    for engine in rest:
        assert engine._pipe._factor is first._pipe._factor
        assert engine._pipe._inv_fact is first._pipe._inv_fact


def test_a_sliding_window_key_is_its_histogram() -> None:
    engine, _, _ = _engines(SlidingWindowDecay(64))
    assert engine.histogram is engine
    assert engine.decay.window == 64
    assert type(engine._per_size) is list
    engine.advance(64)  # every bucket expires
    assert engine.bucket_count() == 0 and engine  # empty, still truthy


def test_importing_the_service_loads_no_hash_or_csv_module() -> None:
    """A server that never upgrades a socket to WebSocket never loads
    OpenSSL's hash module, no server path reads CSV, and numpy stays
    unloaded while a store is built and written (only the WBMH bulk
    kernel, which no served path runs, uses it)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    code = (
        "import sys\n"
        "from repro.core.decay import PolynomialDecay\n"
        "from repro.service import (IngestDaemon, ServiceServer,\n"
        "    ServiceStore, ShardedServiceStore)\n"
        "from repro.streams.io import KeyedItem\n"
        "store = ServiceStore(PolynomialDecay(1.0), 0.1)\n"
        "store.observe_batch([KeyedItem('k', t, 1.0) for t in range(40)])\n"
        "store.query('k')\n"
        "print(sorted(m for m in ('hashlib', '_hashlib', 'csv', 'numpy')\n"
        "    if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert proc.stdout.strip() == "[]"
