"""Process-pool shard ingestion: partition, ingest, ship back, merge.

The backfill shape of the linearity argument: a long historical trace is
split round-robin into ``K`` time-sorted shard traces, each worker
process builds the storage-optimal engine
(:func:`~repro.core.interfaces.make_decaying_sum`) and replays its shard
through the batched hot path, and the finished engines travel back to
the parent as :mod:`repro.serialize` checkpoints where they are folded
with :meth:`~repro.core.interfaces.DecayingSum.merge`.

Workers receive only JSON-safe payloads (a decay dict, an epsilon, a
``(time, value)`` list and an end clock) and return only checkpoint
dicts, so the pool never pickles engine objects or closures -- the
module-level worker functions are what every ``multiprocessing`` start
method (fork, spawn, forkserver) can import by name.

Round-robin partitioning preserves time order inside every shard (a
subsequence of a sorted sequence is sorted) and balances item counts to
within one, which is what makes the per-worker wall time -- and hence
the scaling benchmark -- even.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Any, Iterable

from repro.core.batching import TimedValue
from repro.core.decay import DecayFunction
from repro.core.errors import InvalidParameterError
from repro.core.interfaces import DecayingSum, make_decaying_sum
from repro.serialize import (
    decay_from_dict,
    decay_to_dict,
    engine_from_dict,
    engine_to_dict,
)
from repro.streams.generators import StreamItem

__all__ = ["parallel_ingest"]


# ------------------------------------------------------------------ workers
#
# Module-level and dict-in/dict-out so every pool start method can run them.

def _ingest_shard(payload: dict[str, Any]) -> dict[str, Any]:
    """Worker: build the engine, replay one shard trace, checkpoint it."""
    decay = decay_from_dict(payload["decay"])
    engine = make_decaying_sum(decay, payload["epsilon"])
    items = [StreamItem(int(t), float(v)) for t, v in payload["items"]]
    engine.ingest(items, until=payload["end"])
    return engine_to_dict(engine)


# ------------------------------------------------------------------- driver

def _resolve_end(end: int | None, last_time: int) -> int:
    if end is None:
        return last_time
    if end < last_time:
        raise InvalidParameterError(
            f"end={end} precedes the last trace time {last_time}"
        )
    return int(end)


def parallel_ingest(
    decay: DecayFunction,
    trace: Iterable[TimedValue],
    *,
    epsilon: float = 0.1,
    shards: int = 4,
    end: int | None = None,
    max_workers: int | None = None,
) -> DecayingSum:
    """Ingest ``trace`` across ``shards`` worker processes and merge.

    Returns one engine summarising the whole trace as of ``end`` (default:
    the last arrival time).  With ``shards=1`` the pool is skipped and the
    trace is replayed inline -- the serial baseline the scaling benchmark
    compares against.

    The merged answer is bit-identical to serial replay for
    :class:`~repro.core.exact.ExactDecayingSum` on integer-timed traces,
    within float fold order (~1 ulp) for the register engines, and
    bracket-sound with a composed ``shards * epsilon`` budget for the
    histogram engines (conformance law CL008).
    """
    if shards < 1:
        raise InvalidParameterError(f"shards must be >= 1, got {shards}")
    items = [(item.time, item.value) for item in trace]
    if not items:
        engine = make_decaying_sum(decay, epsilon)
        if end is not None:
            engine.advance_to(end)
        return engine
    horizon = _resolve_end(end, items[-1][0])
    decay_dict = decay_to_dict(decay)
    payloads = [
        {
            "decay": decay_dict,
            "epsilon": epsilon,
            "items": items[index::shards],
            "end": horizon,
        }
        for index in range(shards)
    ]
    if shards == 1:
        snapshots = [_ingest_shard(payloads[0])]
    else:
        with ProcessPoolExecutor(max_workers=max_workers or shards) as pool:
            snapshots = list(pool.map(_ingest_shard, payloads))
    merged = engine_from_dict(snapshots[0])
    for snapshot in snapshots[1:]:
        merged.merge(engine_from_dict(snapshot))
    return merged

