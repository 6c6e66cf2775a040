"""Shard-parallel ingestion on top of mergeable summaries.

The paper's linearity observation -- ``S_g(T)`` is a sum over items, so
any partition of the stream can be summarised independently and folded
back together with :meth:`~repro.core.interfaces.DecayingSum.merge` --
turns every engine into a distributable one.  This package provides the
two deployment shapes built on that:

* :class:`~repro.parallel.sharded.ShardedDecayingSum` -- an in-process
  facade that hash-shards one logical stream across ``K`` engine
  replicas and answers ``query()`` from a memoised merged snapshot;
* :func:`~repro.parallel.executor.parallel_ingest` -- a process-pool
  backfill path that partitions a trace across workers, ingests each
  shard with the batched hot path, ships the finished engines back
  through :mod:`repro.serialize`, and merges them in the parent.

This is the only package in ``repro`` allowed to import
``multiprocessing`` / ``concurrent.futures`` (lintkit rule RK008):
engines themselves stay single-threaded and deterministic; parallelism
is a layer above them, never inside them.
"""

from repro.parallel.executor import parallel_ingest
from repro.parallel.sharded import ShardedDecayingSum, shard_of

__all__ = [
    "ShardedDecayingSum",
    "shard_of",
    "parallel_ingest",
]
