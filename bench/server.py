"""The process under test: one workload's real service stack.

``python -m bench.server --workload NAME [--trace-out PATH]`` builds the
workload's store front, an ``IngestDaemon`` and a ``ServiceServer`` on
127.0.0.1, prints ``{"port": N}`` and serves until its standard input
closes.  It then prints one JSON line with the store's storage report and
the process's peak resident memory (workers included) and exits.  With
``--trace-out`` the stack is built from the :mod:`bench.tracing` wrappers
and the spans are written to that file at exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import resource
import sys
from pathlib import Path
from typing import Any

from bench.tracing import (
    TracedContext,
    TracedDaemon,
    TracedEngine,
    TracedStore,
    Tracer,
    calibrate,
    merge_calibrations,
)
from bench.workloads import WORKLOADS, Workload
from repro.core.interfaces import make_decaying_sum
from repro.core.timeorder import OutOfOrderPolicy
from repro.service import (
    IngestDaemon,
    ServiceServer,
    ServiceStore,
    ShardedServiceStore,
)

EPSILON = 0.1


def build_stack(
    workload: Workload, tracer: Tracer | None
) -> tuple[Any, Any, IngestDaemon]:
    """(store, the front the daemon and server see, daemon)."""
    decay = workload.decay()
    policy = (
        None
        if workload.max_lateness is None
        else OutOfOrderPolicy.buffered(workload.max_lateness)
    )
    store: Any
    if workload.workers is not None:
        context: Any = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )
        if tracer is not None:
            context = TracedContext(context, tracer)
        store = ShardedServiceStore(
            decay,
            EPSILON,
            workers=workload.workers,
            ttl=workload.ttl,
            policy=policy,
            context=context,
        )
        layer = "service.sharded"
    else:
        factory = None
        if tracer is not None:
            def factory() -> Any:
                return TracedEngine(make_decaying_sum(decay, EPSILON), tracer)
        store = ServiceStore(
            decay, EPSILON, ttl=workload.ttl, policy=policy,
            engine_factory=factory,
        )
        layer = "service.store"
    if tracer is None:
        return store, store, IngestDaemon(store, policy=policy)
    front = TracedStore(store, tracer, layer)
    return store, front, TracedDaemon(front, tracer=tracer, policy=policy)


def _peak_rss_kib() -> int:
    """This process's own peak resident set (``VmHWM``).

    ``ru_maxrss`` of ``RUSAGE_SELF`` is no use here: Linux carries the
    peak of the pre-exec image across ``execve``, so it would report the
    generator's memory as the server's.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


async def _stdin_closed() -> None:
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    await reader.read()


async def serve(workload: Workload, trace_out: Path | None) -> dict[str, Any]:
    tracer = None if trace_out is None else Tracer()
    # Calibrated at start and again at exit; the lower figures are used.
    calibration = {} if tracer is None else calibrate()
    store, front, daemon = build_stack(workload, tracer)
    server = ServiceServer(front, daemon)
    try:
        await daemon.start()
        _, port = await server.start("127.0.0.1", 0)
        print(json.dumps({"port": port}), flush=True)
        await _stdin_closed()
        live_keys = len(store.keys())
        per_stream_bits = store.storage_report().per_stream_bits
        await server.stop()
        await daemon.stop(drain=True)
    finally:
        store.close()
    report = {
        "live_keys": live_keys,
        "per_stream_bits": per_stream_bits,
        "maxrss_kib": _peak_rss_kib(),
        "children_maxrss_kib": resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss,
    }
    if tracer is not None and trace_out is not None:
        calibration = merge_calibrations(calibration, calibrate())
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        trace_out.write_text(json.dumps(tracer.to_dict(calibration)))
    return report


def main() -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.server")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args()
    report = asyncio.run(serve(WORKLOADS[args.workload], args.trace_out))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
