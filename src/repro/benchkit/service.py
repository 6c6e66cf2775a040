"""Service-layer benchmark: ingest throughput and query latency.

Wall-clock measurement lives in ``benchkit`` by design (RK001); the
workload and the running service come from :mod:`repro.service.loadgen`.
Two headline sections, both against a *live* stack (real daemon task,
real sockets for the query path):

* ``ingest`` -- items/sec through the daemon's bounded queue
  (``submit_many`` + ``drain``): the price of the asyncio hop plus the
  store's grouped ``observe_batch`` folds.
* ``query`` -- HTTP ``GET /query/{key}`` round-trip latency over a real
  socket, reported as p50/p99/mean milliseconds across ``n_queries``
  one-shot requests against hot keys.

Schema v2 adds the multi-process story: ``cpu_count`` is stamped into
every report (so scaling gates are self-describing about the hardware
they ran on), and ``--scaling`` measures an optional ``scaling`` section
-- the same ingest/query workload against the single-process store and
against :class:`~repro.service.sharded.ShardedServiceStore` fronts with
2 and 4 workers (``--scaling-workers``).  Percentiles are linear
interpolation between order statistics (nearest-rank in v1 silently
degenerated p99 to the max on tiny samples); samples too small to
resolve the tail carry an explicit ``note``.

``python -m repro.benchkit.service --out BENCH_service.json`` writes the
schema-validated report; ``--baseline`` compares a fresh report against
the checked-in reference with :func:`check_service_regress` (CI's
service job): the gate fails when ingest throughput drops more than
``threshold`` below the baseline or query p99 inflates more than the
same factor above it.  When the fresh report carries a ``scaling``
section *and* ran on ``cpu_count >= 4``, the gate additionally requires
the 4-worker front to reach ``SCALING_MIN_SPEEDUP`` x single-process
ingest with query p99 within ``SCALING_MAX_P99_RATIO`` x; on starved
runners the scaling gate skips with an explicit message.  This is the
repo's one multi-core gate.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import time
from pathlib import Path
from typing import Any, Mapping, Sequence, cast

from repro.benchkit.reporting import format_table
from repro.core.decay import ExponentialDecay
from repro.core.errors import InvalidParameterError
from repro.service.api import http_request
from repro.service.loadgen import ServiceHarness, keyed_trace

__all__ = [
    "SCHEMA_VERSION",
    "run_service_bench",
    "validate_report",
    "write_report",
    "format_report",
    "check_service_regress",
    "main",
]

SCHEMA_VERSION = 2

DEFAULT_THRESHOLD = 0.3

#: The scaling gate (enforced only on >= SCALING_MIN_CPUS machines): a
#: 4-worker sharded front must reach this multiple of single-process
#: ingest throughput, with query p99 inflated by at most the ratio below.
SCALING_MIN_SPEEDUP = 2.5
SCALING_MAX_P99_RATIO = 1.5
SCALING_MIN_CPUS = 4


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of an ascending sequence (q in [0, 1]).

    Interpolates between the bracketing order statistics (numpy's
    default "linear" definition), so ``q=0``/``q=1`` are still the
    min/max but interior quantiles move smoothly with the sample.  The
    v1 nearest-rank rule made p99 on a tiny sample silently *be* the
    max; the report now carries :func:`_sample_note` instead of hiding
    that.
    """
    if not sorted_values:
        raise InvalidParameterError("no samples to take a percentile of")
    if not 0.0 <= q <= 1.0:
        raise InvalidParameterError(f"q must be in [0, 1], got {q}")
    position = q * (len(sorted_values) - 1)
    low = math.floor(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return (
        sorted_values[low]
        + (sorted_values[high] - sorted_values[low]) * fraction
    )


def _sample_note(count: int, q: float = 0.99) -> str | None:
    """An explicit caveat when ``count`` samples cannot resolve quantile ``q``.

    With fewer than ``1 / (1 - q)`` samples the ``q`` quantile sits in
    the gap between the two largest order statistics, so any estimate is
    dominated by the sample maximum; v1 reported that number with no
    indication.  Returns ``None`` when the sample is big enough.
    """
    if count < 1:
        raise InvalidParameterError(f"count must be >= 1, got {count}")
    needed = math.ceil(1.0 / max(1.0 - q, 1e-12))
    if count >= needed:
        return None
    return (
        f"p{q * 100:g} from {count} sample(s) is dominated by the maximum; "
        f"need >= {needed} samples to resolve the {q:.2f} quantile"
    )


async def _bench(
    n_items: int,
    n_keys: int,
    n_queries: int,
    *,
    seed: int,
    epsilon: float,
    batch_max: int,
    workers: int | None = None,
) -> dict[str, Any]:
    """One live-stack measurement -> its ingest/query/store sections.

    ``workers`` serves the same workload from a sharded multi-process
    front behind the identical daemon + HTTP surface (``None`` is the
    in-process single-store stack the v1 numbers measured).
    """
    items = keyed_trace(n_items, n_keys, seed=seed)
    harness = ServiceHarness(
        ExponentialDecay(0.05), epsilon, batch_max=batch_max, workers=workers
    )
    await harness.start()
    try:
        t0 = time.perf_counter()
        admitted = await harness.daemon.submit_many(items)
        await harness.daemon.drain()
        ingest_seconds = time.perf_counter() - t0
        # Query the hottest keys round-robin: every request is a fresh
        # one-shot HTTP connection, so the number includes connect cost.
        keys = harness.store.keys()
        if not keys:
            raise InvalidParameterError("ingest produced no keys to query")
        hot = keys[: min(8, len(keys))]
        latencies: list[float] = []
        for index in range(n_queries):
            key = hot[index % len(hot)]
            t0 = time.perf_counter()
            status, body = await http_request(
                harness.host, harness.port, "GET", f"/query/{key}"
            )
            latencies.append((time.perf_counter() - t0) * 1000.0)
            if status != 200:
                raise InvalidParameterError(
                    f"query for {key!r} failed: {status} {body!r}"
                )
        daemon_stats = harness.daemon.stats()
        store_keys = len(keys)
        store_time = harness.store.time
    finally:
        await harness.stop()
    latencies.sort()
    query: dict[str, Any] = {
        "transport": "http",
        "count": len(latencies),
        "p50_ms": _percentile(latencies, 0.50),
        "p99_ms": _percentile(latencies, 0.99),
        "mean_ms": sum(latencies) / len(latencies),
    }
    note = _sample_note(len(latencies), 0.99)
    if note is not None:
        query["note"] = note
    return {
        "workers": 1 if workers is None else int(workers),
        "sharded": workers is not None,
        "ingest": {
            "items": int(admitted),
            "seconds": ingest_seconds,
            "items_per_sec": admitted / max(ingest_seconds, 1e-12),
            "batches_folded": int(daemon_stats["batches_folded"]),
        },
        "query": query,
        "store": {
            "keys": store_keys,
            "time": store_time,
        },
    }


async def _bench_all(
    n_items: int,
    n_keys: int,
    n_queries: int,
    *,
    seed: int,
    epsilon: float,
    batch_max: int,
    scaling_workers: Sequence[int] | None,
) -> dict[str, Any]:
    single = await _bench(
        n_items,
        n_keys,
        n_queries,
        seed=seed,
        epsilon=epsilon,
        batch_max=batch_max,
    )
    report = {
        "schema_version": SCHEMA_VERSION,
        "python_version": platform.python_version(),
        "cpu_count": int(os.cpu_count() or 1),
        "n_items": int(n_items),
        "n_keys": int(n_keys),
        "seed": int(seed),
        "epsilon": float(epsilon),
        "ingest": single["ingest"],
        "query": single["query"],
        "store": single["store"],
    }
    if scaling_workers is not None:
        # The single-process run above doubles as the workers=1 reference
        # row; every sharded row replays the identical workload.
        rows = [
            {
                "workers": 1,
                "sharded": False,
                "ingest": single["ingest"],
                "query": single["query"],
            }
        ]
        for count in scaling_workers:
            sharded = await _bench(
                n_items,
                n_keys,
                n_queries,
                seed=seed,
                epsilon=epsilon,
                batch_max=batch_max,
                workers=int(count),
            )
            rows.append(
                {
                    "workers": int(count),
                    "sharded": True,
                    "ingest": sharded["ingest"],
                    "query": sharded["query"],
                }
            )
        report["scaling"] = rows
    return report


def run_service_bench(
    n_items: int = 20_000,
    n_keys: int = 64,
    n_queries: int = 400,
    *,
    seed: int = 7,
    epsilon: float = 0.1,
    batch_max: int = 512,
    scaling_workers: Sequence[int] | None = None,
) -> dict[str, Any]:
    """Measure the live service once; returns the validated report dict.

    ``scaling_workers`` (e.g. ``(2, 4)``) additionally measures the same
    workload through sharded fronts with those worker counts and records
    the ``scaling`` section next to the implicit workers=1 reference.
    """
    if n_queries < 1:
        raise InvalidParameterError(f"n_queries must be >= 1, got {n_queries}")
    if scaling_workers is not None:
        counts = [int(count) for count in scaling_workers]
        if not counts or any(count < 2 for count in counts):
            raise InvalidParameterError(
                f"scaling_workers must be >= 2 each, got {scaling_workers!r}"
            )
        if len(set(counts)) != len(counts):
            raise InvalidParameterError(
                f"scaling_workers must be distinct, got {scaling_workers!r}"
            )
        scaling_workers = counts
    report = asyncio.run(
        _bench_all(
            n_items,
            n_keys,
            n_queries,
            seed=seed,
            epsilon=epsilon,
            batch_max=batch_max,
            scaling_workers=scaling_workers,
        )
    )
    validate_report(report)
    return report


def _validate_ingest(ingest: Any, where: str) -> None:
    if not isinstance(ingest, dict):
        raise InvalidParameterError(f"{where} must be a dict")
    for key in ("items", "seconds", "items_per_sec"):
        if not isinstance(ingest.get(key), (int, float)):
            raise InvalidParameterError(f"{where} missing numeric {key!r}")
    if not float(ingest["items_per_sec"]) > 0:
        raise InvalidParameterError(f"non-positive {where} throughput")


def _validate_query(query: Any, where: str) -> None:
    if not isinstance(query, dict):
        raise InvalidParameterError(f"{where} must be a dict")
    for key in ("count", "p50_ms", "p99_ms", "mean_ms"):
        if not isinstance(query.get(key), (int, float)):
            raise InvalidParameterError(f"{where} missing numeric {key!r}")
    if not float(query["p99_ms"]) >= float(query["p50_ms"]):
        raise InvalidParameterError(f"{where} p99 below p50")
    if "note" in query and not isinstance(query["note"], str):
        raise InvalidParameterError(f"{where} note must be a string")


def validate_report(report: Mapping[str, Any]) -> None:
    """Schema check for BENCH_service.json; raises on the first violation."""
    if report.get("schema_version") != SCHEMA_VERSION:
        raise InvalidParameterError(
            f"schema_version must be {SCHEMA_VERSION}, "
            f"got {report.get('schema_version')!r}"
        )
    for key in ("python_version", "cpu_count", "n_items", "n_keys", "ingest",
                "query", "store"):
        if key not in report:
            raise InvalidParameterError(f"missing top-level key {key!r}")
    if not isinstance(report["python_version"], str):
        raise InvalidParameterError("python_version must be a string")
    cpu_count = report["cpu_count"]
    if not isinstance(cpu_count, int) or cpu_count < 1:
        raise InvalidParameterError(
            f"cpu_count must be a positive int, got {cpu_count!r}"
        )
    _validate_ingest(report["ingest"], "ingest")
    _validate_query(report["query"], "query")
    store = report["store"]
    if not isinstance(store, dict) or not isinstance(store.get("keys"), int):
        raise InvalidParameterError("store section must carry a key count")
    if "scaling" not in report:
        return
    scaling = report["scaling"]
    if not isinstance(scaling, list) or not scaling:
        raise InvalidParameterError("scaling must be a non-empty list")
    seen: set[int] = set()
    for index, row in enumerate(scaling):
        where = f"scaling[{index}]"
        if not isinstance(row, dict):
            raise InvalidParameterError(f"{where} must be a dict")
        workers = row.get("workers")
        if not isinstance(workers, int) or workers < 1:
            raise InvalidParameterError(
                f"{where} workers must be a positive int, got {workers!r}"
            )
        if workers in seen:
            raise InvalidParameterError(
                f"{where} duplicates the workers={workers} row"
            )
        seen.add(workers)
        if not isinstance(row.get("sharded"), bool):
            raise InvalidParameterError(f"{where} missing bool 'sharded'")
        _validate_ingest(row.get("ingest"), f"{where} ingest")
        _validate_query(row.get("query"), f"{where} query")
    if 1 not in seen:
        raise InvalidParameterError(
            "scaling must carry the workers=1 reference row"
        )


def write_report(report: Mapping[str, Any], path: str | Path) -> Path:
    """Validate and write the JSON report; returns the path."""
    validate_report(report)
    out = Path(path)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out


def format_report(report: Mapping[str, Any]) -> str:
    """Human-readable summary (printed by the CLI)."""
    validate_report(report)
    ingest = cast("dict[str, Any]", report["ingest"])
    query = cast("dict[str, Any]", report["query"])
    store = cast("dict[str, Any]", report["store"])
    rows = [
        ["ingest", "items/sec", f"{float(ingest['items_per_sec']):,.0f}"],
        ["ingest", "items", f"{int(ingest['items'])}"],
        ["query", "p50 ms", f"{float(query['p50_ms']):.3f}"],
        ["query", "p99 ms", f"{float(query['p99_ms']):.3f}"],
        ["query", "mean ms", f"{float(query['mean_ms']):.3f}"],
        ["store", "keys", f"{int(store['keys'])}"],
    ]
    for row in cast("list[dict[str, Any]]", report.get("scaling", [])):
        section = f"scaling w={int(row['workers'])}"
        row_ingest = cast("dict[str, Any]", row["ingest"])
        row_query = cast("dict[str, Any]", row["query"])
        rows.append(
            [
                section,
                "items/sec",
                f"{float(row_ingest['items_per_sec']):,.0f}",
            ]
        )
        rows.append(
            [section, "p99 ms", f"{float(row_query['p99_ms']):.3f}"]
        )
    table = format_table(["section", "metric", "value"], rows)
    lines = [
        table,
        f"Python {report['python_version']}, "
        f"{int(report['cpu_count'])} cpu(s), "
        f"{int(report['n_items'])} items over {int(report['n_keys'])} keys",
    ]
    note = query.get("note")
    if isinstance(note, str):
        lines.append(f"note: {note}")
    return "\n".join(lines)


def check_service_regress(
    baseline: Mapping[str, Any],
    fresh: Mapping[str, Any],
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[bool, str]:
    """The service regress gate: ``(passed, message)``.

    Fails when fresh ingest items/sec drops below ``(1 - threshold)`` of
    the baseline, or fresh query p99 rises above ``baseline / (1 -
    threshold)``.  A baseline from a different schema version skips the
    gate with a message (the baseline needs regenerating, not the code
    reverting).

    The scaling gate rides only on the *fresh* report (the baseline does
    not need a ``scaling`` section): when fresh carries one and ran on
    ``cpu_count >= SCALING_MIN_CPUS``, the widest (>= 4 worker) sharded
    row must reach ``SCALING_MIN_SPEEDUP`` x the workers=1 ingest with
    query p99 within ``SCALING_MAX_P99_RATIO`` x.  Starved runners (or
    reports measured without ``--scaling``) skip that clause with an
    explicit message instead of failing.
    """
    if not 0 < threshold < 1:
        raise InvalidParameterError(
            f"threshold must be in (0, 1), got {threshold}"
        )
    if baseline.get("schema_version") != fresh.get("schema_version"):
        return True, (
            "service gate skipped: baseline schema "
            f"{baseline.get('schema_version')!r} != fresh "
            f"{fresh.get('schema_version')!r}; regenerate the baseline"
        )
    validate_report(fresh)
    base_ingest = cast("dict[str, Any]", baseline["ingest"])
    fresh_ingest = cast("dict[str, Any]", fresh["ingest"])
    base_ips = float(base_ingest["items_per_sec"])
    fresh_ips = float(fresh_ingest["items_per_sec"])
    ingest_ratio = fresh_ips / max(base_ips, 1e-12)
    base_query = cast("dict[str, Any]", baseline["query"])
    fresh_query = cast("dict[str, Any]", fresh["query"])
    base_p99 = float(base_query["p99_ms"])
    fresh_p99 = float(fresh_query["p99_ms"])
    p99_ratio = fresh_p99 / max(base_p99, 1e-12)
    problems: list[str] = []
    if ingest_ratio < 1.0 - threshold:
        problems.append(
            f"ingest throughput {fresh_ips:,.0f} items/sec is "
            f"{ingest_ratio:.2f}x of the baseline {base_ips:,.0f} "
            f"(floor {1.0 - threshold:.2f}x)"
        )
    if p99_ratio > 1.0 / (1.0 - threshold):
        problems.append(
            f"query p99 {fresh_p99:.3f} ms is {p99_ratio:.2f}x of the "
            f"baseline {base_p99:.3f} ms "
            f"(ceiling {1.0 / (1.0 - threshold):.2f}x)"
        )
    scaling_note = _check_scaling(fresh, problems)
    if problems:
        return False, "service gate FAIL: " + "; ".join(problems)
    return True, (
        f"service gate OK: ingest {ingest_ratio:.2f}x of baseline, "
        f"query p99 {p99_ratio:.2f}x of baseline "
        f"(threshold {threshold:.0%}); {scaling_note}"
    )


def _check_scaling(fresh: Mapping[str, Any], problems: list[str]) -> str:
    """The scaling clause: appends failures, returns the skip/OK note."""
    scaling = fresh.get("scaling")
    if not scaling:
        return "scaling gate skipped: fresh report has no scaling section"
    cpu_count = int(fresh.get("cpu_count", 1))
    if cpu_count < SCALING_MIN_CPUS:
        return (
            f"scaling gate skipped: only {cpu_count} cpu(s) on this "
            f"runner (need >= {SCALING_MIN_CPUS})"
        )
    rows = cast("list[dict[str, Any]]", scaling)
    single = next((r for r in rows if int(r["workers"]) == 1), None)
    wide = max(
        (r for r in rows if r.get("sharded")
         and int(r["workers"]) >= SCALING_MIN_CPUS),
        key=lambda r: int(r["workers"]),
        default=None,
    )
    if single is None or wide is None:
        return (
            "scaling gate skipped: no sharded row with >= "
            f"{SCALING_MIN_CPUS} workers to compare against workers=1"
        )
    single_ips = float(single["ingest"]["items_per_sec"])
    wide_ips = float(wide["ingest"]["items_per_sec"])
    speedup = wide_ips / max(single_ips, 1e-12)
    single_p99 = float(single["query"]["p99_ms"])
    wide_p99 = float(wide["query"]["p99_ms"])
    p99_ratio = wide_p99 / max(single_p99, 1e-12)
    workers = int(wide["workers"])
    if speedup < SCALING_MIN_SPEEDUP:
        problems.append(
            f"{workers}-worker ingest speedup {speedup:.2f}x is below the "
            f"{SCALING_MIN_SPEEDUP}x floor ({wide_ips:,.0f} vs "
            f"{single_ips:,.0f} items/sec single-process)"
        )
    if p99_ratio > SCALING_MAX_P99_RATIO:
        problems.append(
            f"{workers}-worker query p99 {wide_p99:.3f} ms is "
            f"{p99_ratio:.2f}x single-process {single_p99:.3f} ms "
            f"(ceiling {SCALING_MAX_P99_RATIO}x)"
        )
    return (
        f"scaling gate OK: {workers}-worker ingest {speedup:.2f}x, "
        f"query p99 {p99_ratio:.2f}x single-process"
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.benchkit.service",
        description=(
            "Measure service-layer ingest throughput and query latency, "
            "or gate a fresh report against a baseline."
        ),
    )
    parser.add_argument(
        "--items", type=int, default=20_000, help="workload items"
    )
    parser.add_argument(
        "--keys", type=int, default=64, help="distinct stream keys"
    )
    parser.add_argument(
        "--queries", type=int, default=400, help="HTTP queries to time"
    )
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument(
        "--epsilon", type=float, default=0.1, help="engine accuracy knob"
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="write the JSON report here"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="compare --fresh against this report instead of measuring",
    )
    parser.add_argument(
        "--fresh",
        type=Path,
        default=None,
        help="freshly measured report for the --baseline comparison",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="tolerated fractional change (default 0.3)",
    )
    parser.add_argument(
        "--scaling",
        action="store_true",
        help=(
            "also measure sharded multi-process fronts and record the "
            "scaling section"
        ),
    )
    parser.add_argument(
        "--scaling-workers",
        default="2,4",
        metavar="N,M",
        help="comma-separated sharded worker counts for --scaling",
    )
    args = parser.parse_args(argv)
    if args.baseline is not None:
        if args.fresh is None:
            parser.error("--baseline requires --fresh")
        baseline = json.loads(Path(args.baseline).read_text())
        fresh = json.loads(Path(args.fresh).read_text())
        passed, message = check_service_regress(
            baseline, fresh, threshold=args.threshold
        )
        print(message)
        return 0 if passed else 1
    scaling_workers = None
    if args.scaling:
        try:
            scaling_workers = [
                int(part) for part in args.scaling_workers.split(",") if part
            ]
        except ValueError:
            parser.error(
                f"--scaling-workers must be comma-separated ints, "
                f"got {args.scaling_workers!r}"
            )
    report = run_service_bench(
        args.items,
        args.keys,
        args.queries,
        seed=args.seed,
        epsilon=args.epsilon,
        scaling_workers=scaling_workers,
    )
    print(format_report(report))
    if args.out is not None:
        write_report(report, args.out)
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
