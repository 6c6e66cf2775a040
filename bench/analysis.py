"""Percentiles, self-time arithmetic, and the metrics of one run.

Self time: a span's duration minus the part of it that its child spans
cover.  Server spans nest by time containment (one event loop, one
thread).  High-frequency engine and pipe calls arrive pre-summed inside
their store span.  A client request's API-and-transport time is its
duration minus the part covered by any top-level server span, so time
the server spent on other work while a request waited is not charged to
the API.

The timing wrappers cost time themselves.  ``calibration.inner_ns`` per
call is taken off every child time (what a no-op call reads) and the
rest of the wrapper cost, ``total_ns - inner_ns``, off the enclosing
store span; ``trace.coverage`` divides the layer self times by the traced
phase-A wall time less the whole wrapper cost.
"""

from __future__ import annotations

import bisect
import json
import statistics
from pathlib import Path
from typing import Any, Iterable, Sequence

__all__ = [
    "load_spec",
    "percentile",
    "tail_percentile",
    "nest",
    "self_times",
    "covered",
    "merge_intervals",
    "end_to_end",
    "dropped_items",
    "per_layer",
]

ROOT = Path(__file__).resolve().parent.parent
#: Percentile rungs (tenths of a percent) a tail figure may fall back to.
LADDER = (999, 990, 950, 900, 750, 500)
MIN_BEYOND = 10
FOLD_OPS = ("add", "add_batch", "add_at")
READ_OPS = ("query", "keys", "key_stats", "stats")
#: Reported with every run but not gated (no bound in BENCHMARK.json):
#: the timings' run-to-run spread on the shared machine the benchmark was
#: defined on was wider than any bound the format allows (README).
DIAGNOSTICS = {
    "ingest_items_per_s": "items/s",
    "ingest_p50_ms": "ms",
    "ingest_p99_ms": "ms",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "error_rate": "fraction",
    "bench.loadgen.send_lag_p99_ms": "ms",
}
#: A run whose generator sent phase-B requests later than this (p99) is
#: invalid: its phase-B latencies then time the generator, not the server.
MAX_SEND_LAG_MS = 2.0


def load_spec(path: Path | None = None) -> dict[str, Any]:
    """``BENCHMARK.json``: metric names, units, bounds and run length."""
    spec: dict[str, Any] = json.loads(
        (path or ROOT / "BENCHMARK.json").read_text()
    )
    return spec


# ------------------------------------------------------------- percentiles

def percentile(sorted_values: Sequence[float], tenths: int) -> float:
    """Nearest-rank percentile (``tenths`` of a percent, 990 = p99)."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, -(-len(sorted_values) * tenths // 1000))
    return float(sorted_values[rank - 1])


def tail_percentile(
    values: Iterable[float], want: int = 990
) -> tuple[int, float]:
    """The highest rung at or below ``want`` with >= 10 samples beyond it.

    Returns ``(rung in tenths of a percent, value)``; a sample too small
    for any rung reports the median.
    """
    ordered = sorted(values)
    n = len(ordered)
    for rung in LADDER:
        if rung > want:
            continue
        if n - (-(-n * rung // 1000)) >= MIN_BEYOND:
            return rung, percentile(ordered, rung)
    return 500, percentile(ordered, 500)


def rung_label(rung: int) -> str:
    return f"p{rung / 10:g}"


# ------------------------------------------------------------- span algebra

def nest(intervals: Sequence[tuple[int, int]]) -> list[int | None]:
    """Parent index of each interval: the innermost one containing it."""
    order = sorted(
        range(len(intervals)), key=lambda i: (intervals[i][0], -intervals[i][1])
    )
    parents: list[int | None] = [None] * len(intervals)
    stack: list[int] = []
    for index in order:
        start, end = intervals[index]
        while stack and not (
            intervals[stack[-1]][0] <= start and end <= intervals[stack[-1]][1]
        ):
            stack.pop()
        parents[index] = stack[-1] if stack else None
        stack.append(index)
    return parents


def self_times(
    intervals: Sequence[tuple[int, int]],
    parents: Sequence[int | None],
    summed_children: Sequence[int] | None = None,
) -> list[int]:
    """Duration minus nested children minus pre-summed child time."""
    out = [end - start for start, end in intervals]
    for index, parent in enumerate(parents):
        if parent is not None:
            out[parent] -= intervals[index][1] - intervals[index][0]
    if summed_children is not None:
        out = [own - child for own, child in zip(out, summed_children)]
    return out


def merge_intervals(
    intervals: Iterable[tuple[int, int]],
) -> list[tuple[int, int]]:
    merged: list[tuple[int, int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def covered(start: int, end: int, merged: Sequence[tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by disjoint sorted ``merged``."""
    total = 0
    index = max(bisect.bisect_right(merged, (start,)) - 1, 0)
    while index < len(merged) and merged[index][0] < end:
        lo, hi = merged[index]
        total += max(0, min(hi, end) - max(lo, start))
        index += 1
    return total


# ---------------------------------------------------------------- metrics

def end_to_end(
    setup_ns: Sequence[int],
    phases: Any,
    server_report: dict[str, Any],
) -> tuple[dict[str, float], dict[str, str]]:
    """The user-facing metrics, plus a note per metric for the report.

    Besides the end-to-end metrics of ``BENCHMARK.json`` this returns
    the ``DIAGNOSTICS``: throughput and latency, which vary too much from
    run to run on a shared machine to carry a regression bound, and how
    late the generator sent phase-B requests, which decides whether the
    run is valid (``MAX_SEND_LAG_MS``).
    """
    notes: dict[str, str] = {}
    start, end = phases.phase_a_window
    items = sum(row[2] for row in phases.phase_a)
    metrics: dict[str, float] = {
        "setup_s": statistics.median(setup_ns) / 1e9,
        "ingest_items_per_s": items / max(end - start, 1) * 1e9,
    }
    notes["setup_s"] = f"median of {len(setup_ns)} server starts"
    notes["ingest_items_per_s"] = f"{items} items, closed loop"
    writes = [done - due for due, _, done, _, status in phases.writes
              if status == 200]
    reads = [done - due for kind, due, _, done, status in phases.reads
             if kind == "query" or status == 200]
    for prefix, samples, what in (
        ("ingest", writes, "writes"), ("read", reads, "reads")
    ):
        if not samples:
            samples = [0]
        ordered = sorted(samples)
        metrics[f"{prefix}_p50_ms"] = percentile(ordered, 500) / 1e6
        rung, value = tail_percentile(ordered, 990)
        metrics[f"{prefix}_p99_ms"] = value / 1e6
        notes[f"{prefix}_p50_ms"] = f"{len(samples)} {what}"
        notes[f"{prefix}_p99_ms"] = (
            f"{rung_label(rung)} of {len(samples)} {what}"
            + ("" if rung == 990 else " (too few samples for p99)")
        )
    lags = sorted(phases.send_lag_ns) or [0]
    rung, value = tail_percentile(lags, 990)
    metrics["bench.loadgen.send_lag_p99_ms"] = value / 1e6
    notes["bench.loadgen.send_lag_p99_ms"] = (
        f"{rung_label(rung)} of {len(phases.send_lag_ns)} sends, "
        f"limit {MAX_SEND_LAG_MS:g} ms"
    )
    live = max(int(server_report["live_keys"]), 1)
    metrics["state_bits_per_key"] = server_report["per_stream_bits"] / live
    notes["state_bits_per_key"] = f"{server_report['live_keys']} live keys"
    metrics["peak_rss_mb"] = (
        server_report["maxrss_kib"] + server_report["children_maxrss_kib"]
    ) / 1024
    notes["peak_rss_mb"] = "server + largest worker"
    return metrics, notes


def dropped_items(phases: Any) -> int:
    """Items the service lost: late drops, queue sheds and fold errors."""
    stats = phases.keys_payload.get("stats", {})
    daemon = phases.keys_payload.get("daemon", {})
    return int(
        stats.get("dropped_count", 0)
        + daemon.get("shed_count", 0)
        + daemon.get("fold_errors", 0)
    )


class _Phase:
    """Server spans of one phase with their corrected self times."""

    def __init__(
        self, spans: list[list[Any]], window: tuple[int, int],
        inner: float, wrapper: float,
    ) -> None:
        lo, hi = window
        self.spans = [s for s in spans if lo <= s[2] and s[3] <= hi]
        intervals = [(s[2], s[3]) for s in self.spans]
        calls = [s[4].get("calls", {}) for s in self.spans]
        self.parents = nest(intervals)
        child_ns = [sum(c[1] for c in row.values()) for row in calls]
        raw = self_times(intervals, self.parents, child_ns)
        self.n_calls = sum(sum(c[0] for c in row.values()) for row in calls)
        #: Self time with the wrapper's share of every child call removed.
        self.own = [
            own - sum(c[0] for c in row.values()) * (wrapper - inner)
            for own, row in zip(raw, calls)
        ]
        self.top = merge_intervals(
            iv for iv, parent in zip(intervals, self.parents) if parent is None
        )
        self.inner = inner

    def self_s(self, layer: str, names: Sequence[str] | None = None) -> float:
        return sum(
            own for span, own in zip(self.spans, self.own)
            if span[0] == layer and (names is None or span[1] in names)
        ) / 1e9

    def calls(
        self, ops: Sequence[str], names: Sequence[str] | None = None
    ) -> tuple[int, float, int]:
        """(count, corrected seconds, items or bytes) of child calls."""
        count = items = 0
        ns = 0.0
        for span in self.spans:
            if names is not None and span[1] not in names:
                continue
            for op, (c, n, i) in span[4].get("calls", {}).items():
                if op in ops:
                    count += c
                    ns += n - c * self.inner
                    items += i
        return count, ns / 1e9, items

    def store_spans(self, name: str) -> list[list[Any]]:
        return [
            s for s in self.spans
            if s[0] in ("service.store", "service.sharded") and s[1] == name
        ]


def per_layer(
    trace: dict[str, Any],
    phases: Any,
    reference_items_per_s: float,
    untraced_phase_a_ns: int,
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics, and the phase-A self time of each layer."""
    inner = float(trace["calibration"]["inner_ns"])
    wrapper = float(trace["calibration"]["total_ns"])
    spans = trace["spans"]
    a = _Phase(spans, phases.phase_a_window, inner, wrapper)
    b = _Phase(spans, phases.phase_b_window, inner, wrapper)
    a_items = sum(row[2] for row in phases.phase_a)
    a_bytes = sum(row[3] for row in phases.phase_a)
    a_wall = phases.phase_a_window[1] - phases.phase_a_window[0]
    api_a = sum(
        (done - sent) - covered(sent, done, a.top)
        for sent, done, _, _ in phases.phase_a
    )
    query_reads = [r for r in phases.reads if r[0] == "query"]
    api_reads = [
        (done - sent) - covered(sent, done, b.top)
        for _, _, sent, done, _ in query_reads
    ]
    stats = phases.keys_payload.get("stats", {})

    advance = a.calls(("advance",))
    fold = a.calls(FOLD_OPS)
    engine_query = b.calls(("query",), ("query",))
    send = a.calls(("send_bytes",))
    recv = a.calls(("recv_bytes",))
    query_spans = b.store_spans("query")
    misses = sum(
        1 for s in query_spans
        if s[4]["calls"].get("query") or s[4]["calls"].get("recv_bytes")
    )
    batches_b = b.store_spans("observe_batch") or a.store_spans("observe_batch")
    batches_a = a.store_spans("observe_batch")
    read_ipc = b.calls(("recv_bytes",), READ_OPS)[0]

    layers = {
        "service.api": api_a / 1e9,
        "service.daemon": a.self_s("service.daemon"),
        "service.store": a.self_s("service.store"),
        "service.sharded": a.self_s("service.sharded"),
        "engine": a.calls(("advance", "query") + FOLD_OPS)[1],
        "service.ipc": send[1] + recv[1],
    }
    instrumented = a_wall - a.n_calls * wrapper
    # bench.loadgen.send_lag_p99_ms comes from end_to_end, as in every run.
    metrics = {
        "bench.reference.store_items_per_s": reference_items_per_s,
        "service.api.ingest_self_ms": api_a / max(len(phases.phase_a), 1) / 1e6,
        "service.api.read_self_ms": (
            statistics.fmean(api_reads) / 1e6 if api_reads else 0.0
        ),
        "service.api.bytes_per_item": a_bytes / max(a_items, 1),
        "service.daemon.submit_s": a.self_s("service.daemon", ("submit_many",)),
        "service.daemon.consumer_self_s": a.self_s(
            "service.daemon", ("drain",)
        ),
        "service.daemon.items_per_batch": (
            statistics.fmean(s[4]["items"] for s in batches_b)
            if batches_b else 0.0
        ),
        "service.store.observe_batch_self_s": a.self_s(
            "service.store", ("observe_batch",)
        ),
        "service.store.query_self_s": b.self_s("service.store", ("query",)),
        "service.store.ticks": (
            batches_a[-1][4]["t1"] - batches_a[0][4]["t0"] if batches_a else 0
        ),
        "service.store.engine_advances_per_item": advance[0] / max(a_items, 1),
        "service.store.live_keys": len(phases.keys_payload.get("keys", [])),
        "service.store.evicted_keys": stats.get("evicted_keys", 0),
        "service.store.dropped_items": dropped_items(phases),
        "service.store.query_memo_hit_ratio": (
            1.0 - misses / len(query_spans) if query_spans else 0.0
        ),
        "engine.advance_s": advance[1],
        "engine.advance_calls": advance[0],
        "engine.fold_s": fold[1],
        "engine.fold_items": fold[2],
        "engine.query_s": engine_query[1],
        "engine.query_calls": engine_query[0],
        "service.sharded.router_self_s": a.self_s("service.sharded"),
        "service.ipc.send_s": send[1],
        "service.ipc.worker_wait_s": recv[1],
        "service.ipc.bytes_per_item": (send[2] + recv[2]) / max(a_items, 1),
        "service.ipc.frames": send[0],
        "service.ipc.query_ipc_ratio": (
            read_ipc / len(phases.reads) if phases.reads else 0.0
        ),
        "trace.coverage": sum(layers.values()) * 1e9 / max(instrumented, 1),
        "trace.overhead_pct": (
            100.0 * (a_wall / max(untraced_phase_a_ns, 1) - 1.0)
        ),
    }
    return metrics, layers
