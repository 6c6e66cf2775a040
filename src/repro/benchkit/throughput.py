"""Ingestion-throughput baseline for every decaying-sum engine.

Wall-clock measurement lives in ``benchkit`` by design (RK001: the library
proper runs on the discrete model clock; measuring real seconds is this
package's job). The module drives each engine over the same traces twice --
through the batch path (``ingest``: one ``add_batch`` per distinct arrival
time) and item-at-a-time (``advance``/``add`` per item) -- and reports
items/sec for both, plus the headline micro-benchmark of this PR: the
Exponential Histogram's binary-decomposition bulk insert against the
retained unary reference loop.

``python -m repro.benchkit.throughput --out BENCH_throughput.json`` writes
the machine-readable report diffed against ``benchmarks/baselines/`` by
:mod:`repro.benchkit.regress` (CI's ``bench-compare`` job) and recorded in
EXPERIMENTS.md. Schema v2 adds per-cell batched/item speedup ratios, the
host Python version, the WBMH sparse-advance micro-benchmark, and the
numpy brute-force dense baseline with per-engine headroom. Schema v3 adds
``merge_cost`` (seconds to fold two engines vs per-operand state size).
Schema v4 adds ``phases``: the per-phase wall-clock breakdown of
item-mode ingest for the histogram engines (``add`` vs ``cascade`` vs
``expire`` vs ``query``), measured by timing the compaction entry points
class-wide while a dense trace replays -- the profile that tells an
optimization effort *which* kernel to aim at. Schema v5 drops the
``scaling`` section v3 added; multi-core scaling is gated on the sharded
service front (:mod:`repro.benchkit.service`).
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence, cast

from repro.benchkit.reporting import format_table
from repro.core.decay import ExponentialDecay, PolynomialDecay
from repro.core.errors import InvalidParameterError
from repro.core.ewma import ExponentialSum
from repro.core.exact import ExactDecayingSum
from repro.core.forward import ForwardDecay, ForwardDecaySum
from repro.core.interfaces import DecayingSum
from repro.histograms.ceh import CascadedEH
from repro.histograms.eh import ExponentialHistogram, SlidingWindowSum
from repro.histograms.wbmh import WBMH, Lattice
from repro.streams.generators import StreamItem, bernoulli_stream, bursty_stream

__all__ = [
    "SCHEMA_VERSION",
    "ThroughputResult",
    "measure_throughput",
    "default_engines",
    "default_traces",
    "eh_bulk_speedup",
    "wbmh_advance_speedup",
    "numpy_dense_baseline",
    "merge_cost",
    "histogram_phase_breakdown",
    "run_suite",
    "validate_report",
    "write_report",
    "format_report",
    "main",
]

SCHEMA_VERSION = 5

Modes = ("batched", "item")

#: Phase labels of the schema-v4 item-mode ingest breakdown.
Phases = ("add", "cascade", "expire", "query")


@dataclass(slots=True)
class ThroughputResult:
    """Items/sec of one engine over one trace in one ingestion mode."""

    engine: str
    trace: str
    mode: str
    items: int
    seconds: float
    items_per_sec: float


def measure_throughput(
    make_engine: Callable[[], DecayingSum],
    items: Sequence[StreamItem],
    *,
    engine_name: str = "engine",
    trace_name: str = "trace",
    mode: str = "batched",
    repeats: int = 1,
) -> ThroughputResult:
    """Time one full trace ingestion; returns items/sec.

    ``mode="batched"`` drives :meth:`~repro.core.interfaces.DecayingSum.
    ingest` (the PR's hot path); ``mode="item"`` replays the trace with one
    ``advance``/``add`` pair per item (the seed's only option). The two
    modes leave the engine in bit-identical state, so any throughput gap is
    pure ingestion overhead. With ``repeats > 1`` each run uses a fresh
    engine and the *best* run is reported (standard best-of-N to shed
    warmup and scheduler noise).
    """
    if mode not in Modes:
        raise InvalidParameterError(f"mode must be one of {Modes}, got {mode!r}")
    if repeats < 1:
        raise InvalidParameterError("repeats must be >= 1")
    seconds = float("inf")
    for _ in range(repeats):
        engine = make_engine()
        if mode == "batched":
            t0 = time.perf_counter()
            engine.ingest(items)
            run = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            for item in items:
                if item.time > engine.time:
                    engine.advance(item.time - engine.time)
                engine.add(item.value)
            run = time.perf_counter() - t0
        seconds = min(seconds, run)
    return ThroughputResult(
        engine=engine_name,
        trace=trace_name,
        mode=mode,
        items=len(items),
        seconds=seconds,
        items_per_sec=len(items) / max(seconds, 1e-12),
    )


def default_engines(
    epsilon: float = 0.1,
) -> Mapping[str, Callable[[], DecayingSum]]:
    """The engines named by the acceptance bar, storage-optimal configs."""
    window = 512
    return {
        "exact(POLYD-1)": lambda: ExactDecayingSum(PolynomialDecay(1.0)),
        "ewma(EXPD-0.01)": lambda: ExponentialSum(ExponentialDecay(0.01)),
        f"eh(SLIWIN-{window})": lambda: SlidingWindowSum(window, epsilon),
        "ceh(POLYD-1)": lambda: CascadedEH(PolynomialDecay(1.0), epsilon),
        "wbmh(POLYD-1)": lambda: WBMH(PolynomialDecay(1.0), epsilon),
        "fwd(FWD-EXP-0.01)": lambda: ForwardDecaySum(
            ForwardDecay("exp", 0.01)
        ),
    }


def default_traces(n_items: int, *, seed: int = 7) -> Mapping[str, list[StreamItem]]:
    """Two trace shapes stressing opposite ends of the batch path.

    * ``dense``: ~one unit item per tick (Bernoulli p=0.9) -- batches of
      size ~1, measuring per-call overhead;
    * ``bursty``: on/off phases with several same-tick items inside bursts
      -- the shape ``add_batch`` amortizes over.
    """
    if n_items < 1:
        raise InvalidParameterError("n_items must be >= 1")
    dense = list(bernoulli_stream(int(n_items / 0.9) + 1, 0.9, seed=seed))[:n_items]
    burst_src = bursty_stream(
        1 << 30, on_mean=8, off_mean=24, rate_on=1.0, seed=seed
    )
    bursty: list[StreamItem] = []
    fan = 8
    for item in burst_src:
        for _ in range(fan):
            bursty.append(StreamItem(item.time, 1.0))
            if len(bursty) >= n_items:
                break
        if len(bursty) >= n_items:
            break
    return {"dense": dense, "bursty": bursty}


def eh_bulk_speedup(
    value: int = 100_000, *, epsilon: float = 0.1
) -> dict[str, float]:
    """Bulk binary-decomposition insert vs the seed's unary loop.

    Inserts one item of the given (large, integer) value into two fresh
    infinite-window EHs: one through ``add`` (now O(m log v)), one through
    the retained ``_add_ones_unary`` O(v) reference. Both produce
    bit-identical structures; the returned ``speedup`` is the acceptance
    metric (>= 100x for value 1e5).
    """
    if value < 1:
        raise InvalidParameterError("value must be >= 1")
    bulk = ExponentialHistogram(None, epsilon)
    t0 = time.perf_counter()
    bulk.add(float(value))
    bulk_seconds = time.perf_counter() - t0
    unary = ExponentialHistogram(None, epsilon)
    t0 = time.perf_counter()
    unary._add_ones_unary(value)
    unary_seconds = time.perf_counter() - t0
    return {
        "value": float(value),
        "bulk_seconds": bulk_seconds,
        "unary_seconds": unary_seconds,
        "speedup": unary_seconds / max(bulk_seconds, 1e-12),
    }


def wbmh_advance_speedup(
    *,
    epsilon: float = 0.1,
    lam: float = 0.0001,
    n_events: int = 200,
    max_gap: int = 20_000,
    seed: int = 7,
) -> dict[str, float]:
    """Closed-form clock skip vs unit-step ``advance`` on a sparse trace.

    A slowly-decaying EXPD lattice (seal width ``ln(ratio)/lam`` ticks)
    is driven over arrivals separated by large gaps, once with a single
    ``advance(gap)`` per arrival (the event-driven skip) and once with
    ``gap`` unit steps (the pre-optimization per-tick cadence, still what
    a caller gets by stepping the model clock manually). Both runs end in
    bit-identical engines; ``speedup`` is the acceptance metric for the
    sparse-stream advance path (>= 5x).
    """
    if n_events < 1 or max_gap < 2:
        raise InvalidParameterError("need n_events >= 1 and max_gap >= 2")
    rng = random.Random(seed)
    gaps = [rng.randint(max_gap // 10, max_gap) for _ in range(n_events)]
    skip_engine = WBMH(ExponentialDecay(lam), epsilon)
    t0 = time.perf_counter()
    for gap in gaps:
        skip_engine.advance(gap)
        skip_engine.add(1.0)
    skip_seconds = time.perf_counter() - t0
    unit_engine = WBMH(ExponentialDecay(lam), epsilon)
    t0 = time.perf_counter()
    for gap in gaps:
        for _ in range(gap):
            unit_engine.advance(1)
        unit_engine.add(1.0)
    unit_seconds = time.perf_counter() - t0
    if skip_engine.bucket_view() != unit_engine.bucket_view():
        raise InvalidParameterError(
            "advance(gap) and unit-step replay diverged -- kernel bug"
        )
    return {
        "lam": lam,
        "total_ticks": float(sum(gaps)),
        "n_events": float(n_events),
        "skip_seconds": skip_seconds,
        "unit_seconds": unit_seconds,
        "speedup": unit_seconds / max(skip_seconds, 1e-12),
    }


def numpy_dense_baseline(
    items: Sequence[StreamItem], *, repeats: int = 3
) -> dict[str, float]:
    """Brute-force numpy evaluation of the dense trace (POLYD-1).

    :func:`repro.vectorized.decayed_sum_dense` answers a single query by
    weighting every tick of the densified trace -- the Omega(N) baseline
    the engines are competing with. Reported as items/sec over the same
    trace so the matrix rows divide directly into an engine-vs-numpy
    headroom figure.
    """
    from repro.vectorized import decayed_sum_dense, trace_to_dense

    if repeats < 1:
        raise InvalidParameterError("repeats must be >= 1")
    decay = PolynomialDecay(1.0)
    seconds = float("inf")
    value = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        dense = trace_to_dense(items)
        value = decayed_sum_dense(dense, decay)
        seconds = min(seconds, time.perf_counter() - t0)
    return {
        "items": float(len(items)),
        "seconds": seconds,
        "items_per_sec": len(items) / max(seconds, 1e-12),
        "query_value": value,
    }


def merge_cost(
    *,
    epsilon: float = 0.1,
    seed: int = 7,
    sizes: Sequence[int] = (1_000, 4_000, 16_000),
    repeats: int = 3,
) -> list[dict[str, object]]:
    """Seconds to fold one engine into another, vs per-operand state size.

    For each engine family and each size ``n``, two engines ingest ``n``
    items of the dense trace each; the timed region is a single
    ``merge`` call on a serialize-clone of the left operand (so every
    repeat folds fresh state).  Register merges are O(1)/O(k) and should
    be flat across sizes; the EH bucket interleave is linear in the
    bucket count (logarithmic in ``n``); the exact oracle is linear in
    retained items -- this section is what makes those claims visible in
    a report instead of a docstring.
    """
    from repro.serialize import engine_from_dict, engine_to_dict

    if repeats < 1:
        raise InvalidParameterError("repeats must be >= 1")
    if not sizes or any(n < 1 for n in sizes):
        raise InvalidParameterError("sizes must be positive")
    engines = default_engines(epsilon)
    rows: list[dict[str, object]] = []
    for engine_name, factory in engines.items():
        for n in sizes:
            items = default_traces(n, seed=seed)["dense"]
            end = items[-1].time + 1
            left = factory()
            left.ingest(items[0::2], until=end)
            right = factory()
            right.ingest(items[1::2], until=end)
            left_dict = engine_to_dict(left)
            seconds = float("inf")
            for _ in range(repeats):
                target = engine_from_dict(left_dict)
                t0 = time.perf_counter()
                target.merge(right)
                seconds = min(seconds, time.perf_counter() - t0)
            rows.append(
                {
                    "engine": engine_name,
                    "state_items": int(n),
                    "seconds": seconds,
                }
            )
    return rows


def _patched_timer(
    cls: type, name: str, phase: str, acc: "dict[str, float]"
) -> Callable[[], None]:
    """Time every call of ``cls.name`` into ``acc[phase]``; returns the
    undo closure.  Class-level patching reaches the histogram instances
    buried inside adapter engines (``SlidingWindowSum``/``CascadedEH``
    hold slotted inner histograms that cannot be wrapped per-instance)."""
    orig = getattr(cls, name)

    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        t0 = time.perf_counter()
        try:
            return orig(self, *args, **kwargs)
        finally:
            acc[phase] += time.perf_counter() - t0

    setattr(cls, name, wrapper)

    def restore() -> None:
        setattr(cls, name, orig)

    return restore


def _phase_sources() -> "list[tuple[type, str, str]]":
    """(class, method, phase) entry points of the compaction machinery.

    The timed methods are *siblings* on every call path (``add`` calls the
    cascade, ``advance`` calls expiry; WBMH's seal/merge/expire run
    back-to-back in its advance loop), so no timed frame ever encloses
    another and the accumulated seconds partition cleanly.
    """
    from repro.histograms.domination import DominationHistogram

    return [
        (ExponentialHistogram, "_cascade", "cascade"),
        (ExponentialHistogram, "_expire", "expire"),
        (DominationHistogram, "_compact", "cascade"),
        (DominationHistogram, "_expire", "expire"),
        (Lattice, "_seal", "cascade"),
        (Lattice, "_merge_scan", "cascade"),
        (Lattice, "_merge_scheduled", "cascade"),
        (Lattice, "_expire", "expire"),
    ]


def histogram_phase_breakdown(
    n_items: int = 20_000,
    *,
    epsilon: float = 0.1,
    seed: int = 7,
    query_every: int = 256,
) -> dict[str, object]:
    """Where item-mode ingest time goes, per histogram engine.

    Replays the dense trace one ``advance``/``add`` pair at a time --
    the path the SoA bulk kernels exist to beat -- with the compaction
    entry points (:func:`_phase_sources`) timed class-wide, and a query
    every ``query_every`` items (each lands after a write, so the
    per-generation memo is cold and the Eq.-4 walk is what gets timed).
    The ``add`` phase is the remainder: loop total minus the timed
    cascade/expire/query seconds, clamped at zero against timer jitter.
    ``share`` divides by the loop total, so the four phases of one engine
    sum to ~1.
    """
    if n_items < 1:
        raise InvalidParameterError(f"n_items must be >= 1, got {n_items}")
    if query_every < 1:
        raise InvalidParameterError(
            f"query_every must be >= 1, got {query_every}"
        )
    engines = {
        name: factory
        for name, factory in default_engines(epsilon).items()
        if name.startswith(("eh(", "ceh(", "wbmh("))
    }
    items = default_traces(n_items, seed=seed)["dense"]
    rows: list[dict[str, object]] = []
    for engine_name, factory in engines.items():
        acc = {"cascade": 0.0, "expire": 0.0}
        restores: list[Callable[[], None]] = []
        try:
            for cls, method, phase in _phase_sources():
                restores.append(_patched_timer(cls, method, phase, acc))
            engine = factory()
            query_seconds = 0.0
            t0 = time.perf_counter()
            for i, item in enumerate(items):
                if item.time > engine.time:
                    engine.advance(item.time - engine.time)
                engine.add(item.value)
                if not i % query_every:
                    q0 = time.perf_counter()
                    engine.query()
                    query_seconds += time.perf_counter() - q0
            total = time.perf_counter() - t0
        finally:
            for restore in restores:
                restore()
        seconds = {
            "add": max(
                0.0,
                total - query_seconds - acc["cascade"] - acc["expire"],
            ),
            "cascade": acc["cascade"],
            "expire": acc["expire"],
            "query": query_seconds,
        }
        denom = max(total, 1e-12)
        for phase_name in Phases:
            rows.append(
                {
                    "engine": engine_name,
                    "phase": phase_name,
                    "seconds": seconds[phase_name],
                    "share": seconds[phase_name] / denom,
                }
            )
    return {
        "n_items": len(items),
        "query_every": int(query_every),
        "engines": list(engines),
        "rows": rows,
    }


def run_suite(
    n_items: int = 20_000,
    *,
    bulk_value: int = 100_000,
    epsilon: float = 0.1,
    seed: int = 7,
    repeats: int = 3,
    advance_events: int = 200,
    advance_max_gap: int = 20_000,
    merge_sizes: Sequence[int] = (1_000, 4_000, 16_000),
) -> dict[str, object]:
    """Full matrix: every engine x every trace x both modes, plus the EH
    bulk, WBMH sparse-advance, numpy brute-force, merge-cost, and
    phase-breakdown side benches."""
    engines = default_engines(epsilon)
    traces = default_traces(n_items, seed=seed)
    results: list[dict[str, object]] = []
    cells: dict[tuple[str, str, str], float] = {}
    for trace_name, items in traces.items():
        for engine_name, factory in engines.items():
            for mode in Modes:
                res = measure_throughput(
                    factory,
                    items,
                    engine_name=engine_name,
                    trace_name=trace_name,
                    mode=mode,
                    repeats=repeats,
                )
                results.append(asdict(res))
                cells[(engine_name, trace_name, mode)] = res.items_per_sec
    speedups: list[dict[str, object]] = []
    for trace_name in traces:
        for engine_name in engines:
            batched = cells[(engine_name, trace_name, "batched")]
            item = cells[(engine_name, trace_name, "item")]
            speedups.append(
                {
                    "engine": engine_name,
                    "trace": trace_name,
                    "batched_over_item": batched / max(item, 1e-12),
                }
            )
    numpy_baseline = numpy_dense_baseline(traces["dense"], repeats=repeats)
    headroom = {
        engine_name: float(numpy_baseline["items_per_sec"])
        / max(cells[(engine_name, "dense", "batched")], 1e-12)
        for engine_name in engines
    }
    report: dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "python_version": platform.python_version(),
        "n_items": n_items,
        "epsilon": epsilon,
        "seed": seed,
        "engines": list(engines),
        "traces": list(traces),
        "results": results,
        "speedups": speedups,
        "eh_bulk": eh_bulk_speedup(bulk_value, epsilon=epsilon),
        "wbmh_advance": wbmh_advance_speedup(
            epsilon=epsilon,
            seed=seed,
            n_events=advance_events,
            max_gap=advance_max_gap,
        ),
        "numpy_baseline": {**numpy_baseline, "headroom": headroom},
        "merge_cost": merge_cost(
            epsilon=epsilon, seed=seed, sizes=merge_sizes, repeats=repeats
        ),
        "phases": histogram_phase_breakdown(
            n_items, epsilon=epsilon, seed=seed
        ),
    }
    validate_report(report)
    return report


_RESULT_KEYS = {
    "engine": str,
    "trace": str,
    "mode": str,
    "items": int,
    "seconds": float,
    "items_per_sec": float,
}


def validate_report(report: Mapping[str, object]) -> None:
    """Schema check for BENCH_throughput.json (shared with the CI smoke job).

    Raises :class:`InvalidParameterError` describing the first violation.
    """
    if report.get("schema_version") != SCHEMA_VERSION:
        raise InvalidParameterError(
            f"schema_version must be {SCHEMA_VERSION}, "
            f"got {report.get('schema_version')!r}"
        )
    for key in (
        "python_version",
        "n_items",
        "engines",
        "traces",
        "results",
        "speedups",
        "eh_bulk",
        "wbmh_advance",
        "numpy_baseline",
        "merge_cost",
        "phases",
    ):
        if key not in report:
            raise InvalidParameterError(f"missing top-level key {key!r}")
    if not isinstance(report["python_version"], str):
        raise InvalidParameterError("python_version must be a string")
    engines = report["engines"]
    traces = report["traces"]
    results = report["results"]
    if not isinstance(engines, list) or not engines:
        raise InvalidParameterError("engines must be a non-empty list")
    if not isinstance(traces, list) or len(traces) < 2:
        raise InvalidParameterError("need >= 2 trace shapes")
    if not isinstance(results, list) or not results:
        raise InvalidParameterError("results must be a non-empty list")
    seen: set[tuple[str, str, str]] = set()
    for row in results:
        if not isinstance(row, dict):
            raise InvalidParameterError(f"result row must be a dict, got {row!r}")
        for key, kind in _RESULT_KEYS.items():
            if key not in row:
                raise InvalidParameterError(f"result row missing {key!r}: {row!r}")
            if kind is float:
                ok = isinstance(row[key], (int, float))
            else:
                ok = isinstance(row[key], kind)
            if not ok:
                raise InvalidParameterError(
                    f"result field {key!r} must be {kind.__name__}: {row!r}"
                )
        if row["mode"] not in Modes:
            raise InvalidParameterError(f"unknown mode {row['mode']!r}")
        if not float(row["items_per_sec"]) > 0:
            raise InvalidParameterError(f"non-positive throughput: {row!r}")
        seen.add((str(row["engine"]), str(row["trace"]), str(row["mode"])))
    for engine in engines:
        for trace in traces:
            if (str(engine), str(trace), "batched") not in seen:
                raise InvalidParameterError(
                    f"missing batched result for {engine!r} on {trace!r}"
                )
    speedups = report["speedups"]
    if not isinstance(speedups, list):
        raise InvalidParameterError("speedups must be a list")
    ratio_cells = set()
    for row in speedups:
        if not isinstance(row, dict) or not isinstance(
            row.get("batched_over_item"), (int, float)
        ):
            raise InvalidParameterError(f"malformed speedup row: {row!r}")
        ratio_cells.add((str(row.get("engine")), str(row.get("trace"))))
    for engine in engines:
        for trace in traces:
            if (str(engine), str(trace)) not in ratio_cells:
                raise InvalidParameterError(
                    f"missing speedup row for {engine!r} on {trace!r}"
                )
    eh_bulk = report["eh_bulk"]
    if not isinstance(eh_bulk, dict):
        raise InvalidParameterError("eh_bulk must be a dict")
    for key in ("value", "bulk_seconds", "unary_seconds", "speedup"):
        if not isinstance(eh_bulk.get(key), (int, float)):
            raise InvalidParameterError(f"eh_bulk missing numeric {key!r}")
    wbmh_advance = report["wbmh_advance"]
    if not isinstance(wbmh_advance, dict):
        raise InvalidParameterError("wbmh_advance must be a dict")
    for key in ("total_ticks", "skip_seconds", "unit_seconds", "speedup"):
        if not isinstance(wbmh_advance.get(key), (int, float)):
            raise InvalidParameterError(f"wbmh_advance missing numeric {key!r}")
    numpy_baseline = report["numpy_baseline"]
    if not isinstance(numpy_baseline, dict):
        raise InvalidParameterError("numpy_baseline must be a dict")
    for key in ("items", "seconds", "items_per_sec"):
        if not isinstance(numpy_baseline.get(key), (int, float)):
            raise InvalidParameterError(
                f"numpy_baseline missing numeric {key!r}"
            )
    if not isinstance(numpy_baseline.get("headroom"), dict):
        raise InvalidParameterError("numpy_baseline missing headroom dict")
    merge_rows = report["merge_cost"]
    if not isinstance(merge_rows, list) or not merge_rows:
        raise InvalidParameterError("merge_cost must be a non-empty list")
    for row in merge_rows:
        if (
            not isinstance(row, dict)
            or not isinstance(row.get("engine"), str)
            or not isinstance(row.get("state_items"), int)
            or not isinstance(row.get("seconds"), (int, float))
        ):
            raise InvalidParameterError(f"malformed merge_cost row: {row!r}")
    # Schema v4: per-phase ingest breakdown.  Structural plus one semantic
    # invariant -- every listed engine must carry all four phases, so the
    # regress gate and EXPERIMENTS table can index rows without guards.
    phases = report["phases"]
    if not isinstance(phases, dict):
        raise InvalidParameterError("phases must be a dict")
    phase_engines = phases.get("engines")
    if not isinstance(phase_engines, list) or not phase_engines:
        raise InvalidParameterError("phases.engines must be a non-empty list")
    phase_rows = phases.get("rows")
    if not isinstance(phase_rows, list) or not phase_rows:
        raise InvalidParameterError("phases.rows must be a non-empty list")
    covered: dict[str, set[str]] = {}
    for row in phase_rows:
        if not isinstance(row, dict) or not isinstance(row.get("engine"), str):
            raise InvalidParameterError(f"malformed phase row: {row!r}")
        if row.get("phase") not in Phases:
            raise InvalidParameterError(
                f"phase must be one of {Phases}: {row!r}"
            )
        for key in ("seconds", "share"):
            got = row.get(key)
            if not isinstance(got, (int, float)) or not got >= 0:
                raise InvalidParameterError(
                    f"phase row needs non-negative numeric {key!r}: {row!r}"
                )
        covered.setdefault(str(row["engine"]), set()).add(str(row["phase"]))
    for engine in phase_engines:
        if covered.get(str(engine)) != set(Phases):
            raise InvalidParameterError(
                f"engine {engine!r} is missing phase rows"
            )


def write_report(report: Mapping[str, object], path: str | Path) -> Path:
    """Validate and write the JSON report; returns the path."""
    validate_report(report)
    out = Path(path)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out


def format_report(report: Mapping[str, object]) -> str:
    """Human-readable table of the suite (printed by the CLI)."""
    validate_report(report)
    results = cast("list[dict[str, Any]]", report["results"])
    rows = [
        [
            str(row["engine"]),
            str(row["trace"]),
            str(row["mode"]),
            float(row["items_per_sec"]),
        ]
        for row in results
    ]
    table = format_table(
        ["engine", "trace", "mode", "items/sec"], rows, precision=0
    )
    speedups = cast("list[dict[str, Any]]", report["speedups"])
    ratio_rows = [
        [
            str(row["engine"]),
            str(row["trace"]),
            float(row["batched_over_item"]),
        ]
        for row in speedups
    ]
    ratio_table = format_table(
        ["engine", "trace", "batched/item"], ratio_rows, precision=2
    )
    phases = cast("dict[str, Any]", report["phases"])
    phase_rows = [
        [
            str(row["engine"]),
            str(row["phase"]),
            float(row["seconds"]),
            float(row["share"]),
        ]
        for row in cast("list[dict[str, Any]]", phases["rows"])
    ]
    phase_table = format_table(
        ["engine", "phase", "seconds", "share"], phase_rows, precision=4
    )
    eh_bulk = cast("dict[str, float]", report["eh_bulk"])
    wbmh_advance = cast("dict[str, float]", report["wbmh_advance"])
    numpy_baseline = cast("dict[str, Any]", report["numpy_baseline"])
    tail = (
        f"\nPython {report['python_version']}"
        f"\nEH bulk add of value {eh_bulk['value']:.0f}: "
        f"{eh_bulk['speedup']:.0f}x faster than the unary loop"
        f"\nWBMH sparse advance over {wbmh_advance['total_ticks']:.0f} "
        f"ticks: {wbmh_advance['speedup']:.1f}x faster than unit steps"
        f"\nnumpy brute-force dense baseline: "
        f"{float(numpy_baseline['items_per_sec']):,.0f} items/sec"
    )
    return (
        "\n".join([table, "", ratio_table, "", phase_table]) + tail
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.benchkit.throughput",
        description="Measure ingestion throughput of every engine.",
    )
    parser.add_argument(
        "--items", type=int, default=20_000, help="items per trace shape"
    )
    parser.add_argument(
        "--bulk-value",
        type=int,
        default=100_000,
        help="value for the EH bulk-vs-unary micro-benchmark",
    )
    parser.add_argument(
        "--epsilon", type=float, default=0.1, help="engine accuracy knob"
    )
    parser.add_argument("--seed", type=int, default=7, help="trace RNG seed")
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N runs per cell"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the JSON report here (validated against the schema)",
    )
    args = parser.parse_args(argv)
    report = run_suite(
        args.items,
        bulk_value=args.bulk_value,
        epsilon=args.epsilon,
        seed=args.seed,
        repeats=args.repeats,
    )
    print(format_report(report))
    if args.out is not None:
        write_report(report, args.out)
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
