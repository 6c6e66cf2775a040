"""Throughput-regression gate: diff a fresh report against a baseline.

The checked-in reference lives at ``benchmarks/baselines/
BENCH_throughput.json``; CI regenerates a fresh report on every push and
this module compares the two cell by cell. A cell is one
``(engine, trace, mode)`` throughput measurement; the gate fails when any
cell's fresh items/sec drops more than the threshold (default 30%) below
the baseline, or when a baseline cell disappears from the fresh report.
New cells in the fresh report are reported but never fail the gate, so
adding engines or traces does not require touching the baseline first.

This gate has no multi-core bar: the one scaling gate (4-worker ingest
at least 2.5x single-process, on runners with 4 or more cpus) lives on
the sharded service front, in :mod:`repro.benchkit.service`.  The
``scaling`` section of schema v3/v4 reports is ignored.

Reports carrying a forward-decay cell also face the forward-ingest bar
(:func:`check_forward_fastest`): the O(1)-per-item forward register's
batched throughput must stay within ``MIN_FORWARD_RATIO`` of the slower
of the exact and EXPD reference registers on every shared trace shape.
Reports without a forward cell skip it with a message.

Two schema-v4 gates ride on top.  The histogram-headroom bar
(:func:`check_histogram_headroom`): every histogram engine (EH, CEH,
WBMH) must ingest the dense trace batched within
``MAX_HISTOGRAM_HEADROOM`` (2x) of the numpy brute-force baseline --
the acceptance metric of the structure-of-arrays kernels.  And the
schema-lag check (:func:`check_schema_lag`): the fresh report's
``schema_version`` must not lag the baseline's, which catches the
classic stale-artifact mistake of regenerating ``benchmarks/baselines/``
after a schema bump but leaving the repo-root ``BENCH_throughput.json``
behind (or comparing against a snapshot produced by an older checkout).

Wall-clock derived numbers live in ``benchkit`` by design: RK001 exempts
this package precisely so the library proper stays on the model clock.

Usage::

    python -m repro.benchkit.regress \
        --baseline benchmarks/baselines/BENCH_throughput.json \
        --fresh BENCH_throughput.json [--threshold 0.3]

Exit status 0 when every cell holds, 1 on any regression (the offending
cells are listed on stdout).
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence, cast

from repro.benchkit.reporting import format_table
from repro.core.errors import InvalidParameterError

__all__ = [
    "CellDiff",
    "load_report",
    "compare_reports",
    "check_forward_fastest",
    "check_histogram_headroom",
    "check_schema_lag",
    "format_diff",
    "main",
]

DEFAULT_THRESHOLD = 0.3
#: The O(1)-per-item forward-decay register must keep up with the slower
#: of the exact/ewma register cells on batched ingest.  The generous
#: factor absorbs timer noise on loaded runners (the same build has
#: measured 0.86x and 1.01x minutes apart); a genuine hot-path
#: regression lands far below it (the pre-optimized loop sat at 0.45x).
MIN_FORWARD_RATIO = 0.75
#: Every histogram engine's batched dense ingest must land within this
#: factor of the numpy brute-force baseline (the SoA-kernel acceptance
#: bar; the same build measures ~0.6-1.5x, so 2x flags a real slide
#: while absorbing runner noise).
MAX_HISTOGRAM_HEADROOM = 2.0
#: Engines the headroom bar applies to, by report-name prefix.
HEADROOM_ENGINE_PREFIXES = ("eh(", "ceh(", "wbmh(")

Cell = tuple[str, str, str]


@dataclass(slots=True)
class CellDiff:
    """One (engine, trace, mode) cell compared across the two reports."""

    engine: str
    trace: str
    mode: str
    baseline_ips: float | None
    fresh_ips: float | None
    #: fresh / baseline; None when either side is missing.
    ratio: float | None
    #: True when this cell alone makes the gate fail.
    regressed: bool


def load_report(path: str | Path) -> dict[str, Any]:
    """Read and structurally sanity-check one report file.

    Full schema validation is the writer's job
    (:func:`repro.benchkit.throughput.validate_report`); the comparison
    only needs the results matrix, so older-schema baselines remain
    comparable after a schema bump.
    """
    p = Path(path)
    if not p.is_file():
        raise InvalidParameterError(f"no report at {p}")
    try:
        report = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"{p} is not valid JSON: {exc}") from exc
    if not isinstance(report, dict) or not isinstance(
        report.get("results"), list
    ):
        raise InvalidParameterError(f"{p} has no results matrix")
    return cast("dict[str, Any]", report)


def _cells(report: Mapping[str, Any]) -> dict[Cell, float]:
    cells: dict[Cell, float] = {}
    for row in report["results"]:
        if not isinstance(row, dict):
            raise InvalidParameterError(f"malformed result row: {row!r}")
        try:
            key = (str(row["engine"]), str(row["trace"]), str(row["mode"]))
            ips = float(row["items_per_sec"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidParameterError(
                f"malformed result row: {row!r}"
            ) from exc
        if not ips > 0:
            raise InvalidParameterError(f"non-positive throughput: {row!r}")
        cells[key] = ips
    return cells


def compare_reports(
    baseline: Mapping[str, Any],
    fresh: Mapping[str, Any],
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[CellDiff]:
    """Cell-by-cell diff; a cell regresses when fresh < (1 - threshold) *
    baseline, or when it exists in the baseline but not in the fresh run."""
    if not 0 < threshold < 1:
        raise InvalidParameterError(
            f"threshold must be in (0, 1), got {threshold}"
        )
    base_cells = _cells(baseline)
    fresh_cells = _cells(fresh)
    diffs: list[CellDiff] = []
    for key in sorted(set(base_cells) | set(fresh_cells)):
        engine, trace, mode = key
        base_ips = base_cells.get(key)
        fresh_ips = fresh_cells.get(key)
        if base_ips is None or fresh_ips is None:
            # A vanished cell fails the gate (coverage shrank); a new cell
            # is informational only.
            diffs.append(
                CellDiff(
                    engine,
                    trace,
                    mode,
                    base_ips,
                    fresh_ips,
                    ratio=None,
                    regressed=fresh_ips is None,
                )
            )
            continue
        ratio = fresh_ips / base_ips
        diffs.append(
            CellDiff(
                engine,
                trace,
                mode,
                base_ips,
                fresh_ips,
                ratio=ratio,
                regressed=ratio < 1.0 - threshold,
            )
        )
    return diffs


def check_forward_fastest(
    fresh: Mapping[str, Any],
    *,
    min_ratio: float = MIN_FORWARD_RATIO,
) -> tuple[bool, str]:
    """The forward-decay ingest bar: ``(passed, message)``.

    Forward decay is the one engine family with genuinely O(1) per-item
    ingest and no compaction, so on every trace shape its batched
    throughput must reach the exact/ewma reference tier -- the *slower*
    of the exact POLYD oracle and the EXPD register cells on that trace
    (a register whose whole job is one multiply-add may legitimately
    edge it out on some shapes; falling behind both means the forward
    hot path regressed).  ``min_ratio`` leaves room for timer noise, not
    for an algorithmic slowdown.  ``passed`` is True on every skip path
    (no forward cell in the report, or no reference cells), so
    pre-forward baselines keep comparing cleanly.
    """
    if not 0 < min_ratio <= 1:
        raise InvalidParameterError(
            f"min_ratio must be in (0, 1], got {min_ratio}"
        )
    cells = _cells(fresh)
    forward = {
        trace: ips
        for (engine, trace, mode), ips in cells.items()
        if engine.startswith("fwd(") and mode == "batched"
    }
    if not forward:
        return True, "forward-ingest gate skipped: no forward cell measured"
    floors: dict[str, float] = {}
    for (engine, trace, mode), ips in cells.items():
        if mode != "batched":
            continue
        if engine.startswith("exact(") or engine.startswith("ewma("):
            floors[trace] = min(ips, floors.get(trace, ips))
    worst: tuple[float, str] | None = None
    for trace, floor_ips in floors.items():
        fwd_ips = forward.get(trace)
        if fwd_ips is None:
            continue
        ratio = fwd_ips / floor_ips
        if worst is None or ratio < worst[0]:
            worst = (ratio, trace)
    if worst is None:
        return True, (
            "forward-ingest gate skipped: no shared trace with the "
            "exact/ewma reference cells"
        )
    ratio, trace = worst
    if ratio >= min_ratio:
        return True, (
            f"forward-ingest gate OK: worst ratio {ratio:.2f}x of the "
            f"exact/ewma tier on {trace} (bar {min_ratio:.2f}x)"
        )
    return False, (
        f"forward-ingest gate FAIL: forward batched ingest is only "
        f"{ratio:.2f}x of the slower exact/ewma reference on {trace}, "
        f"below the {min_ratio:.2f}x bar"
    )


def check_histogram_headroom(
    fresh: Mapping[str, Any],
    *,
    max_headroom: float = MAX_HISTOGRAM_HEADROOM,
) -> tuple[bool, str]:
    """The SoA-kernel headroom bar: ``(passed, message)``.

    Reads the ``numpy_baseline.headroom`` map (numpy brute-force items/sec
    divided by the engine's batched dense items/sec, so *smaller is
    faster*) and fails when any histogram engine exceeds ``max_headroom``.
    ``passed`` is True on the skip paths (no headroom section in the
    report, or no histogram engines listed), so pre-v2 baselines keep
    comparing cleanly.
    """
    if not max_headroom > 0:
        raise InvalidParameterError(
            f"max_headroom must be > 0, got {max_headroom}"
        )
    baseline = fresh.get("numpy_baseline")
    if not isinstance(baseline, dict) or not isinstance(
        baseline.get("headroom"), dict
    ):
        return True, (
            "histogram-headroom gate skipped: no numpy headroom section"
        )
    try:
        headroom = {
            str(name): float(value)
            for name, value in baseline["headroom"].items()
        }
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(
            f"malformed headroom map: {baseline['headroom']!r}"
        ) from exc
    gated = {
        name: value
        for name, value in headroom.items()
        if name.startswith(HEADROOM_ENGINE_PREFIXES)
    }
    if not gated:
        return True, (
            "histogram-headroom gate skipped: no histogram engines in the "
            "headroom map"
        )
    worst_name, worst = max(gated.items(), key=lambda pair: pair[1])
    if worst <= max_headroom:
        return True, (
            f"histogram-headroom gate OK: worst engine {worst_name} is "
            f"{worst:.2f}x the numpy dense baseline "
            f"(bar {max_headroom:.1f}x)"
        )
    return False, (
        f"histogram-headroom gate FAIL: {worst_name} needs {worst:.2f}x "
        f"the numpy dense baseline's time on batched ingest, above the "
        f"{max_headroom:.1f}x bar"
    )


def check_schema_lag(
    baseline: Mapping[str, Any], fresh: Mapping[str, Any]
) -> tuple[bool, str]:
    """Fail clearly when the fresh snapshot's schema lags the baseline's.

    In the ``make bench-compare`` flow the "fresh" side is the repo-root
    ``BENCH_throughput.json``; after a schema bump it is easy to
    regenerate ``benchmarks/baselines/`` and forget the root snapshot (or
    to compare a snapshot written by an older checkout).  A lagging
    schema means the two reports were produced by different writers, so
    the cell-by-cell diff would be comparing different measurements --
    better to fail with instructions than to pass on stale numbers.
    A fresh schema *ahead* of the baseline is fine (that is the normal
    state right after a bump, until the baseline is re-recorded).
    """
    base_version = baseline.get("schema_version")
    fresh_version = fresh.get("schema_version")
    if not isinstance(base_version, int) or not isinstance(fresh_version, int):
        return True, "schema-lag gate skipped: a report lacks schema_version"
    if fresh_version < base_version:
        return False, (
            f"schema-lag gate FAIL: fresh report is schema v{fresh_version} "
            f"but the baseline is v{base_version} -- the snapshot is stale; "
            f"regenerate it (python -m repro.benchkit.throughput --out ...)"
        )
    return True, (
        f"schema-lag gate OK: fresh schema v{fresh_version} >= baseline "
        f"v{base_version}"
    )


def format_diff(diffs: Sequence[CellDiff], *, threshold: float) -> str:
    """Human-readable comparison table plus a one-line verdict."""
    rows = []
    for d in diffs:
        rows.append(
            [
                d.engine,
                d.trace,
                d.mode,
                "-" if d.baseline_ips is None else f"{d.baseline_ips:,.0f}",
                "-" if d.fresh_ips is None else f"{d.fresh_ips:,.0f}",
                "-" if d.ratio is None else f"{d.ratio:.2f}",
                "REGRESSED" if d.regressed else "ok",
            ]
        )
    table = format_table(
        ["engine", "trace", "mode", "baseline", "fresh", "ratio", "verdict"],
        rows,
    )
    bad = [d for d in diffs if d.regressed]
    if bad:
        verdict = (
            f"\nFAIL: {len(bad)} cell(s) regressed more than "
            f"{threshold:.0%} below the baseline"
        )
    else:
        verdict = f"\nOK: every cell within {threshold:.0%} of the baseline"
    return table + verdict


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.benchkit.regress",
        description="Fail when fresh throughput regresses past the baseline.",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        required=True,
        help="checked-in reference BENCH_throughput.json",
    )
    parser.add_argument(
        "--fresh",
        type=Path,
        required=True,
        help="freshly measured BENCH_throughput.json",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="maximum tolerated per-cell drop as a fraction (default 0.3)",
    )
    args = parser.parse_args(argv)
    baseline = load_report(args.baseline)
    fresh = load_report(args.fresh)
    diffs = compare_reports(baseline, fresh, threshold=args.threshold)
    print(format_diff(diffs, threshold=args.threshold))
    checks = [
        check_schema_lag(baseline, fresh),
        check_forward_fastest(fresh),
        check_histogram_headroom(fresh),
    ]
    for _, message in checks:
        print(message)
    if any(d.regressed for d in diffs) or not all(ok for ok, _ in checks):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
