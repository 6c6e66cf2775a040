"""Run the service benchmark: ``python3 bench/run.py --workload NAME --seed N``.

For each workload (all four without ``--workload``) this starts the
server process, drives warm-up, phase A (closed loop) and phase B (open
loop) from one asyncio loop, reads every key back, replays the same
items into an in-process reference store and compares the answers bit
for bit.  It prints each metric with its unit and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics of ``BENCHMARK.json``, or with ``--trace 1`` its
per-layer metrics from a traced run of the same inputs.  The exit status
is 1 when any served answer differs from the reference.

A run whose generator sent its phase-B requests late (p99 above
``analysis.MAX_SEND_LAG_MS``) is printed as INVALID and written with
``"valid": false``, which ``compare.py`` skips.  It still exits 0 when
every answer was right: lag voids the phase-B latencies, and no gated
metric depends on them.

``--matrix`` instead runs the store-only engine x key-count sweep
(:mod:`bench.matrix`), a diagnostic outside ``BENCHMARK.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"bench/run.py: {ROOT / 'src' / 'repro'} is missing; run the "
            "benchmark from a full checkout of the repository",
            file=sys.stderr,
        )
        raise SystemExit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Any, Callable  # noqa: E402

from bench import analysis, matrix  # noqa: E402
from bench.loadgen import drive, shutdown, spawn  # noqa: E402
from bench.verify import acknowledged, check, replay  # noqa: E402
from bench.workloads import (  # noqa: E402
    WORKLOADS,
    Inputs,
    Workload,
    build_inputs,
)
from repro.service import ServiceStore  # noqa: E402

OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 11

Tamper = Callable[[ServiceStore], None]


@dataclass
class Result:
    workload: str
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    notes: dict[str, str] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    #: False when the generator ran late (``analysis.MAX_SEND_LAG_MS``).
    valid: bool = True


async def _phase_a_wall(workload: Workload, inputs: Inputs) -> int:
    """Phase-A wall time of an untraced server (the overhead baseline)."""
    server = await spawn(workload.name)
    try:
        phases = await drive(server, inputs, phase_a_only=True)
    finally:
        await shutdown(server)
    return phases.phase_a_window[1] - phases.phase_a_window[0]


async def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    tamper: Tamper | None = None,
) -> Result:
    inputs = build_inputs(workload, seed, seconds)
    trace_out = OUT / f"{workload.name}.trace.json" if trace else None
    untraced_ns = await _phase_a_wall(workload, inputs) if trace else 0
    setup_ns = []
    for _ in range(0 if trace else SETUP_REPEATS - 1):
        spare = await spawn(workload.name)
        setup_ns.append(spare.setup_ns)
        await shutdown(spare)
    server = await spawn(workload.name, trace_out)
    setup_ns.append(server.setup_ns)
    try:
        phases = await drive(server, inputs)
    finally:
        report = await shutdown(server)
    reference = replay(inputs, acknowledged(inputs, phases), tamper)
    mismatches = check(phases, reference)
    attempted = phases.attempted + mismatches.checked
    failed = phases.failed + mismatches.count
    metrics, notes = analysis.end_to_end(setup_ns, phases, report)
    metrics["error_rate"] = failed / max(attempted, 1)
    notes["error_rate"] = f"{failed} of {attempted} operations failed"
    result = Result(
        workload=workload.name,
        correct=failed == 0 and analysis.dropped_items(phases) == 0,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        notes=notes,
        problems=phases.failures + mismatches.problems[:20],
        valid=(
            metrics["bench.loadgen.send_lag_p99_ms"] <= analysis.MAX_SEND_LAG_MS
        ),
    )
    if trace_out is not None:
        layer_metrics, layers = analysis.per_layer(
            json.loads(trace_out.read_text()),
            phases,
            reference.items_per_s,
            untraced_ns,
        )
        result.metrics.update(layer_metrics)
        result.layers = layers
    return result


def _print(result: Result, names: list[dict[str, Any]], engine: str) -> None:
    print(f"[{result.workload}] engine {engine}")
    rows = [(spec["name"], spec["unit"]) for spec in names]
    if not result.layers:
        rows += list(analysis.DIAGNOSTICS.items())
    for name, unit in rows:
        tag = " (diagnostic)" if name in analysis.DIAGNOSTICS else ""
        print(
            f"  {name:40s} {result.metrics[name]:>16.6g} {unit:8s} "
            f"{result.notes.get(name, '')}{tag}".rstrip()
        )
    if result.layers:
        total = sum(result.layers.values()) or 1.0
        print("  phase-A self time by layer:")
        for layer, seconds in sorted(
            result.layers.items(), key=lambda kv: -kv[1]
        ):
            print(f"    {layer:20s} {seconds:10.4f} s {seconds / total:7.1%}")
    for problem in result.problems:
        print(f"  FAILED: {problem}")
    if not result.valid:
        print(
            "  INVALID: the generator sent phase-B requests late "
            f"(bench.loadgen.send_lag_p99_ms above "
            f"{analysis.MAX_SEND_LAG_MS:g} ms); this run's latencies time "
            "the generator as well as the server"
        )
    print(f"  correct: {result.correct}", flush=True)


def _parse(argv: list[str] | None, run_seconds: int) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python3 bench/run.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=run_seconds,
        help="measured time of one run (phase A at the defining commit "
        "plus phase B)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: report the per-layer metrics from a traced run",
    )
    parser.add_argument("--out", type=Path, help="write the full report here")
    parser.add_argument(
        "--matrix", action="store_true",
        help="run the store-only engine x key-count sweep instead",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None, *, tamper: Tamper | None = None) -> int:
    """Entry point; ``tamper`` corrupts the reference (self-tests only)."""
    spec = analysis.load_spec()
    args = _parse(argv, int(spec["run_seconds"]))
    if args.matrix:
        return matrix.main(args.out)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    print(
        f"seed {args.seed}, {args.seconds:g} s per run, "
        f"{os.cpu_count()} cpus, python {platform.python_version()}",
        flush=True,
    )
    results: dict[str, Result] = {}
    for name in names:
        result = asyncio.run(
            run_workload(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                tamper,
            )
        )
        _print(result, listed, WORKLOADS[name].engine)
        results[name] = result
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "workloads": {
                name: {
                    "correct": r.correct,
                    "valid": r.valid,
                    "attempted": r.attempted,
                    "failed": r.failed,
                    "metrics": r.metrics,
                    "notes": r.notes,
                    "layers": r.layers,
                }
                for name, r in results.items()
            },
        }, indent=1, sort_keys=True))
    single = len(results) == 1
    summary = {
        "correct": all(r.correct for r in results.values()),
        "attempted": sum(r.attempted for r in results.values()),
        "failed": sum(r.failed for r in results.values()),
        "metrics": {
            (m["name"] if single else f"{r.workload}/{m['name']}"): {
                "value": r.metrics[m["name"]],
                "unit": m["unit"],
            }
            for r in results.values()
            for m in listed
        },
    }
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
