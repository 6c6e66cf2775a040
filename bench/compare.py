"""Compare two sets of benchmark reports, metric by metric and workload by workload.

``python3 bench/compare.py PARENT CHANGE``: two directories of
``bench/run.py --out`` reports, the parent's and the change's.  Runs
marked invalid (the generator ran late) are left out and counted.  For
every end-to-end metric of ``BENCHMARK.json`` and every workload the
verdict is

* ``unresolved`` -- either side's interquartile range, as a share of its
  median, is wider than the metric's bound, unless every run of the
  change reads better than every run of the parent;
* ``worse`` -- the change's median is worse than the parent's by more
  than the bound;
* ``improved`` -- the change wins at least 9 in 10 of the runs paired in
  order (ties count for neither side) and the medians differ by more
  than the parent's interquartile range;
* ``unchanged`` -- otherwise.

The diagnostics (throughput, latency, error rate) are listed with their
medians and quartiles but get no verdict: they carry no bound.  Exit
status 1 when any pair is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Sequence

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.analysis import DIAGNOSTICS, load_spec  # noqa: E402

__all__ = ["quartiles", "verdict", "load_side", "main"]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics`` gives."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _spread(values: Sequence[float]) -> float:
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(median)


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    bound: float,
    better: str,
) -> str:
    """The verdict for one (metric, workload) pair; see the module doc."""
    sign = 1.0 if better == "higher" else -1.0
    q1, parent_median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    if sign > 0:
        all_better = min(change) > max(parent)
    else:
        all_better = max(change) < min(parent)
    if max(_spread(parent), _spread(change)) > bound and not all_better:
        return "unresolved"
    scale = abs(parent_median) or 1.0
    if sign * (parent_median - change_median) / scale > bound:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    if (
        pairs
        and wins >= 0.9 * len(pairs)
        and abs(change_median - parent_median) > q3 - q1
        and sign * (change_median - parent_median) > 0
    ):
        return "improved"
    return "unchanged"


def load_side(
    directory: Path,
) -> tuple[dict[str, dict[str, list[float]]], int, int]:
    """``workload -> metric -> values`` over the valid runs in ``directory``.

    Also returns how many runs were read and how many were invalid.
    """
    side: dict[str, dict[str, list[float]]] = {}
    runs = invalid = 0
    for path in sorted(directory.glob("*.json")):
        report = json.loads(path.read_text())
        for workload, row in report["workloads"].items():
            runs += 1
            if not row.get("valid", True):
                invalid += 1
                continue
            for metric, value in row["metrics"].items():
                side.setdefault(workload, {}).setdefault(metric, []).append(
                    float(value)
                )
    return side, runs, invalid


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 bench/compare.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("parent", type=Path, help="the parent's reports")
    parser.add_argument("change", type=Path, help="the change's reports")
    args = parser.parse_args(argv)
    for directory in (args.parent, args.change):
        if not directory.is_dir():
            parser.error(f"{directory} is not a directory")
    parent, *parent_counts = load_side(args.parent)
    change, *change_counts = load_side(args.change)
    spec = load_spec()
    print(
        "parent: {} runs, {} invalid; change: {} runs, {} invalid".format(
            *parent_counts, *change_counts
        )
    )
    print(
        f"{'workload':14s} {'metric':30s} {'parent median [q1, q3]':>34s} "
        f"{'change median [q1, q3]':>34s} {'delta':>8s}  verdict"
    )
    counts: dict[str, int] = {}
    rows = [(m["name"], m["bound"], m["better"]) for m in spec["end_to_end"]]
    rows += [(name, None, None) for name in DIAGNOSTICS]
    for workload in sorted(set(parent) & set(change)):
        for name, bound, better in rows:
            a = parent[workload].get(name)
            b = change[workload].get(name)
            if not a or not b:
                continue
            if bound is None:
                result = "not gated"
            else:
                result = verdict(a, b, float(bound), better)
                counts[result] = counts.get(result, 0) + 1
            qa, qb = quartiles(a), quartiles(b)
            delta = (qb[1] - qa[1]) / (abs(qa[1]) or 1.0)
            print(
                f"{workload:14s} {name:30s} "
                f"{qa[1]:12.5g} [{qa[0]:9.4g}, {qa[2]:9.4g}] "
                f"{qb[1]:12.5g} [{qb[0]:9.4g}, {qb[2]:9.4g}] "
                f"{delta:+8.1%}  {result}"
            )
    print(", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    raise SystemExit(main())
