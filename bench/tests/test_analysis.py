"""Pure checks: inputs, percentiles, span algebra, the compare verdicts."""

from __future__ import annotations

import json

import pytest

from bench.analysis import (
    DIAGNOSTICS,
    covered,
    load_spec,
    merge_intervals,
    nest,
    percentile,
    self_times,
    tail_percentile,
)
from bench.compare import load_side, verdict
from bench.workloads import WORKLOADS, build_inputs


def _requests(inputs):
    return (
        inputs.warmup
        + inputs.phase_a
        + inputs.phase_b
        + [raw for _, raw in inputs.reads]
        + ([inputs.sentinel] if inputs.sentinel else [])
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    workload = WORKLOADS[name]
    first = _requests(build_inputs(workload, 3, 0.24))
    again = _requests(build_inputs(workload, 3, 0.24))
    other = _requests(build_inputs(workload, 4, 0.24))
    assert first == again
    assert first != other


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 1001))
    assert tail_percentile(values, 990) == (990, 990.0)
    # 999 samples leave only 9 beyond p99, so p95 (49 beyond) is named.
    assert tail_percentile(values[:999], 990) == (950, 950.0)
    # Rungs above the one asked for are never reported.
    assert tail_percentile(list(range(100_000)), 990)[0] == 990
    # Too few samples for any tail rung: the median, named as such.
    assert tail_percentile([3.0, 1.0, 2.0], 990) == (500, 2.0)
    assert percentile([1.0, 2.0, 3.0, 4.0], 500) == 2.0


def test_self_times_of_nested_spans():
    # drain [20, 90] holds two folds; the folds hold pre-summed engine time.
    spans = [(10, 20), (20, 90), (30, 50), (55, 80)]
    parents = nest(spans)
    assert parents == [None, None, 1, 1]
    own = self_times(spans, parents, [0, 0, 5, 10])
    assert own == [10, 25, 15, 15]
    # A request [0, 100] pays the API for what no server span covers.
    top = merge_intervals(s for s, p in zip(spans, parents) if p is None)
    assert top == [(10, 90)]
    api = 100 - covered(0, 100, top)
    assert api == 20
    # Every nanosecond of the request lands in exactly one layer.
    assert api + sum(own) + 5 + 10 == 100


def test_nest_rejects_partial_overlap_and_covered_clips():
    spans = [(0, 50), (40, 70), (45, 60)]
    assert nest(spans) == [None, None, 1]
    merged = merge_intervals(spans)
    assert merged == [(0, 70)]
    assert covered(60, 100, merged) == 10
    assert covered(80, 100, merged) == 0


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    same = [v + 0.05 for v in base]
    faster = [v * 0.8 for v in base]
    noisy = [100.0, 60.0, 140.0, 100.0, 70.0, 130.0, 100.0, 90.0, 110.0, 95.0]
    assert verdict(base, same, 0.05, "lower") == "unchanged"
    assert verdict(base, faster, 0.05, "lower") == "improved"
    assert verdict(faster, base, 0.05, "lower") == "worse"
    assert verdict(base, faster, 0.05, "higher") == "worse"
    assert verdict(base, noisy, 0.05, "lower") == "unresolved"
    # Wide spread, but every run of the change beats every parent run.
    slow = [100.0, 110.0, 140.0, 120.0, 105.0, 150.0, 130.0, 101.0, 90.0, 95.0]
    wide = [60.0, 70.0, 80.0, 65.0, 75.0, 62.0, 78.0, 68.0, 72.0, 66.0]
    assert verdict(slow, wide, 0.05, "lower") == "improved"


def test_compare_leaves_out_invalid_runs(tmp_path):
    for seed, valid in ((1, True), (2, False), (3, True)):
        row = {"valid": valid, "metrics": {"setup_s": float(seed)}}
        (tmp_path / f"{seed}.json").write_text(
            json.dumps({"workloads": {"ewma-hot64": row}})
        )
    side, runs, invalid = load_side(tmp_path)
    assert (runs, invalid) == (3, 1)
    assert side == {"ewma-hot64": {"setup_s": [1.0, 3.0]}}


def test_benchmark_json_matches_the_code():
    spec = load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    gated = {m["name"] for m in spec["end_to_end"]}
    assert "setup_s" in gated and not gated & set(DIAGNOSTICS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
