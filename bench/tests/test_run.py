"""End-to-end self-tests of ``bench/run.py`` on 0.24-second runs."""

from __future__ import annotations

import asyncio
import json
from time import perf_counter_ns

import pytest

from bench import loadgen, run
from bench.analysis import load_spec
from bench.workloads import WORKLOADS

SHORT = ["--seconds", "0.24"]


def _summary(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_wrong_reference_fails_the_run(capsys):
    def plant(store):
        key = store.keys()[0]
        store.observe_values(key, [1.0])

    status = run.main(
        ["--workload", "ewma-hot64", "--seed", "5", *SHORT], tamper=plant
    )
    summary = _summary(capsys)
    assert status != 0
    assert summary["correct"] is False
    assert summary["failed"] > 0


def test_untampered_run_is_correct(capsys):
    status = run.main(["--workload", "wbmh-late64", "--seed", "5", *SHORT])
    summary = _summary(capsys)
    assert status == 0 and summary["correct"] and summary["failed"] == 0
    names = {m["name"] for m in load_spec()["end_to_end"]}
    assert set(summary["metrics"]) == names
    assert all(m["value"] > 0 for m in summary["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_emits_every_per_layer_metric(name, capsys):
    status = run.main(["--workload", name, "--seed", "5", "--trace", "1", *SHORT])
    summary = _summary(capsys)
    assert status == 0 and summary["correct"]
    names = {m["name"] for m in load_spec()["per_layer"]}
    assert set(summary["metrics"]) == names
    assert summary["metrics"]["service.store.dropped_items"]["value"] == 0
    for metric, entry in summary["metrics"].items():
        if metric.endswith("_s") or metric.endswith("_ms"):
            assert entry["value"] >= 0, metric


def test_late_generator_marks_the_run_invalid(capsys, monkeypatch, tmp_path):
    async def three_ms_late(due):
        await asyncio.sleep(max(due - perf_counter_ns(), 0) / 1e9 + 0.003)

    monkeypatch.setattr(loadgen, "_sleep_until", three_ms_late)
    out = tmp_path / "run.json"
    status = run.main(
        ["--workload", "ewma-hot64", "--seed", "5", *SHORT, "--out", str(out)]
    )
    assert "INVALID" in capsys.readouterr().out
    assert status == 0
    row = json.loads(out.read_text())["workloads"]["ewma-hot64"]
    assert row["correct"] and not row["valid"]
    assert row["metrics"]["bench.loadgen.send_lag_p99_ms"] >= 3.0
