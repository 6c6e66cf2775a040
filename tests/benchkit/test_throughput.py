"""Unit tests for the throughput baseline module (schema and semantics).

Timing *numbers* are benchmark territory (benchmarks/); tier-1 only checks
that the machinery measures the right thing: fresh engines per run, valid
JSON schema, both modes leaving bit-identical engine state.
"""

import json

import pytest

from repro.benchkit.throughput import (
    SCHEMA_VERSION,
    Phases,
    ThroughputResult,
    default_engines,
    default_traces,
    eh_bulk_speedup,
    histogram_phase_breakdown,
    measure_throughput,
    numpy_dense_baseline,
    run_suite,
    validate_report,
    wbmh_advance_speedup,
    write_report,
)
from repro.core.decay import PolynomialDecay
from repro.core.errors import InvalidParameterError
from repro.core.exact import ExactDecayingSum


class TestMeasureThroughput:
    def test_measures_both_modes(self):
        items = list(default_traces(200)["dense"])
        for mode in ("batched", "item"):
            res = measure_throughput(
                lambda: ExactDecayingSum(PolynomialDecay(1.0)),
                items,
                engine_name="exact",
                trace_name="dense",
                mode=mode,
            )
            assert isinstance(res, ThroughputResult)
            assert res.items == len(items)
            assert res.items_per_sec > 0
            assert res.mode == mode

    def test_modes_leave_identical_engine_state(self):
        items = list(default_traces(300)["bursty"])
        engines = {}
        for mode in ("batched", "item"):
            captured = []

            def factory():
                engine = ExactDecayingSum(PolynomialDecay(1.0))
                captured.append(engine)
                return engine

            measure_throughput(factory, items, mode=mode)
            engines[mode] = captured[-1]
        a, b = engines["batched"], engines["item"]
        assert a.time == b.time
        assert a.query().value == b.query().value

    def test_rejects_unknown_mode_and_bad_repeats(self):
        with pytest.raises(InvalidParameterError):
            measure_throughput(
                lambda: ExactDecayingSum(PolynomialDecay(1.0)), [], mode="warp"
            )
        with pytest.raises(InvalidParameterError):
            measure_throughput(
                lambda: ExactDecayingSum(PolynomialDecay(1.0)), [], repeats=0
            )


class TestDefaults:
    def test_five_acceptance_engines(self):
        engines = default_engines()
        names = " ".join(engines)
        for token in ("exact", "ewma", "eh", "ceh", "wbmh"):
            assert token in names
        for factory in engines.values():
            engine = factory()
            engine.add_batch([1.0, 2.0])
            assert engine.query().value >= 0.0

    def test_two_trace_shapes_with_requested_items(self):
        traces = default_traces(500)
        assert len(traces) >= 2
        for items in traces.values():
            assert len(items) == 500
            times = [item.time for item in items]
            assert times == sorted(times)

    def test_bursty_trace_has_same_tick_batches(self):
        bursty = default_traces(400)["bursty"]
        per_tick = {}
        for item in bursty:
            per_tick[item.time] = per_tick.get(item.time, 0) + 1
        assert max(per_tick.values()) > 1


class TestEhBulkSpeedup:
    def test_reports_positive_speedup_fields(self):
        res = eh_bulk_speedup(5_000)
        assert res["value"] == 5_000.0
        assert res["bulk_seconds"] > 0
        assert res["unary_seconds"] > 0
        assert res["speedup"] > 1.0

    def test_rejects_non_positive_value(self):
        with pytest.raises(InvalidParameterError):
            eh_bulk_speedup(0)


class TestReportSchema:
    def test_suite_report_validates_and_round_trips(self, tmp_path):
        report = run_suite(300, bulk_value=2_000, repeats=1, advance_events=5, advance_max_gap=500)
        assert report["schema_version"] == SCHEMA_VERSION
        path = write_report(report, tmp_path / "BENCH_throughput.json")
        loaded = json.loads(path.read_text())
        validate_report(loaded)
        assert loaded["n_items"] == 300

    def test_validate_rejects_missing_pieces(self):
        report = run_suite(100, bulk_value=500, repeats=1, advance_events=5, advance_max_gap=500)
        bad = dict(report)
        bad["schema_version"] = 99
        with pytest.raises(InvalidParameterError):
            validate_report(bad)
        bad = dict(report)
        del bad["eh_bulk"]
        with pytest.raises(InvalidParameterError):
            validate_report(bad)
        bad = dict(report)
        bad["results"] = [dict(report["results"][0], items_per_sec=0.0)]
        with pytest.raises(InvalidParameterError):
            validate_report(bad)
        bad = dict(report)
        bad["results"] = [
            row
            for row in report["results"]
            if not (row["engine"].startswith("wbmh") and row["mode"] == "batched")
        ]
        with pytest.raises(InvalidParameterError):
            validate_report(bad)


class TestSchemaV2Fields:
    def test_report_carries_ratios_and_python_version(self):
        import platform

        report = run_suite(
            200, bulk_value=500, repeats=1, advance_events=5,
            advance_max_gap=500,
        )
        assert report["python_version"] == platform.python_version()
        cells = {
            (r["engine"], r["trace"]): r["batched_over_item"]
            for r in report["speedups"]
        }
        for engine in report["engines"]:
            for trace in report["traces"]:
                assert cells[(engine, trace)] > 0
        for key in ("total_ticks", "skip_seconds", "unit_seconds", "speedup"):
            assert report["wbmh_advance"][key] > 0
        numpy_baseline = report["numpy_baseline"]
        assert numpy_baseline["items_per_sec"] > 0
        assert set(numpy_baseline["headroom"]) == set(report["engines"])

    def test_validate_rejects_missing_v2_pieces(self):
        report = run_suite(
            100, bulk_value=500, repeats=1, advance_events=5,
            advance_max_gap=500,
        )
        for key in ("python_version", "speedups", "wbmh_advance",
                    "numpy_baseline"):
            bad = dict(report)
            del bad[key]
            with pytest.raises(InvalidParameterError):
                validate_report(bad)
        bad = dict(report)
        bad["speedups"] = []
        with pytest.raises(InvalidParameterError):
            validate_report(bad)


class TestPhaseBreakdown:
    def test_covers_every_histogram_engine_and_phase(self):
        section = histogram_phase_breakdown(400)
        assert set(section["engines"]) == {
            "eh(SLIWIN-512)",
            "ceh(POLYD-1)",
            "wbmh(POLYD-1)",
        }
        covered = {}
        for row in section["rows"]:
            covered.setdefault(row["engine"], set()).add(row["phase"])
            assert row["seconds"] >= 0
            assert 0 <= row["share"] <= 1
        for engine in section["engines"]:
            assert covered[engine] == set(Phases)

    def test_shares_partition_the_loop(self):
        section = histogram_phase_breakdown(400)
        totals = {}
        for row in section["rows"]:
            totals[row["engine"]] = totals.get(row["engine"], 0.0) + row["share"]
        for engine, total in totals.items():
            # The add phase is the clamped remainder, so the four shares
            # can only undershoot 1 (by timer jitter), never overshoot.
            assert 0.5 < total <= 1.0 + 1e-9, engine

    def test_timers_are_unpatched_afterwards(self):
        from repro.histograms.eh import ExponentialHistogram
        from repro.histograms.wbmh import Lattice

        before = (ExponentialHistogram._cascade, Lattice._seal)
        histogram_phase_breakdown(50)
        assert (ExponentialHistogram._cascade, Lattice._seal) == before

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            histogram_phase_breakdown(0)
        with pytest.raises(InvalidParameterError):
            histogram_phase_breakdown(100, query_every=0)

    def test_validate_rejects_broken_phase_sections(self):
        report = run_suite(
            100, bulk_value=500, repeats=1, advance_events=5,
            advance_max_gap=500,
        )
        bad = dict(report)
        del bad["phases"]
        with pytest.raises(InvalidParameterError):
            validate_report(bad)
        bad = dict(report)
        bad["phases"] = dict(report["phases"], rows=[])
        with pytest.raises(InvalidParameterError):
            validate_report(bad)
        bad = dict(report)
        rows = [dict(r) for r in report["phases"]["rows"]]
        rows[0]["phase"] = "mystery"
        bad["phases"] = dict(report["phases"], rows=rows)
        with pytest.raises(InvalidParameterError):
            validate_report(bad)
        bad = dict(report)
        rows = [
            dict(r)
            for r in report["phases"]["rows"]
            if not (r["engine"].startswith("wbmh") and r["phase"] == "expire")
        ]
        bad["phases"] = dict(report["phases"], rows=rows)
        with pytest.raises(InvalidParameterError):
            validate_report(bad)


class TestWbmhAdvanceSpeedup:
    def test_states_identical_and_fields_positive(self):
        res = wbmh_advance_speedup(n_events=5, max_gap=500)
        assert res["total_ticks"] > 0
        assert res["skip_seconds"] > 0
        assert res["unit_seconds"] > 0
        assert res["speedup"] > 0

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidParameterError):
            wbmh_advance_speedup(n_events=0)
        with pytest.raises(InvalidParameterError):
            wbmh_advance_speedup(max_gap=1)


class TestNumpyDenseBaseline:
    def test_matches_exact_engine(self):
        items = list(default_traces(300)["dense"])
        res = numpy_dense_baseline(items, repeats=1)
        engine = ExactDecayingSum(PolynomialDecay(1.0))
        engine.ingest(items)
        assert res["query_value"] == pytest.approx(engine.query().value)
        assert res["items_per_sec"] > 0

    def test_rejects_bad_repeats(self):
        with pytest.raises(InvalidParameterError):
            numpy_dense_baseline(list(default_traces(50)["dense"]), repeats=0)
