"""Unit tests for the throughput-regression gate (repro.benchkit.regress).

The gate's contract: compare a fresh BENCH_throughput.json against the
checked-in baseline cell by cell, fail (exit 1) when any cell drops more
than the threshold, pass otherwise. The end-to-end behaviour -- including
that an injected 50% slowdown actually flips the exit status -- is pinned
through a real subprocess, since that is exactly how CI invokes it.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.benchkit.regress import (
    DEFAULT_THRESHOLD,
    MAX_HISTOGRAM_HEADROOM,
    MIN_FORWARD_RATIO,
    check_forward_fastest,
    check_histogram_headroom,
    check_schema_lag,
    compare_reports,
    format_diff,
    load_report,
    main,
)
from repro.benchkit.throughput import SCHEMA_VERSION
from repro.core.errors import InvalidParameterError
from repro.lintkit import lint_source

REPO_ROOT = Path(__file__).resolve().parents[2]


def small_report() -> dict:
    """A minimal results matrix; regress ignores every other field."""
    rows = []
    for engine in ("eh", "wbmh"):
        for trace in ("dense", "bursty"):
            for mode in ("batched", "item"):
                rows.append(
                    {
                        "engine": engine,
                        "trace": trace,
                        "mode": mode,
                        "items": 1000,
                        "seconds": 0.01,
                        "items_per_sec": 100_000.0,
                    }
                )
    return {"schema_version": 2, "results": rows}


class TestCompareReports:
    def test_identical_reports_pass(self):
        diffs = compare_reports(small_report(), small_report())
        assert diffs and not any(d.regressed for d in diffs)
        assert all(d.ratio == 1.0 for d in diffs)

    def test_injected_50_percent_slowdown_fails(self):
        fresh = small_report()
        fresh["results"][0]["items_per_sec"] = 50_000.0
        diffs = compare_reports(small_report(), fresh)
        bad = [d for d in diffs if d.regressed]
        assert len(bad) == 1
        assert bad[0].ratio == pytest.approx(0.5)

    def test_drop_inside_threshold_passes(self):
        fresh = small_report()
        for row in fresh["results"]:
            row["items_per_sec"] = 80_000.0  # -20%, under the 30% gate
        diffs = compare_reports(small_report(), fresh)
        assert not any(d.regressed for d in diffs)

    def test_vanished_cell_fails_new_cell_passes(self):
        fresh = small_report()
        dropped = fresh["results"].pop(0)
        fresh["results"].append(
            dict(dropped, engine="brand-new-engine")
        )
        diffs = compare_reports(small_report(), fresh)
        bad = [d for d in diffs if d.regressed]
        assert len(bad) == 1
        assert bad[0].fresh_ips is None  # the vanished one
        new = [d for d in diffs if d.baseline_ips is None]
        assert len(new) == 1 and not new[0].regressed

    def test_threshold_validation(self):
        with pytest.raises(InvalidParameterError):
            compare_reports(small_report(), small_report(), threshold=0.0)
        with pytest.raises(InvalidParameterError):
            compare_reports(small_report(), small_report(), threshold=1.0)

    def test_malformed_rows_rejected(self):
        bad = small_report()
        bad["results"][0] = {"engine": "eh"}
        with pytest.raises(InvalidParameterError):
            compare_reports(bad, small_report())
        bad = small_report()
        bad["results"][0]["items_per_sec"] = 0.0
        with pytest.raises(InvalidParameterError):
            compare_reports(small_report(), bad)


class TestLoadReport:
    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            load_report(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InvalidParameterError):
            load_report(bad)
        no_results = tmp_path / "empty.json"
        no_results.write_text("{}")
        with pytest.raises(InvalidParameterError):
            load_report(no_results)

    def test_older_schema_baseline_still_comparable(self, tmp_path):
        """Schema bumps must not orphan checked-in baselines: the
        comparison only reads the results matrix."""
        old = small_report()
        old["schema_version"] = 1
        path = tmp_path / "old.json"
        path.write_text(json.dumps(old))
        assert load_report(path)["schema_version"] == 1


class TestMainInProcess:
    def _write(self, tmp_path, name, report):
        path = tmp_path / name
        path.write_text(json.dumps(report))
        return path

    def test_exit_0_on_clean_and_1_on_regression(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", small_report())
        fresh_report = small_report()
        clean = self._write(tmp_path, "clean.json", fresh_report)
        assert main(["--baseline", str(base), "--fresh", str(clean)]) == 0
        assert "OK" in capsys.readouterr().out
        slow = copy.deepcopy(fresh_report)
        slow["results"][3]["items_per_sec"] = 50_000.0
        slowed = self._write(tmp_path, "slow.json", slow)
        assert main(["--baseline", str(base), "--fresh", str(slowed)]) == 1
        assert "REGRESSED" in capsys.readouterr().out


class TestSubprocessEndToEnd:
    def test_injected_50_percent_slowdown_flips_exit_status(self, tmp_path):
        """Drive the gate exactly as CI does: `python -m
        repro.benchkit.regress` against two report files, one with a 50%
        slowdown injected into a single cell."""
        base = tmp_path / "baseline.json"
        base.write_text(json.dumps(small_report()))
        slow_report = small_report()
        slow_report["results"][0]["items_per_sec"] *= 0.5
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(slow_report))

        def run(fresh_path):
            return subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro.benchkit.regress",
                    "--baseline",
                    str(base),
                    "--fresh",
                    str(fresh_path),
                ],
                capture_output=True,
                text=True,
                cwd=REPO_ROOT,
            )

        ok = run(base)
        assert ok.returncode == 0, ok.stderr
        assert "OK" in ok.stdout
        bad = run(fresh)
        assert bad.returncode == 1, bad.stderr
        assert "REGRESSED" in bad.stdout


def forward_report(
    fwd_dense: float,
    fwd_bursty: float,
    *,
    exact: float = 2_000_000.0,
    ewma: float = 3_000_000.0,
) -> dict:
    """A report with forward + reference batched cells on both traces."""
    report = small_report()
    for engine, ips in (
        ("fwd(FWD-EXP-0.01)", {"dense": fwd_dense, "bursty": fwd_bursty}),
        ("exact(POLYD-1)", {"dense": exact, "bursty": exact}),
        ("ewma(EXPD-0.01)", {"dense": ewma, "bursty": ewma}),
    ):
        for trace, value in ips.items():
            report["results"].append(
                {
                    "engine": engine,
                    "trace": trace,
                    "mode": "batched",
                    "items": 1000,
                    "seconds": 0.01,
                    "items_per_sec": value,
                }
            )
    return report


class TestForwardIngestGate:
    def test_no_forward_cell_skips(self):
        passed, message = check_forward_fastest(small_report())
        assert passed
        assert "skipped" in message

    def test_no_reference_cells_skip(self):
        report = small_report()
        report["results"].append(
            {
                "engine": "fwd(FWD-EXP-0.01)",
                "trace": "dense",
                "mode": "batched",
                "items": 1000,
                "seconds": 0.01,
                "items_per_sec": 1_000_000.0,
            }
        )
        passed, message = check_forward_fastest(report)
        assert passed
        assert "skipped" in message

    def test_forward_matching_the_slower_reference_passes(self):
        # 2.1M beats the slower reference (exact at 2.0M) even though the
        # ewma register (3.0M) is faster: the gate bars only falling
        # behind *both* reference cells.
        passed, message = check_forward_fastest(
            forward_report(2_100_000.0, 2_100_000.0)
        )
        assert passed
        assert "OK" in message

    def test_forward_behind_both_references_fails(self):
        passed, message = check_forward_fastest(
            forward_report(1_000_000.0, 2_100_000.0)
        )
        assert not passed
        assert "dense" in message

    def test_worst_trace_carries_the_bar(self):
        passed, message = check_forward_fastest(
            forward_report(2_100_000.0, 900_000.0)
        )
        assert not passed
        assert "bursty" in message

    def test_noise_margin_is_honoured(self):
        # Just inside the noise bar: ratio MIN_FORWARD_RATIO exactly.
        floor = 2_000_000.0
        passed, _ = check_forward_fastest(
            forward_report(floor * MIN_FORWARD_RATIO, floor)
        )
        assert passed
        passed, _ = check_forward_fastest(
            forward_report(floor * MIN_FORWARD_RATIO * 0.99, floor)
        )
        assert not passed

    def test_min_ratio_validation(self):
        with pytest.raises(InvalidParameterError):
            check_forward_fastest(forward_report(1.0, 1.0), min_ratio=0.0)
        with pytest.raises(InvalidParameterError):
            check_forward_fastest(forward_report(1.0, 1.0), min_ratio=1.5)

    def test_main_fails_on_forward_shortfall(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(small_report()))
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(forward_report(500_000.0, 500_000.0)))
        assert main(["--baseline", str(base), "--fresh", str(fresh)]) == 1
        assert "forward-ingest gate FAIL" in capsys.readouterr().out

    def test_main_passes_with_healthy_forward_cells(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(small_report()))
        fresh = tmp_path / "fresh.json"
        fresh.write_text(
            json.dumps(forward_report(4_000_000.0, 4_000_000.0))
        )
        assert main(["--baseline", str(base), "--fresh", str(fresh)]) == 0
        assert "forward-ingest gate OK" in capsys.readouterr().out


class TestFormatDiff:
    def test_table_lists_every_cell(self):
        diffs = compare_reports(small_report(), small_report())
        out = format_diff(diffs, threshold=DEFAULT_THRESHOLD)
        assert out.count("ok") >= len(diffs)
        assert "30%" in out


def headroom_section(**engines: float) -> dict:
    """A minimal schema-v4 numpy_baseline section for gate tests."""
    return {
        "items": 20_000.0,
        "seconds": 0.02,
        "items_per_sec": 1_000_000.0,
        "headroom": dict(engines),
    }


class TestHistogramHeadroomGate:
    def test_no_headroom_section_skips(self):
        ok, msg = check_histogram_headroom(small_report())
        assert ok
        assert "skipped" in msg

    def test_no_histogram_engines_skips(self):
        report = {
            **small_report(),
            "numpy_baseline": headroom_section(**{"ewma(EXPD-0.01)": 9.0}),
        }
        ok, msg = check_histogram_headroom(report)
        assert ok
        assert "skipped" in msg

    def test_all_engines_within_bar_pass(self):
        report = {
            **small_report(),
            "numpy_baseline": headroom_section(
                **{
                    "eh(SLIWIN-512)": 1.4,
                    "ceh(POLYD-1)": 1.1,
                    "wbmh(POLYD-1)": 0.7,
                    # Register engines may sit anywhere; the bar ignores them.
                    "exact(POLYD-1)": 50.0,
                }
            ),
        }
        ok, msg = check_histogram_headroom(report)
        assert ok
        assert "OK" in msg

    def test_one_engine_above_bar_fails_and_is_named(self):
        report = {
            **small_report(),
            "numpy_baseline": headroom_section(
                **{
                    "eh(SLIWIN-512)": 1.4,
                    "ceh(POLYD-1)": MAX_HISTOGRAM_HEADROOM + 0.5,
                }
            ),
        }
        ok, msg = check_histogram_headroom(report)
        assert not ok
        assert "ceh(POLYD-1)" in msg
        assert "FAIL" in msg

    def test_exactly_on_the_bar_passes(self):
        report = {
            **small_report(),
            "numpy_baseline": headroom_section(
                **{"wbmh(POLYD-1)": MAX_HISTOGRAM_HEADROOM}
            ),
        }
        ok, _ = check_histogram_headroom(report)
        assert ok

    def test_malformed_headroom_rejected(self):
        report = {
            **small_report(),
            "numpy_baseline": headroom_section(**{"eh(SLIWIN-512)": 1.0}),
        }
        report["numpy_baseline"]["headroom"]["eh(SLIWIN-512)"] = "fast"
        with pytest.raises(InvalidParameterError):
            check_histogram_headroom(report)

    def test_bar_validation(self):
        with pytest.raises(InvalidParameterError):
            check_histogram_headroom(small_report(), max_headroom=0.0)

    def test_main_fails_on_headroom_breach(self, tmp_path, capsys):
        report = {
            **small_report(),
            "numpy_baseline": headroom_section(
                **{"eh(SLIWIN-512)": MAX_HISTOGRAM_HEADROOM * 3}
            ),
        }
        base = tmp_path / "base.json"
        fresh = tmp_path / "fresh.json"
        base.write_text(json.dumps(small_report()))
        fresh.write_text(json.dumps(report))
        code = main(["--baseline", str(base), "--fresh", str(fresh)])
        out = capsys.readouterr().out
        assert code == 1
        assert "histogram-headroom gate FAIL" in out


class TestSchemaLagGate:
    def test_missing_versions_skip(self):
        report = {"results": small_report()["results"]}
        ok, msg = check_schema_lag(report, small_report())
        assert ok
        assert "skipped" in msg

    def test_equal_and_ahead_pass(self):
        base = small_report()
        ahead = {**small_report(), "schema_version": base["schema_version"] + 1}
        assert check_schema_lag(base, base)[0]
        assert check_schema_lag(base, ahead)[0]

    def test_lagging_fresh_fails_with_instructions(self):
        base = {**small_report(), "schema_version": 4}
        stale = {**small_report(), "schema_version": 3}
        ok, msg = check_schema_lag(base, stale)
        assert not ok
        assert "stale" in msg
        assert "regenerate" in msg

    def test_main_fails_on_stale_root_snapshot(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        fresh = tmp_path / "fresh.json"
        base.write_text(
            json.dumps({**small_report(), "schema_version": 99})
        )
        fresh.write_text(json.dumps(small_report()))
        code = main(["--baseline", str(base), "--fresh", str(fresh)])
        out = capsys.readouterr().out
        assert code == 1
        assert "schema-lag gate FAIL" in out

    def test_current_schema_compares_against_checked_in_baseline(
        self, tmp_path, capsys
    ):
        # The checked-in baseline predates the current schema (it still
        # carries a v4 ``scaling`` section); a fresh report without one
        # must compare cleanly against it.
        baseline = REPO_ROOT / "benchmarks/baselines/BENCH_throughput.json"
        fresh_report = load_report(baseline)
        fresh_report.pop("scaling", None)
        fresh_report["schema_version"] = SCHEMA_VERSION
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(fresh_report))
        code = main(["--baseline", str(baseline), "--fresh", str(fresh)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert f"fresh schema v{SCHEMA_VERSION} >= baseline" in out


class TestWallClockExemption:
    def test_regress_module_is_rk001_exempt(self):
        """RK001 bans wall-clock reads in the library proper but exempts
        ``benchkit``; the regression gate lives there on purpose. Lint the
        real shipped sources to pin the allowlist."""
        for rel in ("benchkit/regress.py", "benchkit/throughput.py"):
            path = REPO_ROOT / "src" / "repro" / rel
            found = lint_source(
                path.read_text(), f"repro/{rel}", select=["RK001"]
            )
            assert found == [], rel
