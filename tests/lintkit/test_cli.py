"""End-to-end CLI tests: ``python -m repro.lintkit`` over the fixtures."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).parents[2]


def run_lintkit(*args: str) -> subprocess.CompletedProcess[str]:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.lintkit", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


class TestCliOnFixtures:
    def test_bad_fixtures_fail_with_rule_id_and_location(self):
        proc = run_lintkit(str(FIXTURES))
        assert proc.returncode == 1
        # every seeded rule fires, each with a file:line:col anchor
        for rule_id in ("RK001", "RK002", "RK003", "RK004", "RK005", "RK006"):
            assert rule_id in proc.stdout, proc.stdout
        assert re.search(r"bad_rk001\.py:\d+:\d+: RK001", proc.stdout)

    def test_clean_fixture_exits_zero(self):
        proc = run_lintkit(str(FIXTURES / "clean"))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 violations" in proc.stdout

    def test_select_limits_rules(self):
        proc = run_lintkit(str(FIXTURES), "--select", "RK004")
        assert proc.returncode == 1
        assert "RK004" in proc.stdout
        assert "RK001" not in proc.stdout

    def test_json_format_is_machine_readable(self):
        proc = run_lintkit(str(FIXTURES), "--format", "json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["files_checked"] >= 7
        rules = {v["rule"] for v in payload["violations"]}
        assert {"RK001", "RK002", "RK003", "RK004", "RK005", "RK006"} <= rules
        first = payload["violations"][0]
        assert set(first) == {"rule", "path", "line", "col", "message"}

    def test_list_rules(self):
        proc = run_lintkit("--list-rules")
        assert proc.returncode == 0
        for rule_id in ("RK001", "RK002", "RK003", "RK004", "RK005", "RK006"):
            assert rule_id in proc.stdout

    def test_unknown_rule_is_usage_error(self):
        proc = run_lintkit(str(FIXTURES), "--select", "RK999")
        assert proc.returncode == 2
        assert "unknown rule" in proc.stderr
        assert "RK999" in proc.stderr

    def test_unknown_rule_mixed_with_known_names_the_bad_id(self):
        proc = run_lintkit(str(FIXTURES), "--select", "RK001,RK777")
        assert proc.returncode == 2
        assert "unknown rule" in proc.stderr
        assert "RK777" in proc.stderr
        assert "RK001" not in proc.stderr  # only the bad id is named

    def test_empty_selection_is_usage_error(self):
        # `--select ,` used to silently lint with zero rules and exit 0.
        proc = run_lintkit(str(FIXTURES), "--select", ",")
        assert proc.returncode == 2
        assert "names no rules" in proc.stderr

    def test_missing_path_is_usage_error(self):
        proc = run_lintkit(str(FIXTURES / "does-not-exist"))
        assert proc.returncode == 2


class TestBaselines:
    def test_write_then_apply_round_trip(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        proc = run_lintkit(str(FIXTURES), "--write-baseline", str(baseline))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "baseline: wrote" in proc.stdout
        assert baseline.is_file()
        # With every current finding baselined, the same run passes...
        proc = run_lintkit(str(FIXTURES), "--baseline", str(baseline))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "baselined finding(s) suppressed" in proc.stdout
        # ...and is reported in the JSON document too.
        proc = run_lintkit(
            str(FIXTURES), "--baseline", str(baseline), "--format", "json"
        )
        payload = json.loads(proc.stdout)
        assert payload["violations"] == []
        assert payload["baselined"] > 0

    def test_new_violation_survives_baseline(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        run_lintkit(str(FIXTURES), "--write-baseline", str(baseline))
        extra = tmp_path / "fresh.py"
        extra.write_text("import time\nx = time.time()\n", encoding="utf-8")
        proc = run_lintkit(
            str(FIXTURES), str(extra), "--baseline", str(baseline)
        )
        assert proc.returncode == 1
        assert "fresh.py" in proc.stdout
        assert "RK001" in proc.stdout

    def test_corrupt_baseline_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        proc = run_lintkit(str(FIXTURES), "--baseline", str(bad))
        assert proc.returncode == 2
        assert "baseline" in proc.stderr


class TestEvidenceReporting:
    SRC_A = (
        "from repro.service.pool import fan_out\n"
        "def ingest():\n"
        "    return fan_out()\n"
    )
    SRC_B = (
        "import multiprocessing\n"
        "def fan_out():\n"
        "    return multiprocessing.Pool()\n"
    )

    def _project(self, tmp_path):
        root = tmp_path / "src" / "repro"
        (root / "core").mkdir(parents=True)
        (root / "service").mkdir()
        (root / "core" / "trace.py").write_text(self.SRC_A, encoding="utf-8")
        (root / "service" / "pool.py").write_text(
            self.SRC_B, encoding="utf-8"
        )
        return tmp_path / "src"

    def test_json_rows_carry_evidence_chains(self, tmp_path):
        proc = run_lintkit(
            str(self._project(tmp_path)), "--select", "RK010",
            "--format", "json",
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        [row] = payload["violations"]
        assert row["rule"] == "RK010"
        assert row["evidence"] == [
            "repro.core.trace.ingest",
            "repro.service.pool.fan_out",
            "multiprocessing.Pool",
        ]

    def test_text_mode_renders_chain_inline(self, tmp_path):
        proc = run_lintkit(str(self._project(tmp_path)), "--select", "RK010")
        assert proc.returncode == 1
        assert (
            "[repro.core.trace.ingest -> repro.service.pool.fan_out"
            " -> multiprocessing.Pool]" in proc.stdout
        )


class TestCliOnShippedTree:
    def test_src_repro_is_clean(self):
        proc = run_lintkit("src/repro")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 violations" in proc.stdout
