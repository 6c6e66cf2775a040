"""Machine-readable conformance reports (CI artifact + nightly log).

A versioned JSON schema, a :func:`validate_report` shared by the writer
and the CI job that consumes the artifact, and a human-readable
formatter for the terminal.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from repro.conformance.suite import RunResult
from repro.core.errors import InvalidParameterError

__all__ = [
    "SCHEMA_VERSION",
    "build_report",
    "validate_report",
    "write_report",
    "format_report",
]

SCHEMA_VERSION = 1


def build_report(result: RunResult) -> dict[str, Any]:
    """JSON-safe report for one suite run."""
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "engines": list(result.engines),
        "laws": list(result.laws),
        "seeds": result.seeds,
        "start_seed": result.start_seed,
        "cases": result.cases,
        "ok": result.ok,
        "findings": [finding.to_dict() for finding in result.findings],
    }
    validate_report(report)
    return report


def validate_report(report: Mapping[str, Any]) -> None:
    """Schema check shared with the CI conformance job.

    Raises :class:`InvalidParameterError` describing the first violation.
    """
    if report.get("schema_version") != SCHEMA_VERSION:
        raise InvalidParameterError(
            f"schema_version must be {SCHEMA_VERSION}, "
            f"got {report.get('schema_version')!r}"
        )
    for key in ("engines", "laws", "seeds", "cases", "ok", "findings"):
        if key not in report:
            raise InvalidParameterError(f"missing top-level key {key!r}")
    engines = report["engines"]
    laws = report["laws"]
    findings = report["findings"]
    if not isinstance(engines, list) or not engines:
        raise InvalidParameterError("engines must be a non-empty list")
    if not isinstance(laws, list) or not laws:
        raise InvalidParameterError("laws must be a non-empty list")
    if not isinstance(findings, list):
        raise InvalidParameterError("findings must be a list")
    if bool(report["ok"]) != (not findings):
        raise InvalidParameterError("ok flag inconsistent with findings list")
    for row in findings:
        if not isinstance(row, dict):
            raise InvalidParameterError(f"finding must be a dict, got {row!r}")
        for key in ("law", "engine", "message", "trace", "shrunk"):
            if key not in row:
                raise InvalidParameterError(f"finding missing {key!r}: {row!r}")
        for key in ("trace", "shrunk"):
            body = row[key]
            if not isinstance(body, dict) or "items" not in body:
                raise InvalidParameterError(
                    f"finding {key!r} must be a trace dict: {row!r}"
                )


def write_report(report: Mapping[str, Any], path: str | Path) -> Path:
    """Validate and write the JSON report; returns the path."""
    validate_report(report)
    out = Path(path)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out


def format_report(report: Mapping[str, Any]) -> str:
    """Terminal summary: verdict line plus one line per finding."""
    validate_report(report)
    lines = [
        (
            f"conformance: {report['cases']} cells over {report['seeds']} "
            f"seed(s), engines={','.join(report['engines'])}, "
            f"laws={','.join(report['laws'])}"
        )
    ]
    findings = report["findings"]
    if not findings:
        lines.append("OK: all laws hold")
        return "\n".join(lines)
    lines.append(f"FAIL: {len(findings)} violation(s)")
    for row in findings:
        shrunk = row["shrunk"]
        seed = row.get("seed")
        origin = f"seed {seed}" if seed is not None else "corpus"
        lines.append(
            f"  [{row['law']}] {row['engine']} ({origin}): {row['message']}"
        )
        lines.append(
            f"    reproducer: {len(shrunk['items'])} item(s), "
            f"tail={shrunk.get('tail', 0)}, items={shrunk['items']}"
        )
    return "\n".join(lines)
