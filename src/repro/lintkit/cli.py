"""Command-line front end: ``python -m repro.lintkit [paths...]``.

Exit codes: 0 clean, 1 violations found, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.lintkit.baseline import (
    BaselineError,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.lintkit.engine import lint_contexts, load_contexts
from repro.lintkit.registry import ProjectRule, Rule, all_rules
from repro.lintkit.reporting import render_json, render_text

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lintkit",
        description=(
            "AST-based invariant linter for the decayed-aggregate engines "
            "(file rules RK001, RK002, RK004-RK008 and RK011, whole-program "
            "rules RK003, RK010 and RK012; see docs/STATIC_ANALYSIS.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help=(
            "suppression baseline to subtract from the findings "
            "(see --write-baseline); only new violations fail the run"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help=(
            "record every current finding into FILE and exit 0; check the "
            "file in and pass it back via --baseline for incremental "
            "adoption"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for rule in all_rules():
        scope = ", ".join(rule.applies_to) if rule.applies_to else "all files"
        exempt = f" (exempt: {', '.join(rule.exempt)})" if rule.exempt else ""
        kind = "project" if isinstance(rule, ProjectRule) else "file"
        lines.append(
            f"{rule.rule_id}  {rule.title}  [{kind}; scope: {scope}{exempt}]"
        )
    return "\n".join(lines)


def _resolve_selection(raw: str | None) -> list[Rule] | None:
    """Validate ``--select`` up front, before any file is read.

    Raises ``KeyError`` for unknown rule ids and ``ValueError`` for a
    selection that names no rules at all -- silently linting with an
    empty rule set would report a misleading "0 violations".
    """
    if raw is None:
        return None
    wanted = [s.strip().upper() for s in raw.split(",") if s.strip()]
    if not wanted:
        raise ValueError(f"--select {raw!r} names no rules")
    pool = {rule.rule_id: rule for rule in all_rules()}
    unknown = sorted(set(wanted) - set(pool))
    if unknown:
        raise KeyError(f"unknown rule id(s): {', '.join(unknown)}")
    return [pool[rule_id] for rule_id in sorted(set(wanted))]


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    opts = parser.parse_args(argv)
    if opts.list_rules:
        print(_list_rules())
        return 0
    try:
        rules = _resolve_selection(opts.select)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    baseline = None
    if opts.baseline:
        try:
            baseline = load_baseline(opts.baseline)
        except BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    contexts, errors = load_contexts([Path(p) for p in opts.paths])
    if not contexts and not errors:
        print(f"error: no python files under {', '.join(opts.paths)}", file=sys.stderr)
        return 2
    violations = lint_contexts(contexts, rules=rules)
    violations.extend(errors)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    if opts.write_baseline:
        count = write_baseline(opts.write_baseline, violations)
        print(
            f"baseline: wrote {count} finding(s) from "
            f"{len(contexts)} file(s) to {opts.write_baseline}"
        )
        return 0
    suppressed = 0
    if baseline is not None:
        violations, suppressed = apply_baseline(violations, baseline)
    if opts.format == "json":
        print(
            render_json(
                violations,
                files_checked=len(contexts),
                baselined=suppressed,
            )
        )
    else:
        print(render_text(violations, files_checked=len(contexts)))
        if suppressed:
            print(f"({suppressed} baselined finding(s) suppressed)")
    return 1 if violations else 0
