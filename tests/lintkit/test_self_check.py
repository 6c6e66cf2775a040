"""Self-check: the shipped tree must be violation-free, in-process.

This is the programmatic twin of ``python -m repro.lintkit src/repro`` --
it keeps the invariants enforced by plain ``pytest`` runs even where the
CLI is never invoked.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.lintkit import iter_python_files, lint_paths

SRC = Path(repro.__file__).parent


def test_package_root_resolves() -> None:
    assert (SRC / "core" / "interfaces.py").is_file()


def test_tree_has_expected_size() -> None:
    files = list(iter_python_files([SRC]))
    assert len(files) > 50  # the whole library, not a subset


def test_shipped_tree_is_violation_free() -> None:
    violations = lint_paths([SRC])
    details = "\n".join(v.render() for v in violations)
    assert violations == [], f"lintkit violations in shipped tree:\n{details}"


def test_shipped_tree_passes_whole_program_rules() -> None:
    """RK010-RK012 explicitly: the graph-based rules run (not vacuously
    skipped) and find the shipped engines sound."""
    violations = lint_paths([SRC], select=["RK010", "RK011", "RK012"])
    details = "\n".join(v.render() for v in violations)
    assert violations == [], f"whole-program violations:\n{details}"


def test_whole_program_rules_see_the_real_graph() -> None:
    """Guard against the self-check passing because the graph is empty."""
    from repro.lintkit.engine import load_contexts
    from repro.lintkit.graph import ProjectContext

    contexts, errors = load_contexts([SRC])
    assert errors == []
    graph = ProjectContext(contexts).graph
    assert len(graph.modules) > 50
    assert len(graph.functions) > 400
    # A known intra-class edge: the EH cascade is reached from the add
    # fast path (protocol calls through engine variables stay dynamic by
    # design, so public entry points may legitimately have no callers).
    cascade = "repro.histograms.eh.ExponentialHistogram._cascade"
    add = "repro.histograms.eh.ExponentialHistogram.add"
    assert cascade in graph.functions
    assert add in graph.callers.get(cascade, set())
