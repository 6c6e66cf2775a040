"""repro.lintkit -- static analysis for this repository's invariants.

The paper's guarantees only hold if every engine obeys the discrete-time
``DecayingSum`` protocol: monotone clocks, reproducible randomness,
certified estimate bounds, bit-level storage accounting.  This package
enforces those invariants *statically* with eleven repo-specific rules:

* **per-file rules** (RK001, RK002, RK004-RK008, RK011) -- classic AST
  walks over one file at a time;
* **whole-program rules** (RK003, RK010, RK012) -- built on an
  import-resolved symbol table, call graph, and taint fixpoint
  (:mod:`repro.lintkit.graph`, :mod:`repro.lintkit.dataflow`), so they
  see facts that span modules: an engine member inherited from a base in
  another module, process machinery reached through an exempt helper,
  an engine attribute the checkpoint codec forgot.

Rule ids are never reused: the number between RK008 and RK010 belongs
to a retired rule and stays unassigned.

Every file is parsed exactly once into a shared :class:`FileContext`
pool that feeds both rule kinds.  Suppression pragmas
(``# lintkit: ignore[RKxxx]``, also honoured on decorator lines),
the ``# lintkit: hot`` marker, and
check-in-able suppression baselines (``--baseline`` /
``--write-baseline``) control adoption.

Run it as ``python -m repro.lintkit src/repro`` (exit code 1 on any
violation, 2 on usage errors) or programmatically::

    from repro.lintkit import lint_paths
    violations = lint_paths(["src/repro"])

The rule catalog lives in ``docs/STATIC_ANALYSIS.md``; stdlib-only, no
runtime dependencies.
"""

from repro.lintkit.baseline import apply_baseline, load_baseline, write_baseline
from repro.lintkit.dataflow import Taint, TaintAnalysis
from repro.lintkit.engine import (
    FileContext,
    iter_python_files,
    lint_contexts,
    lint_file,
    lint_paths,
    lint_source,
    load_contexts,
)
from repro.lintkit.graph import ProjectContext, ProjectGraph
from repro.lintkit.registry import (
    ProjectRule,
    Rule,
    Violation,
    all_rules,
    get_rule,
)

__all__ = [
    "FileContext",
    "ProjectContext",
    "ProjectGraph",
    "ProjectRule",
    "Rule",
    "Taint",
    "TaintAnalysis",
    "Violation",
    "all_rules",
    "apply_baseline",
    "get_rule",
    "iter_python_files",
    "lint_contexts",
    "lint_file",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "load_contexts",
    "write_baseline",
]
