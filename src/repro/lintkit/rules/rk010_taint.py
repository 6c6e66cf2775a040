"""RK010: no transitive global-RNG / concurrency reach.

RK002 and RK008 are per-file rules with scope carve-outs:
``repro.service`` may import process and event-loop machinery, and the
RNG rule only watches ``sketches``/``sampling``/``streams``.  That leaves
a structural blind spot -- in-scope code can *call into* an exempt-scope
helper and inherit the nondeterminism the carve-out was never meant to
launder::

    # histograms/bad.py (RK008 applies, but sees no concurrency import)
    from repro.service.pool import fan_out    # service: RK008-exempt
    def merge_all(...):
        return fan_out()     # multiprocessing.Pool() two hops away

This whole-program rule closes the gap with the taint fixpoint from
:mod:`repro.lintkit.dataflow`: a function in a label's scope that calls
an out-of-scope project helper whose call closure reaches a banned sink
is flagged at the crossing call site, with the full witness chain
(``f -> g -> multiprocessing.Pool``) attached as evidence.  Direct calls
are left to the per-file rules, and crossings are reported once at the
boundary edge rather than once per transitive caller.  RK001 exempts no
package, so a wall-clock read has no exempt helper to hide in: RK001
reports every one where it is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.lintkit.dataflow import TaintAnalysis
from repro.lintkit.registry import ProjectRule, Violation, register
from repro.lintkit.rules.rk002_rng import _NUMPY_OK, _RANDOM_OK
from repro.lintkit.rules.rk008_parallelism import _BANNED_ROOTS


def _is_global_rng(target: str) -> bool:
    if target in _RANDOM_OK or target in _NUMPY_OK:
        return False
    if target.startswith("random."):
        return "." not in target.split(".", 1)[1]
    return target.startswith("numpy.random.")


def _is_concurrency(target: str) -> bool:
    return target.split(".", 1)[0] in _BANNED_ROOTS


@dataclass(frozen=True)
class _Label:
    """One taint label: its sinks and the file scope it protects."""

    name: str
    describe: str
    predicate: Callable[[str], bool]
    #: Whether a file with these path parts must stay free of the label.
    in_scope: Callable[[tuple[str, ...]], bool]


_RNG_DIRS = ("sketches", "sampling", "streams")

#: Packages whose answers must be pure functions of the trace.  Drivers
#: (benchkit, the CLI, repro.service itself) are *supposed* to call the
#: sharded worker plane -- that is the sanctioned RK008 pattern -- so the
#: concurrency label binds only the engine packages.
_PURE_DIRS = (
    "core",
    "histograms",
    "counters",
    "sketches",
    "sampling",
    "streams",
    "conformance",
)

_LABELS = (
    _Label(
        name="global-rng",
        describe="the module-global RNG",
        predicate=_is_global_rng,
        in_scope=lambda parts: any(p in _RNG_DIRS for p in parts),
    ),
    _Label(
        name="concurrency",
        describe="process/thread machinery",
        predicate=_is_concurrency,
        in_scope=lambda parts: any(p in _PURE_DIRS for p in parts),
    ),
)


@register
class TransitiveTaintRule(ProjectRule):
    rule_id = "RK010"
    title = "no indirect RNG/concurrency via exempt helpers"
    rationale = (
        "Scope carve-outs (repro.service for concurrency, code outside "
        "sketches/sampling/streams for the global RNG) exempt helpers, "
        "not their callers; in-scope code reaching a "
        "banned sink through an exempt helper inherits nondeterminism the "
        "per-file rules cannot see."
    )

    def check_project(self, project) -> Iterator[Violation]:
        graph = project.graph
        analysis = TaintAnalysis(
            graph, {label.name: label.predicate for label in _LABELS}
        )
        for label in _LABELS:
            table = analysis.tainted[label.name]
            for qualname in sorted(table):
                taint = table[qualname]
                if len(taint.chain) < 3:
                    continue  # direct sink calls are the per-file rules' job
                fn = graph.functions[qualname]
                module = graph.modules.get(fn.module)
                if module is None or not label.in_scope(module.ctx.parts):
                    continue
                helper = taint.chain[1]
                helper_fn = graph.functions.get(helper)
                if helper_fn is None:
                    continue
                helper_mod = graph.modules.get(helper_fn.module)
                if helper_mod is None or label.in_scope(helper_mod.ctx.parts):
                    # The helper is itself in scope: the chain's eventual
                    # boundary crossing (or direct call) is reported there.
                    continue
                lineno = next(
                    (s.lineno for s in fn.calls if s.target == helper),
                    fn.node.lineno,
                )
                yield Violation(
                    rule_id=self.rule_id,
                    path=module.ctx.display_path,
                    line=lineno,
                    col=0,
                    message=(
                        f"`{fn.qualname}` reaches {label.describe} "
                        f"(`{taint.sink}`) through exempt-scope helper "
                        f"`{helper}`; inject the value or move the caller "
                        "out of library scope"
                    ),
                    evidence=taint.chain,
                )
