"""RK008: concurrency primitives live only at the declared boundaries.

The merge algebra makes shard-parallelism a *boundary* concern: workers
run ordinary single-threaded engines and the fold happens at the edge
(the sharded service front, :mod:`repro.service.sharded`).  An engine
or law that imports ``multiprocessing``, ``concurrent.futures``,
``threading``, or ``asyncio`` directly would smuggle scheduling
nondeterminism into code whose answers must be a pure function of the
trace -- replay determinism (RK002) and the conformance kit's shrinking
both depend on that.  This rule keeps the allowlist honest: any
process-, thread-, or event-loop-level machinery added outside the
exempt package is a lint failure, not a code-review judgement call.

One package is exempt: ``repro.service``, with two sanctioned surfaces --
the serving layer's single-consumer asyncio loop (daemon/API modules),
and the sharded worker plane (``service/sharded.py`` +
``service/ipc.py``), where ``multiprocessing`` pipes carry batched
frames to per-worker stores.  The *store* itself stays synchronous
either way: workers run ordinary single-threaded ``ServiceStore`` shards
in lock-step, so every reply is still a pure function of the routed
trace.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lintkit.registry import Rule, Violation, register

#: Top-level module names whose import marks concurrency machinery.
_BANNED_ROOTS = frozenset(
    {"multiprocessing", "concurrent", "threading", "_thread", "asyncio"}
)


def _root(module: str) -> str:
    return module.split(".", 1)[0]


@register
class ParallelismBoundaryRule(Rule):
    rule_id = "RK008"
    title = "concurrency imports only inside repro.service"
    rationale = (
        "Engines must stay pure functions of the trace; process and "
        "event-loop machinery belongs at the serving boundary "
        "(repro.service: the sharded worker plane and the asyncio daemon), "
        "where the merge algebra and the single-consumer fold keep answers "
        "deterministic."
    )
    exempt = ("service",)

    def check(self, ctx) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                if _root(name) in _BANNED_ROOTS:
                    yield self.violation(
                        ctx,
                        node,
                        f"concurrency import `{name}` outside the exempt "
                        "package (repro.service); shard the work onto "
                        "repro.service workers and merge the summaries "
                        "instead",
                    )
