"""RK001: no wall-clock reads inside the library.

The paper's model (section 2) is discrete time: every engine's clock ``T``
advances only through ``advance()``.  A wall-clock read (``time.time()``,
``datetime.now()``) smuggles nondeterministic real time into code whose
storage and error bounds are stated against model time, and breaks replay
determinism.  No package is exempt: timing code lives outside the library
(``bench/``, and ``benchmarks/``, whose reads the lint baseline accepts).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lintkit.names import ImportMap, resolve_call
from repro.lintkit.registry import Rule, Violation, register

_BANNED = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register
class WallClockRule(Rule):
    rule_id = "RK001"
    title = "no wall-clock time in library code"
    rationale = (
        "Engines run on the discrete model clock T (paper section 2); "
        "wall-clock reads break determinism and the bounds' time model."
    )
    def check(self, ctx) -> Iterator[Violation]:
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call(imports, node)
            if target in _BANNED:
                yield self.violation(
                    ctx,
                    node,
                    f"wall-clock call `{target}` in library code; engines "
                    "must use the discrete model clock (advance())",
                )
