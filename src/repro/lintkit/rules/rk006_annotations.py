"""RK006: complete annotations on the core/histograms/streams surface.

``repro.core``, ``repro.histograms`` and ``repro.streams`` are the layers
every other module (and external callers) build on; their signatures *are*
the contract that ``mypy --strict`` then verifies end to end.  An
unannotated public parameter or return silently downgrades everything that
flows through it to ``Any`` and punches a hole in the typing gate.
(``streams`` joined the scope after a ``storage_report`` there shipped
without a return annotation and under-reported for a full PR cycle.)
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.lintkit.registry import Rule, Violation, register

if TYPE_CHECKING:
    from repro.lintkit.engine import FileContext


def _is_public(name: str) -> bool:
    """Public API name: not single-underscore private (dunders count)."""
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _missing_annotations(
    node: ast.FunctionDef | ast.AsyncFunctionDef, *, is_method: bool
) -> list[str]:
    missing: list[str] = []
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    if is_method and positional and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in node.decorator_list
    ):
        positional = positional[1:]  # self / cls
    for arg in [*positional, *args.kwonlyargs]:
        if arg.annotation is None:
            missing.append(f"parameter `{arg.arg}`")
    if args.vararg is not None and args.vararg.annotation is None:
        missing.append(f"parameter `*{args.vararg.arg}`")
    if args.kwarg is not None and args.kwarg.annotation is None:
        missing.append(f"parameter `**{args.kwarg.arg}`")
    if node.returns is None:
        missing.append("return type")
    return missing


@register
class PublicAnnotationsRule(Rule):
    rule_id = "RK006"
    title = "public core/histograms/streams functions need complete annotations"
    rationale = (
        "core, histograms and streams signatures are the typed contract "
        "mypy --strict enforces across the tree; Any-holes void the gate."
    )
    applies_to = ("core", "histograms", "streams")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        yield from self._walk(ctx, ctx.tree.body, in_class=False, public=True)

    def _walk(
        self,
        ctx: FileContext,
        body: list[ast.stmt],
        *,
        in_class: bool,
        public: bool,
    ) -> Iterator[Violation]:
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                yield from self._walk(
                    ctx,
                    stmt.body,
                    in_class=True,
                    public=public and _is_public(stmt.name),
                )
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not public or not _is_public(stmt.name):
                    continue
                missing = _missing_annotations(stmt, is_method=in_class)
                if missing:
                    yield self.violation(
                        ctx,
                        stmt,
                        f"public function `{stmt.name}` missing annotations: "
                        f"{', '.join(missing)}",
                    )
