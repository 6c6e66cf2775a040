"""RK007: conformance law functions must be pure.

A metamorphic law is re-evaluated hundreds of times by the trace shrinker,
and a shrunk reproducer is checked into the regression corpus on the
strength of a single failing run.  Both collapse if a law is impure:

* **unseeded randomness** (the module-global RNG, or ``random.Random()``
  with no/None seed) makes the verdict irreproducible;
* **mutating the trace argument** corrupts the very object the shrinker
  is about to re-check, silently invalidating every later evaluation.

A wall-clock read would make the verdict depend on when it ran, but
RK001 reports every wall-clock read in the tree, laws included, so this
rule does not report it a second time.

Scoped to the law catalog (``src/repro/conformance/laws*.py``): that is
where every law lives, by construction, so purity of those files is
purity of the catalog.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.lintkit.names import ImportMap, resolve_call
from repro.lintkit.registry import Rule, Violation, register

if TYPE_CHECKING:
    from repro.lintkit.engine import FileContext

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "clear",
        "sort",
        "reverse",
        "update",
        "setdefault",
        "add",
        "discard",
    }
)

#: Parameter names the no-mutation check guards (the law signature is
#: ``check(self, spec, trace)``; shrink candidates reuse ``trace`` too).
_GUARDED = frozenset({"trace"})


def _root_name(node: ast.expr) -> str | None:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _seed_missing_or_none(node: ast.Call) -> bool:
    """Whether a ``random.Random(...)`` call can draw OS entropy."""
    seed: ast.expr | None = None
    if node.args:
        seed = node.args[0]
    else:
        for kw in node.keywords:
            if kw.arg in ("x", "seed"):
                seed = kw.value
    if seed is None:
        return True
    return isinstance(seed, ast.Constant) and seed.value is None


@register
class PureLawsRule(Rule):
    rule_id = "RK007"
    title = "conformance laws must be pure (no entropy, no mutation)"
    rationale = (
        "The shrinker re-evaluates laws hundreds of times and corpus "
        "reproducers are trusted from one failing run; unseeded RNG or "
        "mutation of the trace argument make law verdicts non-reproducible "
        "(RK001 reports wall-clock reads)."
    )

    def applicable(self, parts: tuple[str, ...]) -> bool:
        """Only the law catalog: ``.../conformance/laws*.py``."""
        return (
            "conformance" in parts
            and bool(parts)
            and parts[-1].startswith("laws")
        )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, imports, node)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                yield from self._check_assign(ctx, node)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if (
                        isinstance(target, (ast.Attribute, ast.Subscript))
                        and _root_name(target) in _GUARDED
                    ):
                        yield self.violation(
                            ctx,
                            node,
                            "law deletes state on its trace argument; laws "
                            "must treat traces as immutable",
                        )

    def _check_call(
        self, ctx: FileContext, imports: ImportMap, node: ast.Call
    ) -> Iterator[Violation]:
        target = resolve_call(imports, node)
        if target is not None and target.startswith("random."):
            tail = target.split(".", 1)[1]
            if target == "random.Random":
                if _seed_missing_or_none(node):
                    yield self.violation(
                        ctx,
                        node,
                        "`random.Random()` without an explicit seed inside a "
                        "law draws OS entropy; pass a documented constant",
                    )
            elif "." not in tail:
                yield self.violation(
                    ctx,
                    node,
                    f"module-global RNG call `{target}()` inside a law; "
                    "laws must be deterministic",
                )
            return
        # Mutating method calls on the trace argument: trace.items.append(...)
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATORS
            and _root_name(func.value) in _GUARDED
        ):
            yield self.violation(
                ctx,
                node,
                f"law mutates its trace argument via `.{func.attr}()`; "
                "build a new Trace instead",
            )
        # setattr(trace, ...) / object.__setattr__(trace, ...) escape hatches.
        if target in ("setattr", "object.__setattr__") and node.args:
            if _root_name(node.args[0]) in _GUARDED:
                yield self.violation(
                    ctx,
                    node,
                    "law writes an attribute on its trace argument via "
                    f"`{target}`; traces are frozen for a reason",
                )

    def _check_assign(
        self, ctx: FileContext, node: ast.Assign | ast.AugAssign
    ) -> Iterator[Violation]:
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if (
                isinstance(target, (ast.Attribute, ast.Subscript))
                and _root_name(target) in _GUARDED
            ):
                yield self.violation(
                    ctx,
                    node,
                    "law assigns into its trace argument; laws must treat "
                    "traces as immutable and build new ones",
                )
