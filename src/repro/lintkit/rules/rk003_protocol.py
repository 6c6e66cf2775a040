"""RK003: engine classes must statically implement the DecayingSum protocol.

``make_decaying_sum`` (and the keyed-store/serialization layers on top of it)
treat every engine uniformly through the :class:`repro.core.interfaces.
DecayingSum` protocol.  Because the protocol is structural, a missing
member only explodes at call time -- possibly deep inside a benchmark.
This rule makes the contract static: any class *marked* as an engine (by
name convention or by explicitly listing ``DecayingSum`` as a base) must
define ``time``, ``decay``, ``add``, ``add_batch``, ``advance``,
``advance_to``, ``ingest``, ``query``, ``merge`` and ``storage_report``
in its own body or a base class in the same module.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Iterator

from repro.lintkit.registry import Rule, Violation, register

if TYPE_CHECKING:
    from repro.lintkit.engine import FileContext

#: The DecayingSum protocol surface (core/interfaces.py).
REQUIRED_MEMBERS = (
    "time",
    "decay",
    "add",
    "add_batch",
    "advance",
    "advance_to",
    "ingest",
    "query",
    "merge",
    "storage_report",
)

#: Naming conventions that mark a class as a decaying-sum engine.
_ENGINE_NAME_RE = re.compile(r"(?:Sum|EH|WBMH)$")

#: Base-class names that mark a class as an engine regardless of its name.
_ENGINE_BASES = frozenset({"DecayingSum"})

#: Bases that mark a class as an abstract interface, not a concrete engine.
_ABSTRACT_BASES = frozenset({"Protocol", "ABC", "ABCMeta"})


def _base_names(node: ast.ClassDef) -> set[str]:
    names: set[str] = set()
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
        elif isinstance(base, ast.Subscript):
            # Protocol[T] / Generic[T]
            value = base.value
            if isinstance(value, ast.Name):
                names.add(value.id)
            elif isinstance(value, ast.Attribute):
                names.add(value.attr)
    return names


def _own_members(node: ast.ClassDef) -> set[str]:
    """Names bound directly in the class body (defs, properties, assigns)."""
    members: set[str] = set()
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            members.add(stmt.name)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            members.add(stmt.target.id)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    members.add(target.id)
    return members


@register
class EngineProtocolRule(Rule):
    rule_id = "RK003"
    title = "engine classes must define the full DecayingSum protocol"
    rationale = (
        "The factory and keyed-store layers drive every engine through the "
        "DecayingSum protocol; a structurally-incomplete engine fails at "
        "call time where the paper's bounds no longer protect you."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        classes: dict[str, ast.ClassDef] = {
            node.name: node
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ClassDef)
        }
        for name, node in classes.items():
            if not self._is_engine(node):
                continue
            members = self._members_with_bases(node, classes)
            missing = [m for m in REQUIRED_MEMBERS if m not in members]
            if missing:
                yield self.violation(
                    ctx,
                    node,
                    f"engine class `{name}` is missing DecayingSum protocol "
                    f"member(s): {', '.join(missing)}",
                )

    def _is_engine(self, node: ast.ClassDef) -> bool:
        if node.name.startswith("_"):
            return False
        bases = _base_names(node)
        if bases & _ABSTRACT_BASES:
            return False  # the protocol/ABC itself, not an engine
        if bases & _ENGINE_BASES:
            return True
        return _ENGINE_NAME_RE.search(node.name) is not None

    def _members_with_bases(
        self, node: ast.ClassDef, classes: dict[str, ast.ClassDef]
    ) -> set[str]:
        """Own members plus members of same-module bases, transitively."""
        members = _own_members(node)
        seen = {node.name}
        stack = [b for b in _base_names(node) if b in classes]
        while stack:
            base = stack.pop()
            if base in seen:
                continue
            seen.add(base)
            base_node = classes[base]
            members |= _own_members(base_node)
            stack.extend(b for b in _base_names(base_node) if b in classes)
        return members
