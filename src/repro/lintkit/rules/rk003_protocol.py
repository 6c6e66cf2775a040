"""RK003: engine classes must statically implement the DecayingSum protocol.

``make_decaying_sum`` (and the keyed-store/serialization layers on top of it)
treat every engine uniformly through the :class:`repro.core.interfaces.
DecayingSum` protocol.  Because the protocol is structural, a missing
member only explodes at call time -- possibly deep inside a benchmark.
This rule makes the contract static: any class *marked* as an engine (by
name convention or by explicitly listing ``DecayingSum`` as a base) must
define ``time``, ``decay``, ``add``, ``add_batch``, ``advance``,
``advance_to``, ``ingest``, ``query``, ``merge`` and ``storage_report``
in its own body or in a base class.  It is a whole-program rule: bases
resolve through :meth:`repro.lintkit.graph.ProjectGraph.mro`, whichever
project module they live in (``repro.core.batching.EngineBase`` supplies
every engine's ``advance_to``).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lintkit.graph import ClassInfo, ProjectContext, _build_class
from repro.lintkit.registry import ProjectRule, Violation, register

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


def _is_engine(cls: ClassInfo) -> bool:
    if cls.name.startswith("_"):
        return False
    bases = {base.rpartition(".")[2] for base in cls.bases}
    if bases & _ABSTRACT_BASES:
        return False  # the protocol/ABC itself, not an engine
    if bases & _ENGINE_BASES:
        return True
    return _ENGINE_NAME_RE.search(cls.name) is not None


@register
class EngineProtocolRule(ProjectRule):
    rule_id = "RK003"
    title = "engine classes must define the full DecayingSum protocol"
    rationale = (
        "The factory and keyed-store layers drive every engine through the "
        "DecayingSum protocol; a structurally-incomplete engine fails at "
        "call time where the paper's bounds no longer protect you."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        graph = project.graph
        for ctx in project.files:
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                cls = _build_class(ctx.module, node)
                if not _is_engine(cls):
                    continue
                members: set[str] = set()
                for owner in graph.mro(cls):
                    members |= owner.methods.keys() | owner.class_attrs
                missing = [m for m in REQUIRED_MEMBERS if m not in members]
                if missing:
                    yield Violation(
                        rule_id=self.rule_id,
                        path=ctx.display_path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"engine class `{node.name}` is missing DecayingSum "
                            f"protocol member(s): {', '.join(missing)}"
                        ),
                    )
