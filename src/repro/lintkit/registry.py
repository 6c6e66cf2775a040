"""Rule registry for the lintkit static-analysis pass.

A *rule* is a small AST visitor with a stable identifier (``RK001`` ...),
a one-line title, and a rationale tying it back to the paper invariant it
protects.  Rules register themselves at import time via :func:`register`;
the engine iterates :func:`all_rules` and calls :meth:`Rule.check` on every
file whose path the rule's scope accepts.

Two rule kinds share the registry: classic per-file rules (subclass
:class:`Rule`, implement :meth:`Rule.check` against one
:class:`~repro.lintkit.engine.FileContext`) and whole-program rules
(subclass :class:`ProjectRule`, implement :meth:`ProjectRule.
check_project` against the shared :class:`~repro.lintkit.graph.
ProjectContext` -- symbol table, call graph, taint lattice).  The engine
parses every file exactly once into a context pool both kinds consume.

Scoping is path-part based so it works no matter where the tree is checked
out: ``applies_to=("sampling",)`` makes a rule fire only on files that have
a ``sampling`` directory component, and ``exempt=("service",)`` skips any
file under a ``service`` component.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Iterator

if TYPE_CHECKING:
    from repro.lintkit.engine import FileContext
    from repro.lintkit.graph import ProjectContext

__all__ = [
    "Violation",
    "Rule",
    "ProjectRule",
    "register",
    "all_rules",
    "get_rule",
]


@dataclass(frozen=True)
class Violation:
    """One rule violation at a concrete source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    #: Call-graph witness for whole-program findings: qualified hops from
    #: the flagged function down to the sink (``a.f``, ``b.g``,
    #: ``time.time``).  Empty for per-file rules.
    evidence: tuple[str, ...] = ()

    def render(self) -> str:
        """``file:line:col: RKxxx message`` -- the canonical text form."""
        base = f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"
        if self.evidence:
            return f"{base} [{' -> '.join(self.evidence)}]"
        return base


class Rule(ABC):
    """Base class for lintkit rules.

    Subclasses set the class attributes and implement :meth:`check`.
    """

    rule_id: ClassVar[str]
    title: ClassVar[str]
    rationale: ClassVar[str]
    #: Path components a file must contain for the rule to apply
    #: (empty tuple = applies everywhere).
    applies_to: ClassVar[tuple[str, ...]] = ()
    #: Path components that exempt a file from the rule.
    exempt: ClassVar[tuple[str, ...]] = ()

    def applicable(self, parts: tuple[str, ...]) -> bool:
        """Whether a file whose path has ``parts`` is in this rule's scope."""
        if any(part in self.exempt for part in parts):
            return False
        if not self.applies_to:
            return True
        return any(part in self.applies_to for part in parts)

    @abstractmethod
    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        """Yield every violation of this rule in ``ctx``."""

    def violation(
        self,
        ctx: "FileContext",
        node: ast.AST,
        message: str,
        *,
        evidence: tuple[str, ...] = (),
    ) -> Violation:
        """Build a :class:`Violation` anchored at ``node``."""
        return Violation(
            rule_id=self.rule_id,
            path=ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            evidence=evidence,
        )


class ProjectRule(Rule):
    """Base class for whole-program rules.

    Subclasses implement :meth:`check_project` over the shared
    :class:`~repro.lintkit.graph.ProjectContext` (parsed-file pool,
    symbol table, call graph) and yield violations anchored anywhere in
    the project.  ``applies_to``/``exempt`` scoping still applies, but
    per *reported file*: the engine consults :meth:`Rule.applicable`
    against each violation's path, and rule implementations are expected
    to scope themselves when the cross-module fact spans scopes (that is
    the point of a project rule).

    :meth:`check` is inherited for interface compatibility and yields
    nothing -- project rules only see whole projects.
    """

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        return iter(())

    @abstractmethod
    def check_project(self, project: "ProjectContext") -> Iterator[Violation]:
        """Yield every violation of this rule across ``project``."""


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate ``cls`` and add it to the registry."""
    rule = cls()
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = rule
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by id (imports the rule package)."""
    import repro.lintkit.rules  # noqa: F401  (registration side effect)

    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Look up one rule by id (raises ``KeyError`` for unknown ids)."""
    import repro.lintkit.rules  # noqa: F401  (registration side effect)

    return _REGISTRY[rule_id]
