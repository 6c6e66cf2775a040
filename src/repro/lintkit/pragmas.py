"""Suppression pragmas for lintkit.

Two comment forms are recognised:

* ``# lintkit: ignore[RK001]`` / ``# lintkit: ignore[RK001, RK004]`` on a
  line suppresses those rules for violations reported on that line.
* ``# lintkit: ignore`` (no bracket) suppresses *all* rules on that line.
* ``# lintkit: ignore-file[RK003]`` anywhere in a file suppresses the
  listed rules for the whole file; the bare ``ignore-file`` form
  suppresses everything (useful for deliberately-bad test fixtures).

Pragmas are matched against the physical line an AST node starts on, so
put the pragma on the first line of a multi-line statement.  Decorated
definitions are the exception: a ``def``/``class`` node's ``lineno`` is
the ``def``/``class`` line, yet the natural place for the pragma is next
to (or above, on) a decorator -- so the engine also honours pragmas
placed on any decorator line of the same definition
(:func:`bind_decorator_pragmas`).

One *marker* comment (not a suppression) also lives here:
``# lintkit: hot`` on a ``def`` line (or a decorator line of it) opts
the function into RK011's allocation-free-loop contract.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

__all__ = [
    "Suppressions",
    "parse_pragmas",
    "bind_decorator_pragmas",
    "marker_lines",
]

_PRAGMA_RE = re.compile(
    r"#\s*lintkit:\s*ignore(?P<scope>-file)?"
    r"(?:\[(?P<rules>[A-Za-z0-9_,\s]*)\])?"
)

_MARKER_RE = re.compile(r"#\s*lintkit:\s*(?P<word>hot)\b")


@dataclass
class Suppressions:
    """Parsed pragma state for one file."""

    #: rule ids suppressed for the whole file; ``None`` means all rules.
    file_level: frozenset[str] | None = frozenset()
    #: line -> rule ids suppressed on that line; ``None`` means all rules.
    by_line: dict[int, frozenset[str] | None] = field(default_factory=dict)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """Whether ``rule_id`` is suppressed at ``line``."""
        if self.file_level is None or rule_id in (self.file_level or ()):
            return True
        if line in self.by_line:
            rules = self.by_line[line]
            return rules is None or rule_id in rules
        return False

    def _absorb_line(self, source_line: int, target_line: int) -> None:
        """Make ``target_line`` also suppressed by ``source_line``'s pragma."""
        if source_line not in self.by_line:
            return
        incoming = self.by_line[source_line]
        existing = self.by_line.get(target_line, frozenset())
        if incoming is None or existing is None:
            self.by_line[target_line] = None
        else:
            self.by_line[target_line] = existing | incoming


def _parse_rule_list(raw: str | None) -> frozenset[str] | None:
    """``"RK001, RK004"`` -> ids; ``None``/empty bracket -> all rules."""
    if raw is None:
        return None
    ids = frozenset(part.strip().upper() for part in raw.split(",") if part.strip())
    return ids or None


def parse_pragmas(source: str) -> Suppressions:
    """Scan ``source`` for lintkit pragmas."""
    file_level: set[str] = set()
    file_all = False
    by_line: dict[int, frozenset[str] | None] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "lintkit" not in text:
            continue
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        rules = _parse_rule_list(match.group("rules"))
        if match.group("scope"):
            if rules is None:
                file_all = True
            else:
                file_level.update(rules)
        else:
            if lineno in by_line and by_line[lineno] is not None and rules is not None:
                prev = by_line[lineno]
                assert prev is not None
                by_line[lineno] = prev | rules
            else:
                by_line[lineno] = None if rules is None else rules
    return Suppressions(
        file_level=None if file_all else frozenset(file_level),
        by_line=by_line,
    )


def bind_decorator_pragmas(suppressions: Suppressions, tree: ast.Module) -> None:
    """Attach pragmas written on decorator lines to their definition.

    A decorated ``FunctionDef``/``AsyncFunctionDef``/``ClassDef`` reports
    violations at its ``def``/``class`` line, but the pragma naturally
    sits on the first decorator line (where the statement visually
    starts).  This folds every decorator line's pragma into the
    definition line's entry, so both placements work.
    """
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        for decorator in node.decorator_list:
            for line in range(
                decorator.lineno,
                (decorator.end_lineno or decorator.lineno) + 1,
            ):
                suppressions._absorb_line(line, node.lineno)


def marker_lines(source: str, word: str) -> frozenset[int]:
    """Physical lines carrying the ``# lintkit: <word>`` marker comment."""
    found: set[int] = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "lintkit" not in text:
            continue
        match = _MARKER_RE.search(text)
        if match is not None and match.group("word") == word:
            found.add(lineno)
    return frozenset(found)

