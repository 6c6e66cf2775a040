"""RK012: checkpoint round-trips must cover every engine attribute.

``repro.serialize`` promises bit-identical restore: a snapshot taken
mid-stream continues exactly as the original engine would.  The failure
mode is always the same -- someone adds an attribute to an engine (or a
key to one side of the codec) and forgets the other side, and the loss
only shows up as drift long after the restore.

This whole-program rule cross-checks three things for the module that
defines both ``engine_to_dict`` and ``engine_from_dict``:

* **attribute coverage** -- every persistent attribute (``__slots__``
  union ``__init__`` assignments) of each engine class named in an
  ``isinstance`` branch, or of a project base class it inherits
  (:meth:`~repro.lintkit.graph.ProjectGraph.mro`), must be accessed by
  either codec side (directly or through a property/method the codec
  calls) or rebuilt by a constructor along that chain from its
  parameters.  There is no exemption: an engine's state is exactly what
  its snapshot holds or its constructor derives, so a cache kept beside
  that state is a finding;
* **read keys exist** -- every ``data["k"]`` a restore branch requires
  must be written by the matching serialize branch (``.get`` reads have
  defaults and are exempt);
* **written keys are restored** -- every key a serialize branch emits
  (beyond the ``version``/``engine`` envelope) must be consumed by a
  matching restore branch.

Branches delegating to ``engine_to_dict`` recursively (the CEH
branch's nested histogram) may emit keys this parser cannot enumerate,
so the read-keys check is skipped where a delegating branch matches.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.lintkit.graph import ClassInfo, ModuleInfo, ProjectGraph, _dotted
from repro.lintkit.registry import ProjectRule, Violation, register

#: Envelope keys every snapshot carries; not state, never "unrestored".
_ENVELOPE = frozenset({"version", "engine"})


def _self_attr(node: ast.expr) -> str | None:
    """``X`` when ``node`` is exactly ``self.X``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _closure_of(
    graph: ProjectGraph, cls: ClassInfo, name: str
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """``name`` and every method it reaches via ``self`` calls, resolved
    through project-known bases."""
    seen: set[str] = set()
    queue = [name]
    while queue:
        current = queue.pop(0)
        if current in seen:
            continue
        seen.add(current)
        found = graph.lookup_method(cls, current)
        if found is None:
            continue
        node = found[1]
        yield node
        for inner in ast.walk(node):
            if isinstance(inner, ast.Call):
                callee = _self_attr(inner.func)
                if callee is not None and callee not in seen:
                    queue.append(callee)


def _expand_attr_coverage(
    graph: ProjectGraph, cls: ClassInfo, names: set[str]
) -> set[str]:
    """Close a set of accessed member names over trivial indirection.

    A serializer that reads ``engine.time`` or calls
    ``engine.bucket_view()`` covers the attributes those members touch
    (``_time``, ``_buckets``); this follows each accessed name that is a
    method or property of ``cls`` and collects every ``self.X`` it reads
    or writes, recursively through further ``self`` calls.
    """
    covered: set[str] = set()
    for name in names:
        covered.add(name)
        if graph.lookup_method(cls, name) is None:
            continue
        for node in _closure_of(graph, cls, name):
            for inner in ast.walk(node):
                attr = _self_attr(inner) if isinstance(inner, ast.expr) else None
                if attr is not None:
                    covered.add(attr)
    return covered


@dataclass
class _ToBranch:
    """One ``isinstance(engine, ...)`` branch of ``engine_to_dict``."""

    lineno: int
    classes: list[ClassInfo] = field(default_factory=list)
    kinds: set[str] = field(default_factory=set)
    keys_written: set[str] = field(default_factory=set)
    attrs: set[str] = field(default_factory=set)
    delegated: bool = False


@dataclass
class _FromBranch:
    """One ``kind == "..."`` branch of ``engine_from_dict``."""

    lineno: int
    kinds: set[str] = field(default_factory=set)
    keys_read: set[str] = field(default_factory=set)
    keys_get: set[str] = field(default_factory=set)
    attrs: set[str] = field(default_factory=set)


def _str_constants(expr: ast.expr) -> set[str]:
    return {
        n.value
        for n in ast.walk(expr)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }


def _first_param(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> str | None:
    args = fn.args.posonlyargs + fn.args.args
    return args[0].arg if args else None


def _collect_dict_literal(node: ast.Dict, branch: _ToBranch) -> None:
    for key, value in zip(node.keys, node.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            continue
        branch.keys_written.add(key.value)
        if key.value == "engine":
            branch.kinds |= _str_constants(value)


def _parse_to_branch(
    graph: ProjectGraph,
    info: ModuleInfo,
    stmt: ast.If,
    param: str,
    codec_name: str,
) -> _ToBranch | None:
    test = stmt.test
    if not (
        isinstance(test, ast.Call)
        and isinstance(test.func, ast.Name)
        and test.func.id == "isinstance"
        and len(test.args) == 2
    ):
        return None
    branch = _ToBranch(lineno=stmt.lineno)
    class_exprs = (
        test.args[1].elts
        if isinstance(test.args[1], ast.Tuple)
        else [test.args[1]]
    )
    for expr in class_exprs:
        dotted = _dotted(expr)
        if dotted is None:
            continue
        cls = graph.class_named(graph.resolve(info.name, dotted))
        if cls is not None:
            branch.classes.append(cls)
    returned: ast.expr | None = None
    for node in stmt.body:
        for inner in ast.walk(node):
            if isinstance(inner, ast.Return) and returned is None:
                returned = inner.value
            elif isinstance(inner, ast.Attribute):
                if isinstance(inner.value, ast.Name) and inner.value.id == param:
                    branch.attrs.add(inner.attr)
            elif (
                isinstance(inner, ast.Call)
                and _dotted(inner.func) is not None
                and _dotted(inner.func).split(".")[-1] == codec_name
            ):
                branch.delegated = True
    if isinstance(returned, ast.Dict):
        _collect_dict_literal(returned, branch)
    elif isinstance(returned, ast.Name):
        # ``out = {...}`` / ``out["k"] = v`` style: gather the literal
        # assigned to the returned name plus subscript stores on it.
        var = returned.id
        for node in stmt.body:
            for inner in ast.walk(node):
                if not isinstance(inner, ast.Assign):
                    continue
                for target in inner.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == var
                        and isinstance(inner.value, ast.Dict)
                    ):
                        _collect_dict_literal(inner.value, branch)
                    elif (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == var
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)
                    ):
                        branch.keys_written.add(target.slice.value)
                        if target.slice.value == "engine":
                            branch.kinds |= _str_constants(inner.value)
    return branch


def _parse_from_branch(stmt: ast.If, param: str) -> _FromBranch | None:
    test = stmt.test
    if not (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Eq, ast.In))
        and isinstance(test.left, ast.Name)
    ):
        return None
    kinds = _str_constants(test.comparators[0])
    if not kinds:
        return None
    branch = _FromBranch(lineno=stmt.lineno, kinds=kinds)
    for node in stmt.body:
        for inner in ast.walk(node):
            if (
                isinstance(inner, ast.Subscript)
                and isinstance(inner.value, ast.Name)
                and isinstance(inner.slice, ast.Constant)
                and isinstance(inner.slice.value, str)
            ):
                if inner.value.id == param:
                    branch.keys_read.add(inner.slice.value)
            elif isinstance(inner, ast.Call):
                func = inner.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "get"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == param
                    and inner.args
                    and isinstance(inner.args[0], ast.Constant)
                    and isinstance(inner.args[0].value, str)
                ):
                    branch.keys_get.add(inner.args[0].value)
            elif isinstance(inner, ast.Attribute):
                if (
                    isinstance(inner.value, ast.Name)
                    and inner.value.id != param
                ):
                    branch.attrs.add(inner.attr)
    return branch


@register
class SerializationCompletenessRule(ProjectRule):
    rule_id = "RK012"
    title = "checkpoint codec covers every persistent engine attribute"
    rationale = (
        "Restore must be bit-identical (a restored engine continues the "
        "stream exactly); an attribute or key missing from one codec "
        "side silently drops state and surfaces as drift, not an error."
    )

    def check_project(self, project) -> Iterator[Violation]:
        graph = project.graph
        for module_name in sorted(graph.modules):
            info = graph.modules[module_name]
            to_fn = info.functions.get("engine_to_dict")
            from_fn = info.functions.get("engine_from_dict")
            if to_fn is None or from_fn is None:
                continue
            yield from self._check_codec(graph, info, to_fn, from_fn)

    def _check_codec(
        self,
        graph: ProjectGraph,
        info: ModuleInfo,
        to_fn: ast.FunctionDef | ast.AsyncFunctionDef,
        from_fn: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Violation]:
        to_param = _first_param(to_fn) or "engine"
        from_param = _first_param(from_fn) or "data"
        to_branches = [
            b
            for stmt in to_fn.body
            if isinstance(stmt, ast.If)
            and (b := _parse_to_branch(graph, info, stmt, to_param, to_fn.name))
            is not None
        ]
        from_branches = [
            b
            for stmt in from_fn.body
            if isinstance(stmt, ast.If)
            and (b := _parse_from_branch(stmt, from_param)) is not None
        ]
        path = info.ctx.display_path
        for tb in to_branches:
            matching = [fb for fb in from_branches if fb.kinds & tb.kinds]
            restored = set().union(
                *(fb.keys_read | fb.keys_get for fb in matching)
            ) if matching else set()
            if matching:
                for key in sorted(tb.keys_written - _ENVELOPE - restored):
                    yield Violation(
                        rule_id=self.rule_id,
                        path=path,
                        line=tb.lineno,
                        col=0,
                        message=(
                            f"snapshot key '{key}' written for kind(s) "
                            f"{self._kinds(tb.kinds)} is never restored by "
                            f"{from_fn.name}; the round-trip drops it"
                        ),
                    )
            from_attrs: set[str] = set()
            for fb in matching:
                from_attrs |= fb.attrs
            for cls in tb.classes:
                yield from self._check_coverage(
                    graph, cls, tb, from_attrs, path
                )
        for fb in from_branches:
            matching_to = [tb for tb in to_branches if fb.kinds & tb.kinds]
            if not matching_to or any(tb.delegated for tb in matching_to):
                continue
            written = set().union(*(tb.keys_written for tb in matching_to))
            for key in sorted(fb.keys_read - written - _ENVELOPE):
                yield Violation(
                    rule_id=self.rule_id,
                    path=path,
                    line=fb.lineno,
                    col=0,
                    message=(
                        f"{from_fn.name} requires snapshot key '{key}' for "
                        f"kind(s) {self._kinds(fb.kinds)} but "
                        f"{to_fn.name} never writes it; restore raises "
                        "KeyError on every real snapshot"
                    ),
                )

    def _check_coverage(
        self,
        graph: ProjectGraph,
        cls: ClassInfo,
        tb: _ToBranch,
        from_attrs: set[str],
        path: str,
    ) -> Iterator[Violation]:
        covered = _expand_attr_coverage(graph, cls, tb.attrs | from_attrs)
        state: dict[str, ClassInfo] = {}
        for owner in graph.mro(cls):
            covered |= owner.ctor_covered
            for attr in owner.state_attrs():
                state.setdefault(attr, owner)
        for attr in sorted(state.keys() - covered):
            owner = state[attr]
            anchor = owner.init_attr_lines.get(attr)
            yield Violation(
                rule_id=self.rule_id,
                path=path,
                line=tb.lineno,
                col=0,
                message=(
                    f"{cls.name}.{attr} is persistent state the checkpoint "
                    "codec neither writes nor restores; serialize it or "
                    "derive it in the constructor"
                ),
                evidence=(
                    f"{owner.qualname}.{attr}"
                    + (f" (line {anchor})" if anchor else ""),
                ),
            )

    @staticmethod
    def _kinds(kinds: set[str]) -> str:
        return ", ".join(f'"{k}"' for k in sorted(kinds))
