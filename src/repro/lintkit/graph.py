"""Whole-program layer: import resolution, symbol table, call graph.

Per-file AST rules structurally cannot see facts that span modules: an
engine member inherited from a base in another module, process machinery
reached *through* a helper, an engine slot a serializer forgot, a memo
bump deleted three call levels below the public surface.  This module
builds the shared project model those checks need:

* :class:`ModuleInfo` -- one linted file: its dotted module name, the
  bindings its imports introduce (absolute *and* relative, so re-exports
  via ``__init__`` chains resolve), top-level functions, and classes.
* :class:`ClassInfo` -- per class: methods, properties, ``__slots__``,
  the attributes ``__init__`` assigns (with source lines), and which of
  those are pure functions of constructor parameters.
* :class:`ProjectGraph` -- the symbol table plus a call graph whose
  edges carry source lines; call targets are either project-qualified
  names (``repro.histograms.eh.ExponentialHistogram.add``) or canonical
  external dotted names (``time.time``), so taint sources and project
  code live in one namespace.
* :class:`ProjectContext` -- what :class:`~repro.lintkit.registry.
  ProjectRule` instances receive: the shared :class:`FileContext` pool
  (each file parsed exactly once) and the lazily-built graph.

Resolution is deliberately best-effort and static: dynamic dispatch,
``getattr``, and calls through non-``self`` objects are skipped rather
than guessed.  Rules built on the graph therefore under-approximate --
they miss exotic call paths but never invent one, which is the right
polarity for a gate that fails the build.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    from repro.lintkit.engine import FileContext

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectContext",
    "ProjectGraph",
    "module_name_for",
]

#: Cap on re-export chain hops; guards against pathological import cycles.
_MAX_RESOLVE_DEPTH = 32


def module_name_for(parts: Sequence[str]) -> str:
    """Dotted module name for a file path split into ``parts``.

    ``("src", "repro", "core", "ewma.py")`` -> ``repro.core.ewma``.  The
    heuristic drops everything up to the last ``src`` component (the
    layout this repo uses); failing that, everything before the first
    ``repro`` component; otherwise the whole relative path is used, which
    keeps standalone trees (``benchmarks/``, ``examples/``) resolvable
    among themselves while their absolute ``repro.*`` imports still hit
    the project symbol table.
    """
    names = [p for p in parts if p not in ("/", "\\", ".")]
    if "src" in names:
        names = names[len(names) - 1 - names[::-1].index("src") + 1:]
    elif "repro" in names:
        names = names[names.index("repro"):]
    if names and names[-1].endswith(".py"):
        names[-1] = names[-1][:-3]
    if names and names[-1] == "__init__":
        names = names[:-1]
    return ".".join(names)


@dataclass
class ClassInfo:
    """Static model of one class definition."""

    module: str
    name: str
    node: ast.ClassDef
    #: Base-class names as written (dotted; ``Base[T]`` reads ``Base``),
    #: resolved lazily by the graph.
    bases: tuple[str, ...]
    methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef]
    #: Method names wrapped in ``@property`` (read accessors).
    properties: frozenset[str]
    #: Names bound by assignment in the class body (constants, aliases,
    #: annotated fields).
    class_attrs: frozenset[str]
    slots: tuple[str, ...]
    #: Attribute -> line of its first ``self.X = ...`` inside ``__init__``.
    init_attr_lines: dict[str, int]
    #: ``__init__``-assigned attributes whose value is a function of the
    #: constructor parameters (transitively through earlier ``self.Y``
    #: reads) -- a restore path that re-runs the constructor rebuilds them.
    ctor_covered: frozenset[str]

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.name}"

    def state_attrs(self) -> set[str]:
        """Every persistent attribute: ``__slots__`` union init assigns."""
        return set(self.slots) | set(self.init_attr_lines)


@dataclass
class CallSite:
    """One resolved call edge leaving a function."""

    #: Project qualname (when ``resolved``) or canonical external name.
    target: str
    lineno: int
    resolved: bool


@dataclass
class FunctionInfo:
    """One function or method in the project, with its outgoing calls."""

    qualname: str
    module: str
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Owning class name for methods, ``None`` for module-level functions.
    cls: str | None = None
    calls: list[CallSite] = field(default_factory=list)


def _is_property(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for dec in node.decorator_list:
        if isinstance(dec, ast.Name) and dec.id == "property":
            return True
        if isinstance(dec, ast.Attribute) and dec.attr in ("getter", "setter"):
            return True
    return False


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _slots_of(cls: ast.ClassDef) -> tuple[str, ...]:
    for stmt in cls.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                if isinstance(value, (ast.Tuple, ast.List)):
                    return tuple(
                        el.value
                        for el in value.elts
                        if isinstance(el, ast.Constant)
                        and isinstance(el.value, str)
                    )
                if isinstance(value, ast.Constant) and isinstance(
                    value.value, str
                ):
                    return (value.value,)
    return ()


def _self_attr_stores(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[tuple[str, int, ast.expr | None]]:
    """``(attr, line, value)`` for each ``self.X = value`` in ``node``.

    ``AnnAssign`` without a value (bare annotation) is skipped; augmented
    assigns report their value expression.
    """
    for stmt in ast.walk(node):
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    yield target.attr, stmt.lineno, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target = stmt.target
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                yield target.attr, stmt.lineno, stmt.value
        elif isinstance(stmt, ast.AugAssign):
            target = stmt.target
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                yield target.attr, stmt.lineno, stmt.value


def _names_in(expr: ast.expr) -> set[str]:
    return {
        n.id for n in ast.walk(expr) if isinstance(n, ast.Name)
    }


def _self_reads_in(expr: ast.expr) -> set[str]:
    """Attributes read as ``self.X`` anywhere inside ``expr``."""
    out: set[str] = set()
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            out.add(node.attr)
    return out


def _build_class(module: str, node: ast.ClassDef) -> ClassInfo:
    methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
    properties: set[str] = set()
    class_attrs: set[str] = set()
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods[stmt.name] = stmt
            if _is_property(stmt):
                properties.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            class_attrs.update(
                t.id for t in stmt.targets if isinstance(t, ast.Name)
            )
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            class_attrs.add(stmt.target.id)
    init_attr_lines: dict[str, int] = {}
    ctor_covered: set[str] = set()
    init = methods.get("__init__")
    if init is not None:
        params = {
            a.arg
            for a in (
                init.args.posonlyargs + init.args.args + init.args.kwonlyargs
            )
            if a.arg != "self"
        }
        stores = list(_self_attr_stores(init))
        for attr, lineno, _ in stores:
            init_attr_lines.setdefault(attr, lineno)
        # Fixpoint, not one ordered pass: ``ast.walk`` is breadth-first,
        # so a store nested in an ``if`` may be visited after the store
        # that reads it.
        changed = True
        while changed:
            changed = False
            for attr, _, value in stores:
                if attr in ctor_covered or value is None:
                    continue
                if (
                    _names_in(value) & params
                    or _self_reads_in(value) & ctor_covered
                ):
                    ctor_covered.add(attr)
                    changed = True
    bases = tuple(
        name
        for name in (
            _dotted(b.value if isinstance(b, ast.Subscript) else b)
            for b in node.bases
        )
        if name is not None
    )
    return ClassInfo(
        module=module,
        name=node.name,
        node=node,
        bases=bases,
        methods=methods,
        properties=frozenset(properties),
        class_attrs=frozenset(class_attrs),
        slots=_slots_of(node),
        init_attr_lines=init_attr_lines,
        ctor_covered=frozenset(ctor_covered),
    )


class ModuleInfo:
    """Symbol table and import bindings for one project module."""

    def __init__(self, ctx: "FileContext") -> None:
        self.ctx = ctx
        self.name = ctx.module
        self.is_package = ctx.parts[-1] == "__init__.py" if ctx.parts else False
        #: Local binding -> absolute dotted target it names.
        self.exports: dict[str, str] = {}
        self.functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        self.classes: dict[str, ClassInfo] = {}
        self._collect()

    @property
    def package(self) -> str:
        """The package this module's relative imports resolve against."""
        if self.is_package:
            return self.name
        return self.name.rpartition(".")[0]

    def _collect(self) -> None:
        for stmt in self.ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[stmt.name] = stmt
            elif isinstance(stmt, ast.ClassDef):
                self.classes[stmt.name] = _build_class(self.name, stmt)
        # Imports anywhere (function-local imports matter for call
        # resolution too), latest binding wins like at runtime.
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.exports[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        self.exports[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.exports[bound] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )

    def _import_base(self, node: ast.ImportFrom) -> str | None:
        """Absolute dotted prefix an ``from X import ...`` pulls from."""
        if node.level == 0:
            return node.module
        # Relative import: ``level`` leading dots climb from the package.
        anchor = self.package.split(".") if self.package else []
        climb = node.level - 1
        if climb > len(anchor):
            return None  # escapes the known tree; unresolvable
        anchor = anchor[: len(anchor) - climb]
        if node.module:
            anchor.append(node.module)
        return ".".join(anchor)


class ProjectGraph:
    """Symbol table + call graph over a pool of parsed files."""

    def __init__(self, contexts: Sequence["FileContext"]) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        for ctx in contexts:
            if ctx.module:
                # Later duplicates (same module name from two roots) keep
                # the first occurrence -- deterministic under sorted input.
                self.modules.setdefault(ctx.module, ModuleInfo(ctx))
        self.functions: dict[str, FunctionInfo] = {}
        self.callers: dict[str, set[str]] = {}
        # Two phases: every function in every module must be declared
        # before any call edge is resolved, or edges into modules indexed
        # later would be dropped as "dynamic".
        for info in list(self.modules.values()):
            self._declare_module(info)
        for info in list(self.modules.values()):
            self._link_module(info)
        for fn in self.functions.values():
            for site in fn.calls:
                if site.resolved:
                    self.callers.setdefault(site.target, set()).add(
                        fn.qualname
                    )

    # ------------------------------------------------------------ lookup

    def class_named(self, qualname: str) -> ClassInfo | None:
        module, _, name = qualname.rpartition(".")
        info = self.modules.get(module)
        if info is None:
            return None
        return info.classes.get(name)

    def function_named(self, qualname: str) -> FunctionInfo | None:
        return self.functions.get(qualname)

    def resolve_base(self, cls: ClassInfo, base: str) -> ClassInfo | None:
        """Project :class:`ClassInfo` for one of ``cls``'s base names."""
        target = self.resolve(cls.module, base)
        return self.class_named(target)

    def mro(self, cls: ClassInfo) -> Iterator[ClassInfo]:
        """``cls`` then its project-known ancestors, left-to-right DFS."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            yield current
            for base in current.bases:
                resolved = self.resolve_base(current, base)
                if resolved is not None:
                    stack.append(resolved)

    def lookup_method(
        self, cls: ClassInfo, name: str
    ) -> tuple[ClassInfo, ast.FunctionDef | ast.AsyncFunctionDef] | None:
        """Resolve ``self.name`` against ``cls`` and its project bases."""
        for owner in self.mro(cls):
            if name in owner.methods:
                return owner, owner.methods[name]
        return None

    # --------------------------------------------------------- resolution

    def resolve(self, module: str, dotted: str) -> str:
        """Canonicalize ``dotted`` as written inside ``module``.

        Returns a project qualname when the chain lands on a project
        symbol, else the canonical external dotted name (aliases
        substituted).  Re-export chains through ``__init__`` modules are
        followed to the defining module.
        """
        info = self.modules.get(module)
        if info is not None:
            head, _, rest = dotted.partition(".")
            if head in info.functions or head in info.classes:
                return f"{module}.{dotted}"
            if head in info.exports:
                dotted = info.exports[head] + (f".{rest}" if rest else "")
        return self._resolve_abs(dotted, 0)

    def _resolve_abs(self, dotted: str, depth: int) -> str:
        if depth > _MAX_RESOLVE_DEPTH:
            return dotted
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            prefix = ".".join(parts[:i])
            info = self.modules.get(prefix)
            if info is None:
                continue
            rest = parts[i:]
            if not rest:
                return prefix
            symbol = rest[0]
            if symbol in info.exports:
                tail = ".".join(rest[1:])
                target = info.exports[symbol] + (f".{tail}" if tail else "")
                return self._resolve_abs(target, depth + 1)
            if symbol in info.functions or symbol in info.classes:
                return f"{prefix}.{'.'.join(rest)}"
            return dotted
        return dotted

    # -------------------------------------------------------- call graph

    def _declare_module(self, info: ModuleInfo) -> None:
        module = info.name
        for name, node in info.functions.items():
            qualname = f"{module}.{name}"
            self.functions[qualname] = FunctionInfo(
                qualname=qualname, module=module, name=name, node=node
            )
        for cls in info.classes.values():
            for mname, mnode in cls.methods.items():
                qualname = f"{cls.qualname}.{mname}"
                self.functions[qualname] = FunctionInfo(
                    qualname=qualname,
                    module=module,
                    name=mname,
                    node=mnode,
                    cls=cls.name,
                )

    def _link_module(self, info: ModuleInfo) -> None:
        for fn in list(self.functions.values()):
            if fn.module != info.name or fn.calls:
                continue
            cls = info.classes.get(fn.cls) if fn.cls else None
            fn.calls = list(self._calls_of(info, cls, fn.node))

    def _calls_of(
        self,
        info: ModuleInfo,
        cls: ClassInfo | None,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[CallSite]:
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            dotted = _dotted(call.func)
            if dotted is None:
                continue
            site = self._resolve_call(info, cls, dotted, call.func.lineno)
            if site is not None:
                yield site

    def _resolve_call(
        self,
        info: ModuleInfo,
        cls: ClassInfo | None,
        dotted: str,
        lineno: int,
    ) -> CallSite | None:
        head, _, rest = dotted.partition(".")
        if head == "self":
            if cls is None or not rest or "." in rest:
                return None  # attribute chains through self state: dynamic
            found = self.lookup_method(cls, rest)
            if found is None:
                return None
            owner, _ = found
            return CallSite(
                target=f"{owner.qualname}.{rest}", lineno=lineno, resolved=True
            )
        target = self.resolve(info.name, dotted)
        resolved_cls = self.class_named(target)
        if resolved_cls is not None:
            # Constructor call: route the edge to ``__init__`` when the
            # class defines one, else to the class itself.
            if "__init__" in resolved_cls.methods:
                return CallSite(
                    target=f"{target}.__init__", lineno=lineno, resolved=True
                )
            return CallSite(target=target, lineno=lineno, resolved=True)
        if target in self.functions:
            return CallSite(target=target, lineno=lineno, resolved=True)
        # Method on a project class: ``mod.Class.method`` shape.
        owner_q, _, mname = target.rpartition(".")
        owner = self.class_named(owner_q)
        if owner is not None:
            found = self.lookup_method(owner, mname)
            if found is not None:
                return CallSite(
                    target=f"{found[0].qualname}.{mname}",
                    lineno=lineno,
                    resolved=True,
                )
        if any(mod == target or target.startswith(f"{mod}.")
               for mod in self.modules):
            return None  # project-internal but dynamic; don't invent edges
        return CallSite(target=target, lineno=lineno, resolved=False)

    # ---------------------------------------------------------- utilities

    def display_path(self, qualname: str) -> str:
        """Reporting path for a project function/class qualname."""
        fn = self.functions.get(qualname)
        module = fn.module if fn is not None else qualname
        info = self.modules.get(module)
        while info is None and "." in module:
            module = module.rpartition(".")[0]
            info = self.modules.get(module)
        return info.ctx.display_path if info is not None else qualname


class ProjectContext:
    """Shared pool of parsed files plus the lazily-built project graph."""

    def __init__(self, contexts: Sequence["FileContext"]) -> None:
        self.files: tuple["FileContext", ...] = tuple(contexts)
        self.by_path: dict[str, "FileContext"] = {
            ctx.display_path: ctx for ctx in contexts
        }
        self._graph: ProjectGraph | None = None

    @property
    def graph(self) -> ProjectGraph:
        if self._graph is None:
            self._graph = ProjectGraph(self.files)
        return self._graph

    def module(self, name: str) -> ModuleInfo | None:
        return self.graph.modules.get(name)
