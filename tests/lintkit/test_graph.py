"""Golden tests for the whole-program layer: symbol table, call graph,
taint fixpoint.

The ``fixtures/graphpkg`` package is small enough to state its full graph
by hand; these tests pin the resolution semantics the project rules
(RK010/RK012) build on -- relative imports, re-exports through
``__init__``, inherited-method dispatch through ``self`` -- so a graph
regression fails here with a named edge, not three rules deep.
"""

from __future__ import annotations

from pathlib import Path

from repro.lintkit.dataflow import TaintAnalysis
from repro.lintkit.engine import FileContext
from repro.lintkit.graph import ProjectContext, module_name_for

GRAPHPKG = Path(__file__).parent / "fixtures" / "graphpkg"


def load_graphpkg() -> ProjectContext:
    contexts = []
    for path in sorted(GRAPHPKG.glob("*.py")):
        contexts.append(
            FileContext.from_source(
                path.read_text(encoding="utf-8"), f"graphpkg/{path.name}"
            )
        )
    return ProjectContext(contexts)


class TestModuleNaming:
    def test_src_layout(self):
        assert module_name_for(("src", "repro", "core", "ewma.py")) == (
            "repro.core.ewma"
        )

    def test_package_init_collapses(self):
        assert module_name_for(("src", "repro", "lintkit", "__init__.py")) == (
            "repro.lintkit"
        )

    def test_repro_anchor_without_src(self):
        assert module_name_for(
            ("site-packages", "repro", "histograms", "eh.py")
        ) == "repro.histograms.eh"

    def test_standalone_tree_keeps_relative_path(self):
        assert module_name_for(("graphpkg", "util.py")) == "graphpkg.util"


class TestSymbolTable:
    def test_init_reexports_resolve_to_definitions(self):
        graph = load_graphpkg().graph
        init = graph.modules["graphpkg"]
        assert init.exports["Engine"] == "graphpkg.engine.Engine"
        assert init.exports["exported_helper"] == "graphpkg.util.helper"

    def test_resolution_follows_reexport_chain(self):
        graph = load_graphpkg().graph
        # engine.py binds ``exported_helper`` via ``from . import ...``;
        # the chain goes through the package __init__ to util.helper.
        assert graph.resolve("graphpkg.engine", "exported_helper") == (
            "graphpkg.util.helper"
        )

    def test_class_model(self):
        graph = load_graphpkg().graph
        engine = graph.class_named("graphpkg.engine.Engine")
        assert engine is not None
        assert set(engine.init_attr_lines) == {"size", "_scale", "_items"}
        # size/_scale are rebuilt by re-running the constructor; the
        # empty _items list is state the ctor cannot recover.
        assert engine.ctor_covered == frozenset({"size", "_scale"})
        assert engine.bases == ("Base",)

    def test_mro_reaches_project_base(self):
        graph = load_graphpkg().graph
        engine = graph.class_named("graphpkg.engine.Engine")
        assert [c.qualname for c in graph.mro(engine)] == [
            "graphpkg.engine.Engine",
            "graphpkg.engine.Base",
        ]


class TestCallGraph:
    def test_self_dispatch_and_inherited_methods(self):
        graph = load_graphpkg().graph
        run = graph.function_named("graphpkg.engine.Engine.run")
        targets = {site.target for site in run.calls if site.resolved}
        assert targets == {
            "graphpkg.engine.Engine.step",  # own method via self
            "graphpkg.engine.Base.shared",  # inherited, resolved to Base
        }

    def test_cross_module_edges_through_reexport(self):
        graph = load_graphpkg().graph
        step = graph.function_named("graphpkg.engine.Engine.step")
        targets = {site.target for site in step.calls if site.resolved}
        assert "graphpkg.util.helper" in targets   # via __init__ re-export
        assert "graphpkg.util.wrapper" in targets  # via relative import

    def test_external_call_kept_unresolved_with_canonical_name(self):
        graph = load_graphpkg().graph
        helper = graph.function_named("graphpkg.util.helper")
        external = [s.target for s in helper.calls if not s.resolved]
        assert external == ["os.getcwd"]

    def test_reverse_edges(self):
        graph = load_graphpkg().graph
        assert graph.callers["graphpkg.util.helper"] == {
            "graphpkg.engine.Engine.step",
            "graphpkg.util.wrapper",
        }


class TestTaintFixpoint:
    def test_chains_are_shortest_witnesses(self):
        graph = load_graphpkg().graph
        analysis = TaintAnalysis(
            graph, {"cwd": lambda target: target == "os.getcwd"}
        )
        table = analysis.tainted["cwd"]
        assert table["graphpkg.util.helper"].chain == (
            "graphpkg.util.helper",
            "os.getcwd",
        )
        assert table["graphpkg.util.wrapper"].chain == (
            "graphpkg.util.wrapper",
            "graphpkg.util.helper",
            "os.getcwd",
        )
        # step calls both helper (2 hops) and wrapper (3 hops): BFS must
        # pick the shorter witness.
        assert table["graphpkg.engine.Engine.step"].chain == (
            "graphpkg.engine.Engine.step",
            "graphpkg.util.helper",
            "os.getcwd",
        )
        assert table["graphpkg.engine.Engine.run"].chain[0] == (
            "graphpkg.engine.Engine.run"
        )
        assert table["graphpkg.engine.Engine.run"].sink == "os.getcwd"

    def test_untainted_functions_stay_clean(self):
        graph = load_graphpkg().graph
        analysis = TaintAnalysis(
            graph, {"cwd": lambda target: target == "os.getcwd"}
        )
        assert "graphpkg.engine.Base.shared" not in analysis.tainted["cwd"]
