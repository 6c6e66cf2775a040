"""Tests for the whole-program rules RK003, RK010 and RK012 (and RK011).

Two layers: synthetic micro-projects (assembled in memory via
``FileContext.from_source``) pin each rule's contract, and *mutant*
tests run the rules over the real shipped tree with one invariant
deliberately broken -- dropping a field from ``serialize.py`` --
proving the rules catch exactly the regressions they were built for.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lintkit.engine import FileContext, lint_contexts

REPO_SRC = Path(__file__).parents[2] / "src"

#: The retired memo counter and RK012 waiver, spelled in parts so that a
#: search of the tree for them finds only the project history.
RETIRED_GEN = "_" + "gen"
RETIRED_MARKER = "  # lintkit: not-" + "serialized"


def lint_project(files: dict[str, str], select: list[str]):
    contexts = [
        FileContext.from_source(textwrap.dedent(source), path)
        for path, source in files.items()
    ]
    return lint_contexts(contexts, select=select)


def load_tree(mutate: dict[str, tuple[str, str]] | None = None):
    """Contexts for the real ``src/repro`` tree, optionally mutated.

    ``mutate`` maps a path suffix to an ``(old, new)`` source rewrite;
    the old text must occur exactly once past any ``anchor:`` prefix.
    """
    mutate = dict(mutate or {})
    contexts = []
    for path in sorted((REPO_SRC / "repro").rglob("*.py")):
        rel = str(path.relative_to(REPO_SRC.parent))
        source = path.read_text(encoding="utf-8")
        for suffix, (old, new) in list(mutate.items()):
            if rel.endswith(suffix):
                assert old in source, f"mutation anchor missing in {rel}"
                source = source.replace(old, new, 1)
                del mutate[suffix]
        contexts.append(FileContext.from_source(source, rel))
    assert not mutate, f"unused mutations: {list(mutate)}"
    return contexts


# --------------------------------------------------------------- RK010


class TestRK010:
    FILES = {
        "src/repro/service/pool.py": """
        import multiprocessing

        def fan_out():
            return multiprocessing.Pool()
        """,
        "src/repro/core/trace.py": """
        from repro.service.pool import fan_out

        def ingest():
            return fan_out()
        """,
    }

    def test_exempt_helper_crossing_fires_with_chain(self):
        found = lint_project(self.FILES, ["RK010"])
        assert [v.rule_id for v in found] == ["RK010"]
        v = found[0]
        assert v.path == "src/repro/core/trace.py"
        assert v.evidence == (
            "repro.core.trace.ingest",
            "repro.service.pool.fan_out",
            "multiprocessing.Pool",
        )
        assert "multiprocessing.Pool" in v.message
        assert "[repro.core.trace.ingest -> " in v.render()

    def test_direct_calls_left_to_per_file_rules(self):
        files = {
            "src/repro/core/trace.py": """
            import multiprocessing

            def ingest():
                return multiprocessing.Pool()
            """
        }
        assert lint_project(files, ["RK010"]) == []  # RK008 territory
        found = lint_project(files, ["RK008", "RK010"])
        assert {v.rule_id for v in found} == {"RK008"}

    def test_exempt_caller_is_not_flagged(self):
        files = dict(self.FILES)
        files["src/repro/service/driver.py"] = """
        from repro.service.pool import fan_out

        def measure():
            return fan_out()
        """
        found = lint_project(files, ["RK010"])
        assert {v.path for v in found} == {"src/repro/core/trace.py"}

    def test_concurrency_label_binds_engines_not_drivers(self):
        files = {
            "src/repro/service/executor.py": """
            import multiprocessing

            def fan_out():
                return multiprocessing.Pool()
            """,
            "src/repro/histograms/bad.py": """
            from repro.service.executor import fan_out

            def merge_all():
                return fan_out()
            """,
            "src/repro/benchkit/driver.py": """
            from repro.service.executor import fan_out

            def bench():
                return fan_out()
            """,
        }
        found = lint_project(files, ["RK010"])
        assert [v.path for v in found] == ["src/repro/histograms/bad.py"]

    def test_pragma_suppresses_at_crossing_line(self):
        # The crossing is reported at the call into the exempt helper: a
        # pragma there silences it, one on the enclosing def line does not.
        def crossing(def_pragma: str, call_pragma: str):
            files = dict(self.FILES)
            files["src/repro/core/trace.py"] = (
                "from repro.service.pool import fan_out\n\n"
                f"def ingest():{def_pragma}\n"
                f"    return fan_out(){call_pragma}\n"
            )
            return [v.rule_id for v in lint_project(files, ["RK010"])]

        pragma = "  # lintkit: ignore[RK010]"
        assert crossing("", "") == ["RK010"]
        assert crossing(pragma, "") == ["RK010"]
        assert crossing("", pragma) == []

    def test_shipped_tree_is_clean(self):
        assert lint_contexts(load_tree(), select=["RK010"]) == []

    def test_pragma_suppresses_concurrency_crossing(self):
        files = dict(self.FILES)
        files["src/repro/core/trace.py"] = """
        from repro.service.pool import fan_out

        def ingest():
            return fan_out()  # lintkit: ignore[RK010]
        """
        assert lint_project(files, ["RK010"]) == []

    def test_wall_clock_helper_is_flagged_where_it_reads(self):
        # No package may read a clock, so a helper's read is RK001's
        # finding at the helper itself; there is no crossing to report.
        files = {
            "src/repro/benchkit/timers.py": """
            import time

            def stamp():
                return time.time()
            """,
            "src/repro/core/trace.py": """
            from repro.benchkit.timers import stamp

            def ingest():
                return stamp()
            """,
        }
        found = lint_project(files, ["RK001", "RK010"])
        assert [(v.rule_id, v.path) for v in found] == [
            ("RK001", "src/repro/benchkit/timers.py")
        ]


# --------------------------------------------------------------- RK003


class TestRK003:
    BASE = """
    class EngineBase:
        def advance_to(self, when):
            self.advance(when - self.time)

        def ingest(self, items, *, until=None):
            pass
    """
    ENGINE = """
    from repro.core.skeleton import EngineBase

    class TwoModuleSum(EngineBase):
        @property
        def time(self):
            return 0

        @property
        def decay(self):
            return None

        def add(self, value=1.0): ...
        def add_batch(self, values): ...
        def advance(self, steps=1): ...
        def query(self): ...
        def merge(self, other): ...
        def storage_report(self): ...
    """

    def _files(self, base: str) -> dict[str, str]:
        return {
            "src/repro/core/skeleton.py": base,
            "src/repro/histograms/two.py": self.ENGINE,
        }

    def test_members_inherited_from_another_module_count(self):
        assert lint_project(self._files(self.BASE), ["RK003"]) == []

    def test_member_missing_from_the_other_module_base_is_flagged(self):
        base = self.BASE.replace("def ingest(", "def replay(")
        found = lint_project(self._files(base), ["RK003"])
        assert [(v.rule_id, v.path, v.line) for v in found] == [
            ("RK003", "src/repro/histograms/two.py", 4)
        ]
        assert found[0].message.endswith("member(s): ingest")

    def test_shipped_tree_is_clean(self):
        assert lint_contexts(load_tree(), select=["RK003"]) == []

    def test_engine_base_without_advance_to_flags_every_engine(self):
        found = lint_contexts(
            load_tree({
                "core/batching.py": (
                    "    def advance_to(self: BatchEngine",
                    "    def advance_by(self: BatchEngine",
                )
            }),
            select=["RK003"],
        )
        flagged = {v.message.split("`")[1] for v in found}
        assert {
            "ExponentialSum", "PolyexponentialSum", "GeneralPolyexpSum",
            "ExactDecayingSum", "ForwardDecaySum", "ExactForwardSum",
            "CascadedEH", "WBMH", "ApproxBoundaryCEH", "SlidingWindowSum",
        } <= flagged
        assert all(v.message.endswith("member(s): advance_to") for v in found)


# --------------------------------------------------------------- RK011


class TestRK011:
    def test_shipped_tree_is_clean(self):
        assert lint_contexts(load_tree(), select=["RK011"]) == []

    def test_shipped_kernels_are_marked_hot(self):
        from repro.lintkit.pragmas import marker_lines

        eh = (REPO_SRC / "repro" / "histograms" / "eh.py").read_text()
        batching = (REPO_SRC / "repro" / "core" / "batching.py").read_text()
        soa = (REPO_SRC / "repro" / "histograms" / "soa.py").read_text()
        assert marker_lines(eh, "hot")
        assert marker_lines(batching, "hot")
        # The SoA kernel module must keep its per-item append path and
        # its pure-Python kernel loops (EH level walk and closed-form
        # pairs, domination pre-check) under RK011's allocation scoping.
        assert len(marker_lines(soa, "hot")) >= 3

    def test_unmarked_function_unconstrained(self):
        found = lint_project(
            {
                "src/repro/core/k.py": """
                def cold(xs):
                    return [x * 2 for x in xs]
                """
            },
            ["RK011"],
        )
        assert found == []

    def test_marker_on_decorator_line(self):
        found = lint_project(
            {
                "src/repro/core/k.py": """
                import functools

                @functools.cache  # lintkit: hot
                def kernel(xs):
                    out = 0
                    for x in xs:
                        out += sum(y for y in x)
                    return out
                """
            },
            ["RK011"],
        )
        assert [v.rule_id for v in found] == ["RK011"]
        assert "generator expression" in found[0].message

    def test_literal_displays_allowed(self):
        found = lint_project(
            {
                "src/repro/core/k.py": """
                def kernel(items):  # lintkit: hot
                    pairs = []
                    for item in items:
                        pairs.append([item, item * 2])
                    return pairs
                """
            },
            ["RK011"],
        )
        assert found == []

    def test_container_ctor_and_closure_flagged(self):
        found = lint_project(
            {
                "src/repro/core/k.py": """
                def kernel(items):  # lintkit: hot
                    out = []
                    for item in items:
                        seen = set()
                        key = lambda v: v
                        out.append(seen)
                    return out
                """
            },
            ["RK011"],
        )
        assert sorted(v.line for v in found) == [5, 6]
        messages = " ".join(v.message for v in found)
        assert "set() construction" in messages
        assert "closure allocation" in messages

    def test_allocation_outside_loop_allowed(self):
        found = lint_project(
            {
                "src/repro/core/k.py": """
                def kernel(items):  # lintkit: hot
                    out = list(items)
                    squares = [x * x for x in items]
                    for i, item in enumerate(items):
                        out[i] = squares[i]
                    return out
                """
            },
            ["RK011"],
        )
        assert found == []


# --------------------------------------------------------------- RK012


class TestRK012Mutants:
    def test_shipped_tree_is_clean(self):
        assert lint_contexts(load_tree(), select=["RK012"]) == []

    def test_dropping_serialized_field_fires(self):
        # The ISSUE mutant: remove one field from the ewma writer branch.
        contexts = load_tree(
            {"repro/serialize.py": ('            "items": engine._items,\n', "")}
        )
        found = lint_contexts(contexts, select=["RK012"])
        assert found, "RK012 must flag the dropped 'items' field"
        assert all(v.rule_id == "RK012" for v in found)
        assert any(
            "'items'" in v.message and "never writes" in v.message
            for v in found
        ), [v.render() for v in found]

    def test_dropping_restore_assignment_fires(self):
        contexts = load_tree(
            {
                "repro/serialize.py": (
                    '        engine._since_compact = int(data["since_compact"])\n',
                    "",
                )
            }
        )
        found = lint_contexts(contexts, select=["RK012"])
        assert any(
            v.rule_id == "RK012" and "'since_compact'" in v.message
            for v in found
        ), [v.render() for v in found]

    def test_unserialized_slot_on_a_project_base_fires(self):
        # BucketColumns holds the clock, total and columns of both
        # histograms: state declared on a base is checked for every engine
        # class the codec names.
        contexts = load_tree(
            {
                "repro/histograms/soa.py": (
                    '"_time", "_total")',
                    '"_time", "_total", "_junk")',
                )
            }
        )
        found = lint_contexts(contexts, select=["RK012"])
        assert sorted(v.message.split()[0] for v in found) == [
            "DominationHistogram._junk",
            "ExponentialHistogram._junk",
        ], [v.render() for v in found]
        assert all(
            "repro.histograms.soa.BucketColumns._junk" in v.evidence[0]
            for v in found
        )


class TestRK012Synthetic:
    CODEC = """
    from repro.core.widget import Widget

    def engine_to_dict(engine):
        if isinstance(engine, Widget):
            return {{
                "version": 1,
                "engine": "widget",
                {to_fields}
            }}
        raise TypeError(engine)

    def engine_from_dict(data):
        kind = data.get("engine")
        if kind == "widget":
            engine = Widget({ctor_args})
            {from_fields}
            return engine
        raise KeyError(kind)
    """

    WIDGET = """
    class Widget:
        def __init__(self, size):
            self.size = size
            self._count = 0{marker}{extra}

        @property
        def count(self):
            return self._count
    """

    def _lint(self, to_fields, ctor_args, from_fields, marker="", extra=""):
        files = {
            "src/repro/core/widget.py": self.WIDGET.format(
                marker=marker, extra=extra
            ),
            "src/repro/serialize.py": self.CODEC.format(
                to_fields=to_fields,
                ctor_args=ctor_args,
                from_fields=from_fields,
            ),
        }
        return lint_project(files, ["RK012"])

    def test_complete_codec_is_clean(self):
        found = self._lint(
            '"size": engine.size,\n                "count": engine.count,',
            'data["size"]',
            'engine._count = data["count"]',
        )
        assert found == []

    def test_uncovered_attribute_fires(self):
        found = self._lint('"size": engine.size,', 'data["size"]', "pass")
        assert [v.rule_id for v in found] == ["RK012"]
        assert "Widget._count" in found[0].message

    def test_no_marker_or_memo_exempts_an_attribute(self):
        # Neither a waiver comment on the assignment nor a generation-keyed
        # answer cache beside the snapshot state escapes the rule.
        found = self._lint(
            '"size": engine.size,\n                "count": engine.count,',
            'data["size"]',
            'engine._count = data["count"]',
            marker=RETIRED_MARKER,
            extra=(
                f"\n            self.{RETIRED_GEN} = 0"
                f"\n            self._memo = (self.{RETIRED_GEN}, None)"
            ),
        )
        assert sorted(v.message.split()[0] for v in found) == [
            f"Widget.{RETIRED_GEN}",
            "Widget._memo",
        ]
        found = self._lint(
            '"size": engine.size,', 'data["size"]', "pass", marker=RETIRED_MARKER
        )
        assert [v.message.split()[0] for v in found] == ["Widget._count"]

    def test_property_access_covers_backing_attr(self):
        # Writing engine.count (a property over _count) covers _count on
        # the serialize side even if restore rebuilds it another way.
        found = self._lint(
            '"size": engine.size,\n                "count": engine.count,',
            'data["size"]',
            'engine._count = data["count"]',
        )
        assert found == []

    def test_unrestored_key_fires(self):
        found = self._lint(
            '"size": engine.size,\n                "count": engine.count,',
            'data["size"]',
            "engine._count = 0",
        )
        assert any("'count'" in v.message and "never restored" in v.message
                   for v in found), [v.render() for v in found]


@pytest.mark.parametrize("rule", ["RK010", "RK012"])
def test_project_rules_tolerate_single_file_projects(rule):
    # lint_source-style one-file pools must not crash the project rules.
    found = lint_project({"src/repro/core/tiny.py": "x = 1\n"}, [rule])
    assert found == []
