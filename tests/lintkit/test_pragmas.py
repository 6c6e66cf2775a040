"""Pragma suppression, registry, and engine plumbing tests."""

from __future__ import annotations

import textwrap

import pytest

from repro.lintkit import all_rules, get_rule, lint_source
from repro.lintkit.pragmas import parse_pragmas

RK001_SNIPPET = "import time\nx = time.time()%s\n"


class TestLinePragmas:
    def test_matching_rule_suppressed(self):
        found = lint_source(
            RK001_SNIPPET % "  # lintkit: ignore[RK001]", "repro/core/x.py"
        )
        assert found == []

    def test_other_rule_not_suppressed(self):
        found = lint_source(
            RK001_SNIPPET % "  # lintkit: ignore[RK002]", "repro/core/x.py"
        )
        assert [v.rule_id for v in found] == ["RK001"]

    def test_bare_ignore_suppresses_all(self):
        found = lint_source(RK001_SNIPPET % "  # lintkit: ignore", "repro/core/x.py")
        assert found == []

    def test_multiple_ids_and_case(self):
        found = lint_source(
            RK001_SNIPPET % "  # lintkit: ignore[rk004, RK001]", "repro/core/x.py"
        )
        assert found == []

    def test_pragma_on_other_line_does_not_leak(self):
        source = "# lintkit: ignore[RK001]\nimport time\nx = time.time()\n"
        found = lint_source(source, "repro/core/x.py")
        assert [v.rule_id for v in found] == ["RK001"]


class TestFilePragmas:
    def test_ignore_file_with_rule(self):
        source = "# lintkit: ignore-file[RK001]\nimport time\nx = time.time()\n"
        assert lint_source(source, "repro/core/x.py") == []

    def test_ignore_file_bare_suppresses_everything(self):
        source = textwrap.dedent(
            """
            # lintkit: ignore-file
            import time

            def f(a, b):
                try:
                    return time.time()
                except:
                    pass
            """
        )
        assert lint_source(source, "repro/core/x.py") == []

    def test_parse_pragmas_shapes(self):
        sup = parse_pragmas(
            "x = 1  # lintkit: ignore[RK001]\n# lintkit: ignore-file[RK005]\n"
        )
        assert sup.by_line[1] == frozenset({"RK001"})
        assert sup.file_level == frozenset({"RK005"})
        assert sup.is_suppressed("RK005", 99)
        assert not sup.is_suppressed("RK002", 2)


class TestRegistryAndEngine:
    def test_full_catalog_registered(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == [
            "RK001", "RK002", "RK003", "RK004", "RK005", "RK006", "RK007",
            "RK008", "RK010", "RK011", "RK012",
        ]

    def test_project_rules_flagged_as_such(self):
        from repro.lintkit import ProjectRule

        kinds = {
            rule.rule_id: isinstance(rule, ProjectRule) for rule in all_rules()
        }
        assert kinds["RK010"] and kinds["RK012"]
        assert not kinds["RK001"] and not kinds["RK011"]

    def test_rules_carry_catalog_metadata(self):
        for rule in all_rules():
            assert rule.title
            assert rule.rationale

    def test_get_rule_and_unknown_select(self):
        assert get_rule("RK004").rule_id == "RK004"
        with pytest.raises(KeyError):
            lint_source("x = 1\n", "repro/core/x.py", select=["RK999"])

    def test_syntax_error_reported_as_rk000(self):
        found = lint_source("def f(:\n", "repro/core/x.py")
        assert [v.rule_id for v in found] == ["RK000"]
        assert "syntax error" in found[0].message

    def test_violations_sorted_by_location(self):
        source = textwrap.dedent(
            """
            import time

            b = time.time()
            try:
                a = 1
            except:
                pass
            """
        )
        found = lint_source(source, "repro/core/x.py")
        assert [v.rule_id for v in found] == ["RK001", "RK004"]
        assert found[0].line < found[1].line

    def test_render_contains_rule_id_and_location(self):
        found = lint_source("import time\nx = time.time()\n", "repro/core/x.py")
        text = found[0].render()
        assert "repro/core/x.py:2" in text
        assert "RK001" in text


#: RK006 anchors its "missing annotation" violation on the ``def`` line,
#: which for a decorated function is *below* the decorators -- exactly the
#: case decorator-line pragma binding exists for.  The ``(core|histograms)
#: public surface`` scope plus a public def makes it fire deterministically.
DECORATED_DEF = textwrap.dedent(
    """
    import functools

    {first_line}
    @functools.wraps(print){second_comment}
    def shipped(x):{def_comment}
        return x
    """
)


class TestDecoratorPragmas:
    def _lint(self, first_line="@functools.cache", second_comment="", def_comment=""):
        source = DECORATED_DEF.format(
            first_line=first_line,
            second_comment=second_comment,
            def_comment=def_comment,
        )
        return lint_source(source, "repro/core/x.py", select=["RK006"])

    def test_undecorated_baseline_fires(self):
        assert [v.rule_id for v in self._lint()] == ["RK006"]

    def test_pragma_on_first_decorator_line(self):
        found = self._lint(
            first_line="@functools.cache  # lintkit: ignore[RK006]"
        )
        assert found == []

    def test_pragma_on_any_decorator_line(self):
        found = self._lint(second_comment="  # lintkit: ignore[RK006]")
        assert found == []

    def test_pragma_on_def_line_still_works(self):
        found = self._lint(def_comment="  # lintkit: ignore[RK006]")
        assert found == []

    def test_wrong_rule_on_decorator_does_not_suppress(self):
        found = self._lint(
            first_line="@functools.cache  # lintkit: ignore[RK001]"
        )
        assert [v.rule_id for v in found] == ["RK006"]

    def test_bare_ignore_on_decorator_suppresses_all(self):
        found = self._lint(first_line="@functools.cache  # lintkit: ignore")
        assert found == []

    def test_decorated_class_pragma_binds_to_class_line(self):
        import ast

        from repro.lintkit.pragmas import bind_decorator_pragmas

        source = textwrap.dedent(
            """\
            import dataclasses

            @dataclasses.dataclass  # lintkit: ignore[RK003]
            class Timed:
                t: float = 0.0
            """
        )
        sup = parse_pragmas(source)
        assert not sup.is_suppressed("RK003", 4)  # class line, pre-binding
        bind_decorator_pragmas(sup, ast.parse(source))
        assert sup.is_suppressed("RK003", 4)
        assert not sup.is_suppressed("RK001", 4)

    def test_multiline_decorator_pragma_binds_from_any_physical_line(self):
        import ast

        from repro.lintkit.pragmas import bind_decorator_pragmas

        source = textwrap.dedent(
            """\
            import functools

            @functools.partial(
                print,  # lintkit: ignore[RK006]
            )
            def shipped(x):
                return x
            """
        )
        sup = parse_pragmas(source)
        bind_decorator_pragmas(sup, ast.parse(source))
        assert sup.is_suppressed("RK006", 6)  # the def line
