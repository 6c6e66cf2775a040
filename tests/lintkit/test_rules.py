"""Positive/negative snippet tests for every lintkit rule (RK001-RK006)."""

from __future__ import annotations

import textwrap

from repro.lintkit import lint_source


def _lint(source: str, path: str, *rules: str):
    return lint_source(textwrap.dedent(source), path, select=rules or None)


def _ids(violations) -> list[str]:
    return [v.rule_id for v in violations]


# --------------------------------------------------------------------- RK001


class TestWallClock:
    def test_time_time_flagged(self):
        found = _lint(
            """
            import time

            def f() -> float:
                return time.time()
            """,
            "repro/core/x.py",
        )
        assert _ids(found) == ["RK001"]
        assert found[0].line == 5
        assert "time.time" in found[0].message

    def test_from_import_and_datetime_flagged(self):
        found = _lint(
            """
            from time import monotonic
            from datetime import datetime

            def f() -> float:
                return monotonic() + datetime.now().timestamp()
            """,
            "repro/streams/x.py",
        )
        assert _ids(found) == ["RK001", "RK001"]

    def test_benchkit_not_exempt(self):
        found = _lint(
            """
            import time

            def f() -> float:
                return time.perf_counter()
            """,
            "repro/benchkit/harness.py",
        )
        assert _ids(found) == ["RK001"]
        assert "time.perf_counter" in found[0].message

    def test_model_clock_ok(self):
        found = _lint(
            """
            def f(engine) -> None:
                engine.advance(3)
            """,
            "repro/core/x.py",
            "RK001",
        )
        assert found == []


# --------------------------------------------------------------------- RK002


class TestInjectedRng:
    def test_module_global_random_flagged(self):
        found = _lint(
            """
            import random

            def f() -> float:
                return random.random()
            """,
            "repro/sampling/x.py",
        )
        assert "RK002" in _ids(found)

    def test_numpy_global_flagged(self):
        found = _lint(
            """
            import numpy as np

            def f():
                return np.random.rand(3)
            """,
            "repro/sketches/x.py",
            "RK002",
        )
        assert _ids(found) == ["RK002"]
        assert "numpy.random.rand" in found[0].message

    def test_unseeded_constructors_flagged(self):
        found = _lint(
            """
            import random
            import numpy as np

            a = random.Random()
            b = random.Random(None)
            c = np.random.default_rng()
            """,
            "repro/streams/x.py",
            "RK002",
        )
        assert _ids(found) == ["RK002", "RK002", "RK002"]

    def test_conditional_none_seed_flagged(self):
        found = _lint(
            """
            import random

            def f(seed: int | None) -> random.Random:
                return random.Random(None if seed is None else seed + 1)
            """,
            "repro/sampling/x.py",
            "RK002",
        )
        assert _ids(found) == ["RK002"]

    def test_from_import_of_global_rng_flagged(self):
        found = _lint(
            "from random import randint\n",
            "repro/sampling/x.py",
            "RK002",
        )
        assert _ids(found) == ["RK002"]

    def test_seeded_and_defaulted_ok(self):
        found = _lint(
            """
            import random
            import numpy as np

            DEFAULT_SEED = 0x5EED

            def f(seed: int | None) -> None:
                a = random.Random(42)
                b = random.Random(DEFAULT_SEED if seed is None else seed)
                c = np.random.default_rng(7)
                d = a.random() + b.random() + c.random()
            """,
            "repro/sampling/x.py",
            "RK002",
        )
        assert found == []

    def test_out_of_scope_path_ignored(self):
        found = _lint(
            "import random\nx = random.random()\n",
            "repro/benchkit/x.py",
            "RK002",
        )
        assert found == []


# --------------------------------------------------------------------- RK003


class TestEngineProtocol:
    def test_incomplete_engine_by_name_flagged(self):
        found = _lint(
            """
            class BrokenSum:
                def add(self, value: float = 1.0) -> None: ...
                def query(self) -> float: ...
            """,
            "repro/core/x.py",
            "RK003",
        )
        assert _ids(found) == ["RK003"]
        for member in ("time", "decay", "advance", "storage_report"):
            assert member in found[0].message

    def test_incomplete_engine_by_base_flagged(self):
        found = _lint(
            """
            from repro.core.interfaces import DecayingSum

            class Widget(DecayingSum):
                def add(self, value: float = 1.0) -> None: ...
            """,
            "repro/apps/x.py",
            "RK003",
        )
        assert _ids(found) == ["RK003"]

    def test_complete_engine_ok(self):
        found = _lint(
            """
            class GoodSum:
                @property
                def time(self) -> int: ...
                @property
                def decay(self): ...
                def add(self, value: float = 1.0) -> None: ...
                def add_batch(self, values) -> None: ...
                def advance(self, steps: int = 1) -> None: ...
                def advance_to(self, when: int) -> None: ...
                def ingest(self, items, *, until=None) -> None: ...
                def query(self): ...
                def merge(self, other) -> None: ...
                def storage_report(self): ...
            """,
            "repro/core/x.py",
            "RK003",
        )
        assert found == []

    def test_engine_without_merge_flagged(self):
        # The mergeable-summaries surface is part of the protocol: an
        # engine missing only `merge` cannot ride the shard pool.
        found = _lint(
            """
            class AlmostSum:
                @property
                def time(self) -> int: ...
                @property
                def decay(self): ...
                def add(self, value: float = 1.0) -> None: ...
                def add_batch(self, values) -> None: ...
                def advance(self, steps: int = 1) -> None: ...
                def advance_to(self, when: int) -> None: ...
                def ingest(self, items, *, until=None) -> None: ...
                def query(self): ...
                def storage_report(self): ...
            """,
            "repro/core/x.py",
            "RK003",
        )
        assert _ids(found) == ["RK003"]
        assert "merge" in found[0].message

    def test_members_inherited_from_local_base_ok(self):
        found = _lint(
            """
            class BaseSum:
                @property
                def time(self) -> int: ...
                @property
                def decay(self): ...
                def add(self, value: float = 1.0) -> None: ...
                def add_batch(self, values) -> None: ...
                def advance(self, steps: int = 1) -> None: ...
                def advance_to(self, when: int) -> None: ...
                def ingest(self, items, *, until=None) -> None: ...
                def query(self): ...
                def merge(self, other) -> None: ...
                def storage_report(self): ...

            class QuantizedSum(BaseSum):
                def add(self, value: float = 1.0) -> None: ...
            """,
            "repro/core/x.py",
            "RK003",
        )
        assert found == []

    def test_protocol_and_private_classes_skipped(self):
        found = _lint(
            """
            from typing import Protocol

            class DecayingSum(Protocol):
                def add(self, value: float = 1.0) -> None: ...

            class _ScratchSum:
                pass
            """,
            "repro/core/x.py",
            "RK003",
        )
        assert found == []

    def test_unrelated_class_ignored(self):
        found = _lint(
            "class Histogram:\n    pass\n",
            "repro/core/x.py",
            "RK003",
        )
        assert found == []


# --------------------------------------------------------------------- RK004


class TestSilentExcept:
    def test_bare_except_flagged(self):
        found = _lint(
            """
            try:
                x = 1
            except:
                x = 0
            """,
            "repro/core/x.py",
            "RK004",
        )
        assert _ids(found) == ["RK004"]
        assert "bare" in found[0].message

    def test_blanket_exception_flagged(self):
        found = _lint(
            """
            try:
                x = 1
            except Exception:
                raise
            """,
            "repro/apps/x.py",
            "RK004",
        )
        assert _ids(found) == ["RK004"]

    def test_blanket_inside_tuple_flagged(self):
        found = _lint(
            """
            try:
                x = 1
            except (ValueError, BaseException):
                x = 0
            """,
            "repro/apps/x.py",
            "RK004",
        )
        assert _ids(found) == ["RK004"]

    def test_silent_narrow_handler_flagged(self):
        found = _lint(
            """
            try:
                x = 1
            except ValueError:
                pass
            """,
            "repro/core/x.py",
            "RK004",
        )
        assert _ids(found) == ["RK004"]
        assert "silent" in found[0].message

    def test_narrow_acting_handler_ok(self):
        found = _lint(
            """
            try:
                x = 1
            except (ValueError, KeyError) as exc:
                x = 0
            """,
            "repro/core/x.py",
            "RK004",
        )
        assert found == []


# --------------------------------------------------------------------- RK005


class TestFloatEquality:
    def test_age_eq_float_flagged(self):
        found = _lint(
            "def f(age: float) -> bool:\n    return age == 1.0\n",
            "repro/histograms/x.py",
            "RK005",
        )
        assert _ids(found) == ["RK005"]

    def test_attribute_weight_ne_float_flagged(self):
        found = _lint(
            "def f(b) -> bool:\n    return 0.5 != b.weight\n",
            "repro/histograms/x.py",
            "RK005",
        )
        assert _ids(found) == ["RK005"]

    def test_weight_call_eq_float_flagged(self):
        found = _lint(
            "def f(g, a: int) -> bool:\n    return g.weight(a) == 0.0\n",
            "repro/core/x.py",
            "RK005",
        )
        assert _ids(found) == ["RK005"]

    def test_int_literal_and_ordered_ok(self):
        found = _lint(
            """
            def f(age: int, weight: float, count: float) -> bool:
                return age == 1 or weight <= 0.5 or count == 0.0
            """,
            "repro/core/x.py",
            "RK005",
        )
        assert found == []

    def test_time_vs_time_without_literal_ok(self):
        found = _lint(
            "def f(a, t: int) -> bool:\n    return a.time == t\n",
            "repro/core/x.py",
            "RK005",
        )
        assert found == []


# --------------------------------------------------------------------- RK006


class TestPublicAnnotations:
    def test_unannotated_function_flagged(self):
        found = _lint(
            "def combine(a, b):\n    return a + b\n",
            "repro/core/x.py",
            "RK006",
        )
        assert _ids(found) == ["RK006"]
        assert "parameter `a`" in found[0].message
        assert "return type" in found[0].message

    def test_unannotated_method_param_flagged(self):
        found = _lint(
            """
            class Estimator:
                def update(self, value) -> None:
                    self.value = value
            """,
            "repro/histograms/x.py",
            "RK006",
        )
        assert _ids(found) == ["RK006"]
        assert "parameter `value`" in found[0].message

    def test_fully_annotated_ok(self):
        found = _lint(
            """
            class Estimator:
                def update(self, value: float, *extra: float, **kw: float) -> None:
                    self.value = value

            def combine(a: float, b: float) -> float:
                return a + b
            """,
            "repro/core/x.py",
            "RK006",
        )
        assert found == []

    def test_private_and_nested_skipped(self):
        found = _lint(
            """
            def _helper(a):
                return a

            class _Scratch:
                def update(self, value):
                    pass

            def outer() -> None:
                def inner(x):
                    return x
            """,
            "repro/core/x.py",
            "RK006",
        )
        assert found == []

    def test_out_of_scope_path_ignored(self):
        found = _lint(
            "def combine(a, b):\n    return a + b\n",
            "repro/apps/x.py",
            "RK006",
        )
        assert found == []


# --------------------------------------------------------------------- RK007


class TestPureLaws:
    PATH = "repro/conformance/laws.py"

    def test_wall_clock_in_law_flagged(self):
        # RK001 reports the read where it is made; RK007 does not repeat it.
        found = _lint(
            """
            import time

            def check(spec, trace):
                return time.time()
            """,
            self.PATH,
            "RK001",
            "RK007",
        )
        assert _ids(found) == ["RK001"]
        assert "time.time" in found[0].message

    def test_global_rng_flagged(self):
        found = _lint(
            """
            import random

            def check(spec, trace):
                return random.random() < 0.5
            """,
            self.PATH,
            "RK007",
        )
        assert _ids(found) == ["RK007"]
        assert "module-global RNG" in found[0].message

    def test_unseeded_random_instance_flagged(self):
        found = _lint(
            """
            import random

            def check(spec, trace):
                rng = random.Random()
                return rng.random()
            """,
            self.PATH,
            "RK007",
        )
        assert _ids(found) == ["RK007"]
        assert "seed" in found[0].message

    def test_seeded_random_instance_ok(self):
        found = _lint(
            """
            import random

            def check(spec, trace):
                rng = random.Random(1234)
                return rng.random()
            """,
            self.PATH,
            "RK007",
        )
        assert found == []

    def test_trace_attribute_assignment_flagged(self):
        found = _lint(
            """
            def check(spec, trace):
                trace.tail = 0
                return []
            """,
            self.PATH,
            "RK007",
        )
        assert _ids(found) == ["RK007"]
        assert "assigns into its trace argument" in found[0].message

    def test_trace_subscript_and_augassign_flagged(self):
        found = _lint(
            """
            def check(spec, trace):
                trace.items[0] = (0, 1.0)
                trace.tail += 1
                return []
            """,
            self.PATH,
            "RK007",
        )
        assert _ids(found) == ["RK007", "RK007"]

    def test_trace_mutating_method_flagged(self):
        found = _lint(
            """
            def check(spec, trace):
                trace.items.append((0, 1.0))
                return []
            """,
            self.PATH,
            "RK007",
        )
        assert _ids(found) == ["RK007"]
        assert ".append()" in found[0].message

    def test_object_setattr_escape_hatch_flagged(self):
        found = _lint(
            """
            def check(spec, trace):
                object.__setattr__(trace, "tail", 0)
                return []
            """,
            self.PATH,
            "RK007",
        )
        assert _ids(found) == ["RK007"]

    def test_pure_law_ok(self):
        found = _lint(
            """
            def check(spec, trace):
                shifted = trace.shifted(7)
                local = list(trace.items)
                local.append((99, 1.0))
                return [shifted, local]
            """,
            self.PATH,
            "RK007",
        )
        assert found == []

    def test_scoped_to_laws_files_only(self):
        impure = """
            import time

            def check(spec, trace):
                trace.tail = 0
                return time.time()
            """
        assert _lint(impure, "repro/conformance/shrink.py", "RK007") == []
        assert _lint(impure, "repro/core/laws.py", "RK007") == []
        # The trace mutation; the clock read is RK001's.
        assert _ids(
            _lint(impure, "repro/conformance/laws_extra.py", "RK007")
        ) == ["RK007"]


# --------------------------------------------------------------------- RK008


class TestParallelismBoundary:
    def test_multiprocessing_import_flagged(self):
        found = _lint(
            "import multiprocessing\n",
            "repro/core/x.py",
            "RK008",
        )
        assert _ids(found) == ["RK008"]
        assert "repro.service" in found[0].message

    def test_concurrent_futures_from_import_flagged(self):
        found = _lint(
            "from concurrent.futures import ProcessPoolExecutor\n",
            "repro/histograms/x.py",
            "RK008",
        )
        assert _ids(found) == ["RK008"]

    def test_threading_and_thread_flagged(self):
        found = _lint(
            """
            import threading
            import _thread
            """,
            "repro/conformance/x.py",
            "RK008",
        )
        assert _ids(found) == ["RK008", "RK008"]

    def test_worker_plane_is_exempt(self):
        source = """
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            """
        assert _lint(source, "repro/service/sharded.py", "RK008") == []
        # Only the service and benchkit packages are exempt.
        found = _lint(source, "repro/parallel/executor.py", "RK008")
        assert _ids(found) == ["RK008", "RK008"]

    def test_asyncio_flagged_outside_the_boundaries(self):
        # Event-loop machinery is concurrency machinery: an engine that
        # awaits is no longer a pure function of the trace.
        found = _lint(
            "import asyncio\n",
            "repro/core/x.py",
            "RK008",
        )
        assert _ids(found) == ["RK008"]
        assert "repro.service" in found[0].message
        assert _ids(
            _lint(
                "from asyncio import Queue\n",
                "repro/conformance/x.py",
                "RK008",
            )
        ) == ["RK008"]

    def test_only_the_service_package_is_exempt(self):
        source = """
            import asyncio
            from asyncio import StreamReader
            """
        assert _lint(source, "repro/service/daemon.py", "RK008") == []
        assert _lint(source, "repro/service/api.py", "RK008") == []
        found = _lint(source, "repro/benchkit/service.py", "RK008")
        assert _ids(found) == ["RK008", "RK008"]
        assert "(repro.service)" in found[0].message

    def test_sharded_worker_plane_is_exempt(self):
        # The multi-process sharded front is the second sanctioned
        # concurrency surface inside repro.service: worker processes and
        # their pipes live in sharded.py/ipc.py.
        source = """
            import multiprocessing
            from multiprocessing.connection import Connection
            """
        assert _lint(source, "repro/service/sharded.py", "RK008") == []
        assert _lint(source, "repro/service/ipc.py", "RK008") == []

    def test_prefix_lookalike_module_not_flagged(self):
        # `concurrency_notes` shares a prefix with `concurrent` but is not
        # the banned root module.
        found = _lint(
            "import concurrency_notes\n",
            "repro/core/x.py",
            "RK008",
        )
        assert found == []

    def test_shipped_executor_is_the_only_concurrency_site(self):
        # Pin the allowlist against the real tree: lint every shipped
        # source file and demand zero RK008 violations (the one legit
        # import site lives under the exempt parallel/ component).
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root.parent).as_posix()
            assert lint_source(path.read_text(), rel, select=["RK008"]) == [], rel
