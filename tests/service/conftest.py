"""Service-suite fixtures.

A task or connection callback that dies on an exception nobody awaits
leaves a daemon or server that looks alive and no longer serves: an
ingest consumer that died on a fold error never drains again.  asyncio
reports such an exception only through ``loop.call_exception_handler``,
when the dead task is finalized, so a test that never awaits the task
passes.  ``no_task_died_unseen`` records every context that reaches that
handler with an ``exception`` during a test, and fails the test at
teardown, after a ``gc.collect()`` has finalized what the test left.
"""

from __future__ import annotations

import asyncio
import gc
from typing import Any, Iterator

import pytest


@pytest.fixture(autouse=True)
def no_task_died_unseen(monkeypatch: pytest.MonkeyPatch) -> Iterator[None]:
    seen: list[dict[str, Any]] = []
    report = asyncio.BaseEventLoop.call_exception_handler

    def record(loop: asyncio.BaseEventLoop, context: dict[str, Any]) -> None:
        if context.get("exception") is not None:
            seen.append(context)
        report(loop, context)

    monkeypatch.setattr(asyncio.BaseEventLoop, "call_exception_handler", record)
    yield
    gc.collect()
    if seen:
        pytest.fail(
            "an asyncio task or callback ended with an exception nobody "
            "retrieved: "
            + "; ".join(
                f"{context.get('message')}: {context['exception']!r}"
                for context in seen
            ),
            pytrace=False,
        )
