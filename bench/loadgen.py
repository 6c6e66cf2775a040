"""The generator: one asyncio loop driving one server process over HTTP.

At most two connections are open at any time (the phase-B writer and
reader each hold one; every other phase sends one request at a time).
The server answers one request per connection, so each request opens
its own connection and the connect cost is part of every latency.

Every timestamp is ``time.perf_counter_ns()``, the clock the server's
spans use, so the analysis can line the two processes up.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Any

from bench.workloads import READ_EVERY_S, WRITE_EVERY_S, Inputs, request_bytes

__all__ = ["Server", "Phases", "spawn", "shutdown", "drive"]

ROOT = Path(__file__).resolve().parent.parent
REQUEST_TIMEOUT_S = 60.0
SHUTDOWN_TIMEOUT_S = 60.0
#: Phase B gives up on writes still unsent this long after its end.
PHASE_B_GRACE_S = 60.0
HEALTHZ = request_bytes("GET", "/healthz")


class RequestFailed(Exception):
    """Transport error, timeout or malformed response."""


async def send(port: int, raw: bytes) -> tuple[int, bytes]:
    """One request on a fresh connection -> (status, body)."""

    async def exchange() -> bytes:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(raw)
            await writer.drain()
            return await reader.read()
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    try:
        data = await asyncio.wait_for(exchange(), REQUEST_TIMEOUT_S)
        status = int(data[9:12])
    except (OSError, asyncio.TimeoutError, ValueError) as exc:
        raise RequestFailed(repr(exc)) from exc
    return status, data.partition(b"\r\n\r\n")[2]


@dataclass
class Server:
    """A running server process."""

    process: asyncio.subprocess.Process
    port: int
    setup_ns: int


async def spawn(workload: str, trace_out: Path | None = None) -> Server:
    """Start the server; ``setup_ns`` runs to the first healthy answer."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    argv = [sys.executable, "-m", "bench.server", "--workload", workload]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    start = perf_counter_ns()
    process = await asyncio.create_subprocess_exec(
        *argv,
        cwd=ROOT,
        env=env,
        stdin=asyncio.subprocess.PIPE,
        stdout=asyncio.subprocess.PIPE,
    )
    try:
        assert process.stdout is not None
        line = await asyncio.wait_for(
            process.stdout.readline(), REQUEST_TIMEOUT_S
        )
        if not line:
            raise RequestFailed(f"server for {workload} exited during start")
        port = int(json.loads(line)["port"])
        status, _ = await send(port, HEALTHZ)
        if status != 200:
            raise RequestFailed(f"/healthz answered {status}")
    except BaseException:
        await kill(process)
        raise
    return Server(process, port, perf_counter_ns() - start)


async def kill(process: asyncio.subprocess.Process) -> None:
    if process.returncode is None:
        process.kill()
    await process.wait()


async def shutdown(server: Server) -> dict[str, Any]:
    """Close the server's stdin, collect its final report, reap it."""
    process = server.process
    try:
        assert process.stdin is not None and process.stdout is not None
        process.stdin.close()
        out = await asyncio.wait_for(
            process.stdout.read(), SHUTDOWN_TIMEOUT_S
        )
        await asyncio.wait_for(process.wait(), SHUTDOWN_TIMEOUT_S)
    finally:
        await kill(process)
    if process.returncode != 0:
        raise RequestFailed(f"server exited with {process.returncode}")
    report: dict[str, Any] = json.loads(out.splitlines()[-1])
    return report


@dataclass
class Phases:
    """Everything the generator observed during one run."""

    #: Requests sent (attempted) and requests that failed.
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Phase A: (sent_ns, done_ns, items, request bytes) per request.
    phase_a: list[tuple[int, int, int, int]] = field(default_factory=list)
    phase_a_window: tuple[int, int] = (0, 0)
    #: Phase B writes: (due_ns, sent_ns, done_ns, items, status).
    writes: list[tuple[int, int, int, int, int]] = field(default_factory=list)
    #: Phase B reads: (kind, due_ns, sent_ns, done_ns, status).
    reads: list[tuple[str, int, int, int, int]] = field(default_factory=list)
    phase_b_window: tuple[int, int] = (0, 0)
    #: How late the generator itself sent each phase-B request, ns.
    send_lag_ns: list[int] = field(default_factory=list)
    #: Which phase-B writes reached the server with a 200.
    acked_writes: list[bool] = field(default_factory=list)
    #: ``GET /keys`` payload and per-key ``GET /query`` payloads at the end.
    keys_payload: dict[str, Any] = field(default_factory=dict)
    answers: dict[str, dict[str, Any]] = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


async def _closed_loop(
    port: int,
    requests: list[bytes],
    counts: list[int],
    phases: Phases,
    spans: list[tuple[int, int, int, int]] | None,
) -> None:
    for raw, items in zip(requests, counts):
        phases.attempted += 1
        sent = perf_counter_ns()
        try:
            status, body = await send(port, raw)
        except RequestFailed as exc:
            phases.fail(f"ingest: {exc}")
            continue
        done = perf_counter_ns()
        if status != 200:
            phases.fail(f"ingest: {status} {body[:200]!r}")
        if spans is not None:
            spans.append((sent, done, items, len(raw)))


async def _sleep_until(due: int) -> None:
    delay = due - perf_counter_ns()
    if delay > 0:
        await asyncio.sleep(delay / 1e9)


async def _open_loop(port: int, inputs: Inputs, phases: Phases) -> None:
    write_ns = round(WRITE_EVERY_S * 1e9)
    read_ns = round(READ_EVERY_S * 1e9)
    start = perf_counter_ns() + 5_000_000
    read_end = start + len(inputs.reads) * read_ns
    give_up = read_end + round(PHASE_B_GRACE_S * 1e9)
    phases.acked_writes = [False] * len(inputs.phase_b)

    async def writer() -> None:
        ready = start
        for index, (raw, items) in enumerate(
            zip(inputs.phase_b, inputs.phase_b_items)
        ):
            due = start + index * write_ns
            await _sleep_until(due)
            phases.attempted += 1
            sent = perf_counter_ns()
            if sent > give_up:
                phases.fail("ingest: phase B overran, write not sent")
                continue
            phases.send_lag_ns.append(sent - max(due, ready))
            try:
                status, _ = await send(port, raw)
            except RequestFailed as exc:
                phases.fail(f"write: {exc}")
                ready = perf_counter_ns()
                continue
            ready = perf_counter_ns()
            phases.writes.append((due, sent, ready, items, status))
            if status == 200:
                phases.acked_writes[index] = True
            else:
                phases.fail(f"write: status {status}")

    async def reader() -> None:
        ready = start
        for index, (kind, raw) in enumerate(inputs.reads):
            due = start + index * read_ns
            await _sleep_until(due)
            phases.attempted += 1
            sent = perf_counter_ns()
            phases.send_lag_ns.append(sent - max(due, ready))
            try:
                status, _ = await send(port, raw)
            except RequestFailed as exc:
                phases.fail(f"read: {exc}")
                ready = perf_counter_ns()
                continue
            ready = perf_counter_ns()
            phases.reads.append((kind, due, sent, ready, status))
            if status not in (200, 404) or (kind == "keys" and status != 200):
                phases.fail(f"read: status {status}")

    await asyncio.gather(writer(), reader())
    phases.phase_b_window = (start, perf_counter_ns())


async def _collect_answers(port: int, phases: Phases) -> None:
    """The served state after the last write: ``/keys`` and every key."""
    phases.attempted += 1
    try:
        status, body = await send(port, request_bytes("GET", "/keys"))
    except RequestFailed as exc:
        phases.fail(f"verify /keys: {exc}")
        return
    if status != 200:
        phases.fail(f"verify /keys: status {status}")
        return
    phases.keys_payload = json.loads(body)
    for key in phases.keys_payload["keys"]:
        phases.attempted += 1
        try:
            status, body = await send(
                port, request_bytes("GET", f"/query/{key}")
            )
        except RequestFailed as exc:
            phases.fail(f"verify {key}: {exc}")
            continue
        if status != 200:
            phases.fail(f"verify {key}: status {status}")
            continue
        phases.answers[key] = json.loads(body)


async def drive(
    server: Server, inputs: Inputs, *, phase_a_only: bool = False
) -> Phases:
    """Warm-up, phase A, phase B and the final read-back of every key."""
    phases = Phases()
    port = server.port
    await _closed_loop(
        port, inputs.warmup, inputs.warmup_items, phases, None
    )
    start = perf_counter_ns()
    await _closed_loop(
        port, inputs.phase_a, inputs.phase_a_items, phases, phases.phase_a
    )
    phases.phase_a_window = (start, perf_counter_ns())
    if phase_a_only:
        return phases
    await _open_loop(port, inputs, phases)
    if inputs.sentinel is not None:
        await _closed_loop(port, [inputs.sentinel], [1], phases, None)
    await _collect_answers(port, phases)
    return phases
