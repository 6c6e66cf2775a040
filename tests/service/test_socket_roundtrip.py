"""Integration: the full stack over real sockets, in asyncio debug mode.

Everything here runs against live TCP connections -- the HTTP query
surface, the WebSocket endpoint, and the JSON-lines ingestion feed --
and every test asserts the loop is left clean: no leaked tasks, no
half-open servers.  Backpressure behavior (block / drop / shed) is
exercised against a deliberately tiny queue with no consumer running,
so the policies face a genuinely full queue.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
from typing import Awaitable, Callable

import pytest

from repro.core.decay import ExponentialDecay, PolynomialDecay
from repro.core.forward import ForwardDecay
from repro.service import api
from repro.service.api import WSClient, _frame, _mask, _read_frame, http_request
from repro.service.daemon import BackpressurePolicy, IngestDaemon
from repro.service.loadgen import ServiceHarness, keyed_trace
from repro.service.store import ServiceStore
from repro.streams.io import KeyedItem


def _run(main: Callable[[], Awaitable[None]]) -> None:
    """Drive an async test body with asyncio debug instrumentation on."""
    asyncio.run(main(), debug=True)


async def _assert_no_leaked_tasks() -> None:
    others = [
        task
        for task in asyncio.all_tasks()
        if task is not asyncio.current_task()
    ]
    assert others == [], f"leaked tasks: {others}"


class TestHttpSurface:
    def test_http_routes_roundtrip(self) -> None:
        async def main() -> None:
            async with ServiceHarness(ExponentialDecay(0.05)) as harness:
                host, port = harness.host, harness.port
                status, body = await http_request(host, port, "GET", "/healthz")
                assert (status, body["ok"]) == (200, True)

                status, body = await http_request(
                    host,
                    port,
                    "POST",
                    "/ingest",
                    {
                        "items": [
                            {"key": "a", "time": 0, "value": 2.0},
                            {"key": "b", "time": 3},
                        ],
                        "until": 5,
                    },
                )
                assert status == 200
                assert body == {"accepted": 2, "queued": True, "time": 5}

                status, body = await http_request(
                    host, port, "GET", "/query/a"
                )
                assert status == 200
                assert body["time"] == 5
                assert body["lower"] <= body["value"] <= body["upper"]

                status, body = await http_request(
                    host, port, "GET", "/query/ghost"
                )
                assert status == 404

                status, body = await http_request(host, port, "GET", "/keys")
                assert status == 200
                assert body["keys"] == ["a", "b"]
                assert body["stats"]["ingested_items"] == 2
                assert body["daemon"]["running"] is True
                assert body["key_stats"]["b"]["last_seen"] == 3

                # Known path, wrong method vs unknown path.
                status, _ = await http_request(host, port, "POST", "/healthz")
                assert status == 405
                status, _ = await http_request(host, port, "GET", "/nowhere")
                assert status == 404
                status, _ = await http_request(
                    host, port, "POST", "/ingest", {"items": [{"oops": 1}]}
                )
                assert status == 400
            await _assert_no_leaked_tasks()

        _run(main)

    def test_snapshot_restore_over_http(self) -> None:
        async def main() -> None:
            async with ServiceHarness(ExponentialDecay(0.05)) as harness:
                host, port = harness.host, harness.port
                await http_request(
                    host,
                    port,
                    "POST",
                    "/ingest",
                    {"items": [{"key": "a", "time": 2, "value": 3.0}]},
                )
                status, snapshot = await http_request(
                    host, port, "GET", "/snapshot"
                )
                assert status == 200
                _, before = await http_request(host, port, "GET", "/query/a")

                await http_request(
                    host,
                    port,
                    "POST",
                    "/ingest",
                    {"items": [{"key": "a", "time": 9, "value": 5.0}]},
                )
                status, body = await http_request(
                    host, port, "POST", "/restore", snapshot
                )
                assert (status, body["restored"]) == (200, True)
                _, after = await http_request(host, port, "GET", "/query/a")
                assert after == before
            await _assert_no_leaked_tasks()

        _run(main)


class TestWebSocket:
    def test_ws_query_stats_ingest(self) -> None:
        async def main() -> None:
            async with ServiceHarness(ExponentialDecay(0.05)) as harness:
                ws = await WSClient.connect(harness.host, harness.port)
                try:
                    reply = await ws.request(
                        {
                            "op": "ingest",
                            "items": [{"key": "a", "time": 1, "value": 2.0}],
                        }
                    )
                    assert reply == {"accepted": 1, "time": 1}
                    reply = await ws.request({"op": "query", "key": "a"})
                    assert reply["key"] == "a"
                    assert reply["lower"] <= reply["value"] <= reply["upper"]
                    reply = await ws.request({"op": "query", "key": "ghost"})
                    assert "error" in reply
                    reply = await ws.request({"op": "stats"})
                    assert reply["keys"] == ["a"]
                    reply = await ws.request({"op": "warp"})
                    assert "unknown op" in reply["error"]
                finally:
                    await ws.close()
                assert harness.server.ws_connections == 1
            await _assert_no_leaked_tasks()

        _run(main)


class TestFraming:
    def test_bad_content_length_is_answered_400_and_counted(self) -> None:
        async def main() -> None:
            async with ServiceHarness(ExponentialDecay(0.05)) as harness:
                for declared in ("abc", "-5", "1_0", str(64 * 1024 * 1024 + 1)):
                    reader, writer = await asyncio.open_connection(
                        harness.host, harness.port
                    )
                    writer.write(
                        f"POST /ingest HTTP/1.1\r\nHost: x\r\n"
                        f"Content-Length: {declared}\r\n\r\n".encode()
                    )
                    await writer.drain()
                    raw = await asyncio.wait_for(reader.read(), 5.0)
                    writer.close()
                    await writer.wait_closed()
                    head, _, body = raw.partition(b"\r\n\r\n")
                    assert head.startswith(b"HTTP/1.1 400"), raw
                    assert "Content-Length" in json.loads(body)["error"]
                assert harness.server.bad_requests == 4
                assert harness.server.requests == 0
                status, _ = await http_request(
                    harness.host, harness.port, "GET", "/healthz"
                )
                assert status == 200
                assert harness.server.requests == 1
            await _assert_no_leaked_tasks()

        _run(main)

    def test_stalled_request_is_closed_and_counted(self, monkeypatch) -> None:
        # One client stalls inside the head, one inside the body; both
        # are closed once the read timeout passes, and nothing is left
        # running after stop().
        monkeypatch.setattr(api, "_READ_TIMEOUT", 0.2)

        async def main() -> None:
            async with ServiceHarness(ExponentialDecay(0.05)) as harness:
                for partial in (
                    b"GET /heal",
                    b"POST /ingest HTTP/1.1\r\nContent-Length: 9\r\n\r\n{",
                ):
                    reader, writer = await asyncio.open_connection(
                        harness.host, harness.port
                    )
                    writer.write(partial)
                    await writer.drain()
                    assert await asyncio.wait_for(reader.read(), 5.0) == b""
                    writer.close()
                    await writer.wait_closed()
                assert harness.server.read_timeouts == 2
                assert harness.server.requests == 0
            await _assert_no_leaked_tasks()

        _run(main)

    def test_oversized_ws_frame_is_refused_with_1009(self) -> None:
        async def main() -> None:
            async with ServiceHarness(ExponentialDecay(0.05)) as harness:
                ws = await WSClient.connect(harness.host, harness.port)
                # A masked text frame header claiming 2**40 bytes; the
                # server refuses it before reading the mask or payload.
                ws._writer.write(
                    bytes([0x81, 0x80 | 127]) + (1 << 40).to_bytes(8, "big")
                )
                await ws._writer.drain()
                opcode, payload = await asyncio.wait_for(
                    _read_frame(ws._reader), 5.0
                )
                assert (opcode, payload) == (0x8, (1009).to_bytes(2, "big"))
                assert await asyncio.wait_for(ws._reader.read(), 5.0) == b""
                ws._writer.close()
                await ws._writer.wait_closed()
            await _assert_no_leaked_tasks()

        _run(main)

    def test_mask_is_the_per_byte_xor(self) -> None:
        key = b"\x37\xfa\x21\x3d"
        for n in range(10):
            payload = bytes(range(200, 200 + n))
            per_byte = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
            assert _mask(payload, key) == per_byte
            assert _mask(per_byte, key) == payload
        frame = _frame(0x1, b"hello", mask=key)
        assert frame[-5:] == _mask(b"hello", key)


class TestTcpFeed:
    def test_json_lines_feed_counts_bad_lines(self) -> None:
        async def main() -> None:
            harness = ServiceHarness(ExponentialDecay(0.05), serve_feed=True)
            await harness.start()
            try:
                reader, writer = await asyncio.open_connection(
                    harness.feed_host, harness.feed_port
                )
                lines = [
                    json.dumps({"key": "a", "time": 0, "value": 1.0}),
                    "this is not json",
                    json.dumps({"key": "a", "time": 4}),  # default value
                    json.dumps({"time": 5}),  # missing key
                ]
                writer.write(("\n".join(lines) + "\n").encode())
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                await asyncio.wait_for(
                    _feed_settled(harness.daemon, 2), timeout=5.0
                )
                await harness.daemon.drain()
                assert harness.daemon.bad_lines == 2
                assert harness.store.ingested_items == 2
                assert harness.store.query("a").value > 0.0
            finally:
                await harness.stop()
            await _assert_no_leaked_tasks()

        _run(main)


class TestStop:
    def test_stop_closes_every_connection_it_serves(self) -> None:
        # An open WebSocket, a half-sent request and an open feed: once
        # both servers have stopped, no handler is left and every client
        # reads end-of-stream; a line sent afterwards reaches no queue.
        line = json.dumps({"key": "a", "time": 1, "value": 2.0}).encode()

        async def main() -> None:
            harness = ServiceHarness(ExponentialDecay(0.05), serve_feed=True)
            await harness.start()
            ws = await WSClient.connect(harness.host, harness.port)
            assert (await ws.request({"op": "stats"}))["keys"] == []
            half_reader, half_writer = await asyncio.open_connection(
                harness.host, harness.port
            )
            half_writer.write(b"GET /heal")
            await half_writer.drain()
            feed_reader, feed_writer = await asyncio.open_connection(
                harness.feed_host, harness.feed_port
            )
            feed_writer.write(line + b"\n")
            await feed_writer.drain()
            await asyncio.wait_for(_feed_settled(harness.daemon, 1), 5.0)
            await harness.stop()
            await _assert_no_leaked_tasks()
            for reader in (ws._reader, half_reader, feed_reader):
                assert await asyncio.wait_for(reader.read(), 5.0) == b""
            with contextlib.suppress(ConnectionError):
                feed_writer.write(line + b"\n")
                await feed_writer.drain()
            await asyncio.sleep(0.1)
            assert harness.daemon.stats()["queue_depth"] == 0
            assert harness.daemon.items_folded == 1
            assert harness.store.query("a").value == 2.0
            for writer in (ws._writer, half_writer, feed_writer):
                writer.close()
                with contextlib.suppress(ConnectionError):
                    await writer.wait_closed()
            await _assert_no_leaked_tasks()

        _run(main)


    def test_stop_without_a_consumer_ledgers_a_blocked_feed(self) -> None:
        # No consumer drains a one-slot queue, so the feed handler blocks
        # on its second line; stop() still returns, with every line sent
        # on the ledger and no task left.
        async def main() -> None:
            store = ServiceStore(ExponentialDecay(0.05))
            daemon = IngestDaemon(store, maxsize=1)
            host, port = await daemon.serve_tcp()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"".join(
                json.dumps({"key": "a", "time": t}).encode() + b"\n"
                for t in range(3)
            ))
            await writer.drain()
            while not daemon.stats()["queue_depth"]:
                await asyncio.sleep(0.01)
            await asyncio.wait_for(daemon.stop(drain=False), 5.0)
            await _assert_no_leaked_tasks()
            assert daemon.backpressure.dropped_count == 3
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()

        _run(main)


class TestNonFiniteWeights:
    @pytest.mark.parametrize(
        "decay",
        [ExponentialDecay(0.05), PolynomialDecay(1.0), ForwardDecay("exp", 0.05)],
        ids=["ewma", "wbmh", "fwd"],
    )
    def test_rejected_on_every_surface_and_key_still_answers(
        self, decay
    ) -> None:
        async def main() -> None:
            harness = ServiceHarness(decay, serve_feed=True)
            await harness.start()
            try:
                host, port = harness.host, harness.port
                await http_request(
                    host, port, "POST", "/ingest",
                    {"items": [{"key": "a", "time": 1, "value": 2.0}]},
                )
                await harness.daemon.drain()
                _, before = await http_request(host, port, "GET", "/snapshot")
                _, answer = await http_request(host, port, "GET", "/query/a")

                ws = await WSClient.connect(host, port)
                try:
                    for bad in (math.nan, math.inf):
                        row = {"key": "a", "time": 2, "value": bad}
                        status, body = await http_request(
                            host, port, "POST", "/ingest", {"items": [row]}
                        )
                        assert status == 400, body
                        reply = await ws.request({"op": "ingest", "items": [row]})
                        assert "InvalidParameterError" in reply["error"]
                finally:
                    await ws.close()

                _, writer = await asyncio.open_connection(
                    harness.feed_host, harness.feed_port
                )
                writer.write(
                    b'{"key": "a", "time": 2, "value": NaN}\n'
                    b'{"key": "a", "time": 2, "value": Infinity}\n'
                )
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                await asyncio.wait_for(_bad_lines(harness.daemon, 2), 5.0)
                await harness.daemon.drain()

                _, after = await http_request(host, port, "GET", "/snapshot")
                assert after == before
                status, again = await http_request(
                    host, port, "GET", "/query/a"
                )
                assert (status, again) == (200, answer)
                assert harness.daemon.fold_errors == 0
            finally:
                await harness.stop()
            await _assert_no_leaked_tasks()

        _run(main)


async def _bad_lines(daemon: IngestDaemon, expected: int) -> None:
    while daemon.bad_lines < expected:
        await asyncio.sleep(0.01)


async def _feed_settled(daemon: IngestDaemon, expected_items: int) -> None:
    while daemon.items_folded + daemon.stats()["queue_depth"] < expected_items:
        await asyncio.sleep(0.01)


class TestBackpressure:
    @staticmethod
    def _items(n: int) -> list[KeyedItem]:
        return [KeyedItem("k", t, float(t + 1)) for t in range(n)]

    def test_drop_policy_rejects_new_items_when_full(self) -> None:
        async def main() -> None:
            store = ServiceStore(ExponentialDecay(0.05))
            daemon = IngestDaemon(
                store, maxsize=3, backpressure=BackpressurePolicy.dropping()
            )
            # No consumer yet: the queue genuinely fills.
            admitted = await daemon.submit_many(self._items(5))
            assert admitted == 3
            assert daemon.backpressure.dropped_count == 2
            # The two newest items (values 4.0, 5.0) were the ones refused.
            assert daemon.backpressure.dropped_weight == 9.0
            await daemon.start()
            await daemon.stop()
            assert store.ingested_items == 3
            await _assert_no_leaked_tasks()

        _run(main)

    def test_shed_policy_evicts_oldest_and_admits_newest(self) -> None:
        async def main() -> None:
            store = ServiceStore(ExponentialDecay(0.05))
            daemon = IngestDaemon(
                store, maxsize=3, backpressure=BackpressurePolicy.shedding()
            )
            for item in self._items(5):
                assert await daemon.submit(item) is True
            assert daemon.backpressure.dropped_count == 2
            # The two oldest items (values 1.0, 2.0) were shed.
            assert daemon.backpressure.dropped_weight == 3.0
            await daemon.start()
            await daemon.stop()
            # The freshest three (times 2, 3, 4) reached the store.
            assert store.ingested_items == 3
            assert store.time == 4
            await _assert_no_leaked_tasks()

        _run(main)

    def test_stop_without_drain_ledgers_the_leftovers(self) -> None:
        async def main() -> None:
            store = ServiceStore(ExponentialDecay(0.05))
            daemon = IngestDaemon(store, maxsize=16)
            await daemon.submit_many(self._items(4))
            await daemon.stop(drain=False)
            assert store.ingested_items == 0
            assert daemon.backpressure.dropped_count == 4
            await _assert_no_leaked_tasks()

        _run(main)

    def test_stats_shape(self) -> None:
        async def main() -> None:
            store = ServiceStore(ExponentialDecay(0.05))
            daemon = IngestDaemon(store, maxsize=8, batch_max=4)
            await daemon.start()
            await daemon.submit_many(self._items(6))
            await daemon.drain()
            stats = daemon.stats()
            assert stats["running"] is True
            assert stats["queue_depth"] == 0
            assert stats["items_folded"] == 6
            assert stats["batches_folded"] >= 2  # batch_max caps at 4
            assert stats["fold_errors"] == 0
            await daemon.stop()
            assert daemon.stats()["running"] is False
            await _assert_no_leaked_tasks()

        _run(main)

    def test_batch_max_sets_the_fold_count(self) -> None:
        # Ten items queue before the consumer runs, so it drains them in
        # batch_max-sized batches: 4 + 4 + 2, one store fold each.
        async def main() -> None:
            store = ServiceStore(ExponentialDecay(0.05))
            folds: list[int] = []
            fold = store.observe_batch

            def counted(items, **kwargs):
                folds.append(len(items))
                fold(items, **kwargs)

            store.observe_batch = counted  # type: ignore[method-assign]
            daemon = IngestDaemon(store, maxsize=16, batch_max=4)
            await daemon.start()
            await daemon.submit_many(self._items(10))
            await daemon.drain()
            assert folds == [4, 4, 2]
            assert daemon.stats()["batches_folded"] == 3
            await daemon.stop()
            await _assert_no_leaked_tasks()

        _run(main)

    def test_fold_error_is_counted_not_fatal(self) -> None:
        async def main() -> None:
            store = ServiceStore(ExponentialDecay(0.05))
            daemon = IngestDaemon(store, maxsize=8)
            await daemon.start()
            await daemon.submit(KeyedItem("k", 10, 1.0))
            await daemon.drain()
            # A late item under the default raise policy: the batch fails,
            # the consumer survives, the error is surfaced in stats.
            await daemon.submit(KeyedItem("k", 3, 1.0))
            await daemon.drain()
            await daemon.submit(KeyedItem("k", 11, 2.0))
            await daemon.drain()
            stats = daemon.stats()
            assert stats["fold_errors"] == 1
            assert "TimeOrderError" in str(stats["last_fold_error"])
            assert store.time == 11
            await daemon.stop()
            await _assert_no_leaked_tasks()

        _run(main)


class TestLoadgen:
    def test_keyed_trace_is_deterministic_and_sorted(self) -> None:
        a = keyed_trace(200, 16, seed=5)
        b = keyed_trace(200, 16, seed=5)
        assert a == b
        assert all(
            earlier.time <= later.time for earlier, later in zip(a, a[1:])
        )
        # Zipf skew: the hottest key sees more traffic than the coldest.
        counts: dict[str, int] = {}
        for item in a:
            counts[item.key] = counts.get(item.key, 0) + 1
        assert counts["k0000"] > counts.get("k0015", 0)

    def test_harness_start_is_idempotent(self) -> None:
        async def main() -> None:
            harness = ServiceHarness(ExponentialDecay(0.05))
            await harness.start()
            await harness.start()
            status, _ = await http_request(
                harness.host, harness.port, "GET", "/healthz"
            )
            assert status == 200
            await harness.stop()
            await harness.stop()
            await _assert_no_leaked_tasks()

        _run(main)
