"""HTTP + WebSocket query surface over a :class:`ServiceStore`.

Stdlib-only (asyncio streams, no new hard deps): a hand-rolled HTTP/1.1
responder plus a minimal RFC 6455 WebSocket endpoint, enough to serve
the reporting-loop query model -- Bolot et al.'s continual observation
setting -- against the live store.

Routes:

* ``GET /healthz``          -- liveness + store clock.
* ``GET /query/{key}``      -- the key's certified estimate
  (``{"key", "time", "value", "lower", "upper"}``), 404 for unknown or
  TTL-evicted keys.
* ``GET /keys``             -- key list, store ledgers (ingested /
  evicted / dropped counts and weights), per-key staleness, daemon
  queue stats.
* ``POST /ingest``          -- ``{"items": [{"key", "time", "value"},
  ...], "until": optional}``; routed through the daemon queue (and
  *drained* before responding, so a subsequent query reflects the batch
  -- the synchronous contract the differential harness asserts on) or
  folded directly when no daemon is attached.
* ``GET /snapshot``         -- ``store.to_dict()`` via
  :mod:`repro.serialize`.
* ``POST /restore``         -- replace the store state in place from a
  snapshot.
* ``GET /ws``               -- WebSocket: JSON request/response frames
  with ``{"op": "query" | "stats" | "ingest", ...}``.

Connections are one-request HTTP (``Connection: close``) except the
WebSocket, which stays open for its frame loop.  Framing is bounded: a
request whose ``Content-Length`` is not a decimal integer or exceeds
64 MiB is answered 400 and counted on ``bad_requests``, and a WebSocket
frame over the same cap is refused with close code 1009 before its
payload is read.  A client that has not sent its whole request within
30 s is closed and counted on ``read_timeouts``; a WebSocket or the TCP
feed may idle as long as it likes.  ``stop()`` closes the listener,
then every connection still open (a WebSocket, a half-sent request),
and returns once their handlers have.  The module also ships
the matching asyncio client helpers (:func:`http_request`,
:class:`WSClient`) used by the test harness and the latency benchmark.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import json
from typing import Any

from repro.core.errors import ReproError
from repro.service.daemon import IngestDaemon, Serving, close_served
from repro.service.store import StoreFront
from repro.streams.io import KeyedItem

__all__ = ["ServiceServer", "http_request", "WSClient"]

_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"
_MAX_HEADER = 16 * 1024
#: Cap on an HTTP body and on a WebSocket frame payload.
_MAX_BODY = 64 * 1024 * 1024
#: Seconds a client has to send a request's head and body.
_READ_TIMEOUT = 30.0
#: RFC 6455 close code 1009: "message too big".
_CLOSE_TOO_BIG = (1009).to_bytes(2, "big")


class _BadRequest(Exception):
    """A request the server answers with 400 (and counts)."""


class _FrameTooLarge(Exception):
    """A WebSocket frame header claiming more than ``_MAX_BODY`` bytes."""


def _ws_accept(key: str) -> str:
    # Imported here: only a WebSocket upgrade needs OpenSSL's hash module,
    # so a server that never upgrades a socket never loads it.
    import hashlib

    digest = hashlib.sha1((key + _WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def _json_response(status: int, payload: dict[str, Any]) -> bytes:
    reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
               405: "Method Not Allowed", 500: "Internal Server Error"}
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


def _mask(payload: bytes, mask: bytes) -> bytes:
    """XOR ``payload`` with the repeating 4-byte ``mask`` (RFC 6455 5.3),
    as one integer XOR rather than a per-byte loop.  Its own inverse."""
    n = len(payload)
    key = (mask * (n // 4 + 1))[:n]
    return (
        int.from_bytes(payload, "big") ^ int.from_bytes(key, "big")
    ).to_bytes(n, "big")


async def _read_frame(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    """One WebSocket frame -> (opcode, unmasked payload).

    Raises :class:`_FrameTooLarge` from the header alone, so an oversized
    frame's payload is never read.
    """
    head = await reader.readexactly(2)
    opcode = head[0] & 0x0F
    masked = bool(head[1] & 0x80)
    length = head[1] & 0x7F
    if length == 126:
        length = int.from_bytes(await reader.readexactly(2), "big")
    elif length == 127:
        length = int.from_bytes(await reader.readexactly(8), "big")
    if length > _MAX_BODY:
        raise _FrameTooLarge(length)
    mask = await reader.readexactly(4) if masked else b""
    payload = await reader.readexactly(length)
    return opcode, _mask(payload, mask) if masked else payload


def _frame(opcode: int, payload: bytes, *, mask: bytes | None = None) -> bytes:
    """Encode one FIN frame (server frames unmasked, client frames masked)."""
    head = bytearray([0x80 | opcode])
    mask_bit = 0x80 if mask is not None else 0
    if len(payload) < 126:
        head.append(mask_bit | len(payload))
    elif len(payload) < 1 << 16:
        head.append(mask_bit | 126)
        head += len(payload).to_bytes(2, "big")
    else:
        head.append(mask_bit | 127)
        head += len(payload).to_bytes(8, "big")
    if mask is not None:
        head += mask
        payload = _mask(payload, mask)
    return bytes(head) + payload


class ServiceServer:
    """The query surface; optionally fronts an :class:`IngestDaemon`."""

    def __init__(
        self, store: StoreFront, daemon: IngestDaemon | None = None
    ) -> None:
        self.store = store
        self.daemon = daemon
        self._server: asyncio.AbstractServer | None = None
        self._serving: Serving = {}
        self.requests = 0
        #: Requests refused for their framing (answered 400).
        self.bad_requests = 0
        #: Connections closed because the request stalled past
        #: ``_READ_TIMEOUT``.
        self.read_timeouts = 0
        self.ws_connections = 0

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind and serve; returns the bound (host, port) -- port 0 picks."""
        self._server = await asyncio.start_server(self._handle, host, port)
        sock_host, sock_port = self._server.sockets[0].getsockname()[:2]
        return str(sock_host), int(sock_port)

    async def stop(self) -> None:
        """Close the listener and every open connection; return once no
        handler is left running."""
        if self._server is not None:
            self._server.close()
            await close_served(self._serving)
            await self._server.wait_closed()
            self._server = None

    # ----------------------------------------------------------- routing

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._serving[writer] = asyncio.current_task()
        try:
            try:
                request = await asyncio.wait_for(
                    self._read_request(reader), _READ_TIMEOUT
                )
            except asyncio.TimeoutError:
                self.read_timeouts += 1
                return
            if request is None:
                return
            method, path, headers, body = request
            self.requests += 1
            if path == "/ws" and "websocket" in headers.get(
                "upgrade", ""
            ).lower():
                await self._serve_websocket(reader, writer, headers)
                return
            writer.write(await self._respond(method, path, body))
            await writer.drain()
        except _BadRequest as exc:
            self.bad_requests += 1
            writer.write(_json_response(400, {"error": str(exc)}))
            with contextlib.suppress(ConnectionError, OSError):
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            # Half-open or reset connections are routine for a server;
            # the request never completed, so there is nothing to answer.
            return
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()
            del self._serving[writer]

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        """(method, path, headers, body); ``None`` for a connection that
        never sent a request.  Raises :class:`_BadRequest` on a
        ``Content-Length`` that is not a decimal integer within the cap."""
        try:
            raw = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            return None
        except asyncio.IncompleteReadError:
            return None
        if len(raw) > _MAX_HEADER:
            return None
        lines = raw.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            return None
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise _BadRequest(f"Content-Length {declared!r} is not a length")
        length = int(declared)
        if length > _MAX_BODY:
            raise _BadRequest(
                f"Content-Length {length} exceeds the {_MAX_BODY}-byte cap"
            )
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _respond(self, method: str, path: str, body: bytes) -> bytes:
        try:
            if method == "GET" and path == "/healthz":
                return _json_response(
                    200, {"ok": True, "time": self.store.time}
                )
            if method == "GET" and path.startswith("/query/"):
                return self._query(path[len("/query/"):])
            if method == "GET" and path == "/keys":
                return _json_response(200, self._keys_payload())
            if method == "POST" and path == "/ingest":
                accepted = await self._ingest(json.loads(body.decode("utf-8")))
                return _json_response(200, {
                    "accepted": accepted,
                    "queued": self.daemon is not None,
                    "time": self.store.time,
                })
            if method == "GET" and path == "/snapshot":
                return _json_response(200, self.store.to_dict())
            if method == "POST" and path == "/restore":
                self.store.restore(json.loads(body.decode("utf-8")))
                return _json_response(
                    200, {"restored": True, "time": self.store.time}
                )
        except (ReproError, ValueError, KeyError, TypeError) as exc:
            return _json_response(400, {"error": repr(exc)})
        return _json_response(
            405 if path in ("/ingest", "/restore", "/keys", "/snapshot",
                            "/healthz") or path.startswith("/query/")
            else 404,
            {"error": f"no route {method} {path}"},
        )

    def _query(self, key: str) -> bytes:
        try:
            return _json_response(200, self._answer(key))
        except KeyError:
            return _json_response(
                404, {"error": f"unknown key {key!r}", "key": key}
            )

    def _answer(self, key: str) -> dict[str, Any]:
        """The HTTP and WS answer to a query; ``KeyError`` if absent."""
        estimate = self.store.query(key)
        return {
            "key": key,
            "time": self.store.time,
            "value": estimate.value,
            "lower": estimate.lower,
            "upper": estimate.upper,
        }

    def _keys_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "keys": self.store.keys(),
            "stats": self.store.stats(),
            "key_stats": self.store.key_stats(),
        }
        if self.daemon is not None:
            payload["daemon"] = self.daemon.stats()
        return payload

    # -------------------------------------------------------- ws endpoint

    async def _serve_websocket(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        headers: dict[str, str],
    ) -> None:
        key = headers.get("sec-websocket-key", "")
        if not key:
            writer.write(_json_response(400, {"error": "missing ws key"}))
            await writer.drain()
            return
        self.ws_connections += 1
        writer.write(
            (
                "HTTP/1.1 101 Switching Protocols\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Accept: {_ws_accept(key)}\r\n\r\n"
            ).encode("ascii")
        )
        await writer.drain()
        while True:
            try:
                opcode, payload = await _read_frame(reader)
            except _FrameTooLarge:
                writer.write(_frame(0x8, _CLOSE_TOO_BIG))
                await writer.drain()
                return
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return
            if opcode == 0x8:  # close
                writer.write(_frame(0x8, payload[:2]))
                await writer.drain()
                return
            if opcode == 0x9:  # ping
                writer.write(_frame(0xA, payload))
                await writer.drain()
                continue
            if opcode != 0x1:  # only text frames carry requests
                continue
            response = await self._ws_dispatch(payload)
            writer.write(_frame(0x1, json.dumps(response).encode("utf-8")))
            await writer.drain()

    async def _ws_dispatch(self, payload: bytes) -> dict[str, Any]:
        try:
            request = json.loads(payload.decode("utf-8"))
            op = request.get("op")
            if op == "query":
                key = str(request["key"])
                try:
                    return self._answer(key)
                except KeyError:
                    return {"error": f"unknown key {key!r}", "key": key}
            if op == "stats":
                return self._keys_payload()
            if op == "ingest":
                accepted = await self._ingest(request)
                return {"accepted": accepted, "time": self.store.time}
            return {"error": f"unknown op {op!r}"}
        except (ReproError, ValueError, KeyError, TypeError) as exc:
            return {"error": repr(exc)}

    async def _ingest(self, request: dict[str, Any]) -> int:
        """Parse an ingest request's rows and ingest them; the row count."""
        items = [
            KeyedItem(row["key"], row["time"], row.get("value", 1.0))
            for row in request.get("items", [])
        ]
        until = request.get("until")
        until_t = None if until is None else int(until)
        if self.daemon is None:
            self.store.observe_batch(items, until=until_t)
        else:
            await self.daemon.submit_many(items)
            await self.daemon.drain()
            if until_t is not None:
                self.store.advance_to(until_t)
        return len(items)


# ------------------------------------------------------------------ client

async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: dict[str, Any] | None = None,
) -> tuple[int, dict[str, Any]]:
    """One-shot JSON-over-HTTP client; returns (status, parsed body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("ascii") + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await writer.wait_closed()
    header, _, rest = raw.partition(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    return status, json.loads(rest.decode("utf-8")) if rest else {}


class WSClient:
    """Minimal WebSocket client for the ``/ws`` endpoint (tests, bench)."""

    #: Client frames must be masked (RFC 6455 5.3); the masking key guards
    #: proxies, not secrecy, and a fixed key keeps the harness replayable.
    _MASK = b"\x37\xfa\x21\x3d"

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "WSClient":
        reader, writer = await asyncio.open_connection(host, port)
        nonce = base64.b64encode(b"repro-service-ws").decode("ascii")
        writer.write(
            (
                f"GET /ws HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {nonce}\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
            ).encode("ascii")
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        if b"101" not in head.split(b"\r\n", 1)[0]:
            writer.close()
            raise ConnectionError(f"websocket handshake refused: {head!r}")
        return cls(reader, writer)

    async def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Send one JSON request frame and await the JSON response frame."""
        self._writer.write(
            _frame(
                0x1, json.dumps(payload).encode("utf-8"), mask=self._MASK
            )
        )
        await self._writer.drain()
        while True:
            opcode, data = await _read_frame(self._reader)
            if opcode == 0x1:
                result: dict[str, Any] = json.loads(data.decode("utf-8"))
                return result
            if opcode == 0x8:
                raise ConnectionError("server closed the websocket")

    async def close(self) -> None:
        self._writer.write(_frame(0x8, b"\x03\xe8", mask=self._MASK))
        await self._writer.drain()
        with contextlib.suppress(
            asyncio.IncompleteReadError, ConnectionError, OSError
        ):
            await _read_frame(self._reader)  # server's close echo
        self._writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await self._writer.wait_closed()
