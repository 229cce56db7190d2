"""The one HTTP/1.1 layer of the service: server loop, codecs and client.

A minimal, dependency-free HTTP/1.1 subset — JSON bodies,
``Content-Length`` framing, keep-alive — shared by every process that
speaks the wire: the daemon (:mod:`~repro.service.server`), the shard
router (:mod:`~repro.service.router`) and the load generator
(:mod:`~repro.service.loadgen`).  It owns:

* :func:`read_request` — the only request-head parser; a malformed
  request line, a bad ``Content-Length`` or an oversized body raise
  :class:`HttpError` instead of escaping the connection handler,
* :func:`encode_request` / :func:`write_response` — the wire encoders,
* :class:`HttpServer` — the keep-alive connection loop, its 503 once
  stopping has begun, and closing idle connections on stop,
* :class:`HttpClient` / :func:`request_once` — the keep-alive client and
  the only response-head parser.

Nothing here knows the API: what a request means, how an error body is
shaped and which route exists live in :mod:`~repro.service.protocol`.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Awaitable, Callable, NamedTuple

__all__ = [
    "MAX_BODY",
    "STATUS_TEXT",
    "HttpError",
    "Request",
    "Raw",
    "read_request",
    "encode_request",
    "write_response",
    "HttpServer",
    "HttpClient",
    "request_once",
]

MAX_BODY = 16 * 1024 * 1024  # refuse absurd payloads before buffering them

STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """A request the HTTP layer refuses before any handler sees it.

    ``code`` is the machine-readable error code of the ``/v1`` error
    schema; ``path`` is the request target when the head got that far
    (the answer is shaped for that path's wire dialect).
    """

    def __init__(self, status: int, code: str, message: str, path: str = ""):
        super().__init__(message)
        self.status = status
        self.code = code
        self.path = path


class Request(NamedTuple):
    method: str
    path: str
    headers: dict[str, str]
    body: bytes


class Raw(NamedTuple):
    """An encoded response body and its content type."""

    data: bytes
    content_type: str


def _parse_head(head: bytes) -> tuple[list[str], dict[str, str]]:
    """Split one message head into its start line and lower-cased headers."""
    lines = head.decode("latin-1").split("\r\n")
    headers: dict[str, str] = {}
    for raw in lines[1:]:
        if ":" in raw:
            name, _, value = raw.partition(":")
            headers[name.strip().lower()] = value.strip()
    return lines[0].split(), headers


def _content_length(headers: dict[str, str]) -> int | None:
    """The declared body length; None unless it is a plain decimal."""
    text = headers.get("content-length", "") or "0"
    return int(text) if text.isascii() and text.isdigit() else None


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request; None on clean EOF between keep-alive requests.

    One ``readuntil`` for the whole head: fewer event-loop round trips per
    request than line-by-line parsing (this is the serving hot loop).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise
    start, headers = _parse_head(head)
    if len(start) != 3:
        raise HttpError(400, "bad_request", "malformed request line")
    method, target, _version = start
    length = _content_length(headers)
    if length is None:
        raise HttpError(400, "bad_request", "invalid Content-Length", target)
    if length > MAX_BODY:
        raise HttpError(413, "payload_too_large", "body too large", target)
    body = await reader.readexactly(length) if length else b""
    return Request(method.upper(), target, headers, body)


def encode_request(
    method: str,
    path: str,
    body: bytes = b"",
    headers: dict | None = None,
    host: str = "127.0.0.1",
) -> bytes:
    """Serialize one request with a JSON content type to wire bytes."""
    extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        "\r\n"
    ).encode("latin-1")
    return head + body


async def write_response(
    writer: asyncio.StreamWriter, response: tuple, keep_alive: bool
) -> None:
    """Write ``(status, Raw body, extra headers or None)``."""
    status, body, extra_headers = response
    extra = "".join(f"{k}: {v}\r\n" for k, v in (extra_headers or {}).items())
    head = (
        f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {body.content_type}\r\n"
        f"Content-Length: {len(body.data)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"{extra}"
        "\r\n"
    ).encode("latin-1")
    writer.write(head + body.data)
    await writer.drain()


class HttpServer:
    """One listen socket running the keep-alive connection loop.

    ``handle(request)`` answers each parsed request with ``(status,
    Raw body, extra headers or None)``.  ``reject(status, code, message,
    path)`` builds the answer to a request the loop refuses itself: an
    :class:`HttpError` head, or any request once :meth:`close` has begun
    (503 ``shutting_down``); the connection closes after it.
    ``before_write()``, when given, runs before each answer to a parsed
    request; returning False severs the connection instead of writing
    the answer (the daemon's chaos drop hook).
    """

    def __init__(
        self,
        handle: Callable[[Request], Awaitable[tuple]],
        reject: Callable[[int, str, str, str], tuple],
        before_write: Callable[[], Awaitable[bool]] | None = None,
    ):
        self._handle = handle
        self._reject = reject
        self._before_write = before_write
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self.closing = False

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice)."""
        if self._server is None:
            raise RuntimeError("not listening")
        return self._server.sockets[0].getsockname()[1]

    async def start(self, host: str, port: int) -> None:
        self._server = await asyncio.start_server(self._serve, host, port)

    async def close(self) -> None:
        """Stop accepting; requests still arriving are answered 503."""
        self.closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def close_connections(self, timeout: float = 1.0) -> None:
        """Close idle keep-alive connections and forget the listener.

        Waits (bounded) for the loop to deliver the EOFs, so
        per-connection tasks unwind cleanly instead of being cancelled
        mid-read at loop teardown.
        """
        for writer in list(self._connections):
            writer.close()
        deadline = time.monotonic() + timeout
        while self._connections and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        self._server = None

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    response = self._reject(exc.status, exc.code, str(exc), exc.path)
                    await write_response(writer, response, False)
                    break
                if request is None:
                    break
                keep_alive = (
                    request.headers.get("connection", "").lower() != "close"
                    and not self.closing
                )
                if self.closing:
                    response = self._reject(
                        503, "shutting_down", "shutting down", request.path
                    )
                else:
                    response = await self._handle(request)
                if self._before_write is not None and not await self._before_write():
                    break
                await write_response(writer, response, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass  # client went away mid-request
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass  # teardown only: nothing left to do for this connection


class HttpClient:
    """One persistent HTTP/1.1 connection speaking JSON."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    def encode_request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict | None = None,
    ) -> bytes:
        """Serialize one request to wire bytes (reusable across sends)."""
        body = json.dumps(payload).encode() if payload is not None else b""
        return encode_request(
            method, path, body, headers, f"{self.host}:{self.port}"
        )

    async def request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict | None = None,
    ) -> tuple[int, dict]:
        """Issue one request; reconnects transparently if the peer closed."""
        status, _, body = await self.request_full(method, path, payload, headers)
        return status, body

    async def request_full(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict | None = None,
    ) -> tuple[int, dict, dict]:
        """Like :meth:`request` but also returns the response headers.

        For callers that assert on wire metadata — the ``Deprecation``
        header of the legacy shims, content types, shard labels.
        """
        status, resp_headers, data = await self.request_raw(
            self.encode_request(method, path, payload, headers)
        )
        return status, resp_headers, self._decode_body(resp_headers, data)

    async def request_raw(self, data: bytes) -> tuple[int, dict, bytes]:
        """Send pre-encoded bytes; return (status, headers, raw body bytes).

        The hot path of loadgen (requests encoded once, reused) and of the
        router (shard response bodies pass through byte-for-byte, never
        re-serialized).  Reconnects transparently once if the peer closed
        the keep-alive connection.
        """
        for attempt in (1, 2):
            if self._writer is None:
                await self.connect()
            try:
                self._writer.write(data)
                await self._writer.drain()
                return await self._read_response()
            except (ConnectionError, asyncio.IncompleteReadError):
                await self.close()
                if attempt == 2:
                    raise

    @staticmethod
    def _decode_body(headers: dict, data: bytes) -> dict:
        if not data:
            return {}
        # non-JSON bodies (e.g. a Prometheus exposition) come back raw
        if "json" in headers.get("content-type", "application/json"):
            return json.loads(data.decode())
        return {"text": data.decode()}

    async def _read_response(self) -> tuple[int, dict, bytes]:
        try:
            head = await self._reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            raise ConnectionError("server closed connection") from exc
        start, headers = _parse_head(head)
        status = int(start[1])
        length = _content_length(headers)
        if length is None:
            raise ValueError(f"invalid Content-Length {headers['content-length']!r}")
        data = await self._reader.readexactly(length) if length else b""
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, headers, data


async def request_once(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: dict | None = None,
    headers: dict | None = None,
) -> tuple[int, dict]:
    """One-shot request on a throwaway connection (smoke tests)."""
    client = HttpClient(host, port)
    await client.connect()
    try:
        return await client.request(method, path, payload, headers)
    finally:
        await client.close()
