"""Minimal HTTP/1.1 over asyncio streams — just enough for the serving API.

The subsystem is deliberately dependency-free: requests are parsed straight
off an :class:`asyncio.StreamReader` and responses written to the
:class:`asyncio.StreamWriter`, stdlib only.  Supported surface:

* request line + headers (size-capped), bodies via ``Content-Length``;
* ``Connection: keep-alive`` semantics (HTTP/1.1 default, ``close`` honoured);
* fixed-length responses and ``Transfer-Encoding: chunked`` streaming (the
  JSONL rule streams);
* ``Expect: 100-continue`` (the interim response is sent before the body is
  read, so ``curl`` uploads work out of the box).

Unsupported mechanics are refused loudly, never mis-parsed: chunked *request*
bodies get 411 (length required), absurd request lines / header blocks get
400/431.  Parse failures raise :class:`ProtocolError`, which the connection
handler turns into a final error response on the raw socket — a malformed
request can never reach a handler.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, NoReturn, Optional
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.serve.http.errors import ApiError

#: Hard caps on the request head — one line and the whole header block.
MAX_REQUEST_LINE_BYTES = 8192
MAX_HEADER_BYTES = 65536
MAX_HEADER_COUNT = 100

#: Default cap on request bodies (the server config can lower/raise it).
DEFAULT_MAX_BODY_BYTES = 32 * 2 ** 20

#: A streamed response's lines go out in chunks of about this many bytes:
#: a few frames for a large answer, and a stream holds one chunk at most.
STREAM_CHUNK_BYTES = 64 * 1024

STATUS_PHRASES = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

SERVER_NAME = "repro-serve"


class ProtocolError(Exception):
    """A malformed or unsupported request; carries the status to answer with."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


def _refuse_non_finite(token: str) -> NoReturn:
    raise ApiError(
        400,
        "bad_request",
        f"request body is not valid JSON: {token} is not a finite number",
    )


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        _refuse_non_finite(token)
    return value


@dataclass
class HttpRequest:
    """One parsed request: line, lowercased headers, raw body."""

    method: str
    target: str
    path: str
    query: Dict[str, str]
    version: str
    headers: Dict[str, str]
    body: bytes = b""
    #: Seconds spent parsing head + body, measured from the arrival of the
    #: request line (idle keep-alive wait excluded).  The server records it
    #: as the request's ``repro.http.parse`` span.
    parse_seconds: float = 0.0

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    @property
    def content_type(self) -> str:
        """The media type of the body, lowercased, parameters stripped."""
        return self.headers.get("content-type", "").split(";")[0].strip().lower()

    @property
    def client_id(self) -> Optional[str]:
        """The caller's declared identity (``X-Client-Id``), if any.

        The fleet router keys rate limits and fair-queue weights on this;
        workers receive it forwarded for log/metric correlation.
        """
        return self.headers.get("x-client-id") or None

    def json(self) -> object:
        """The body decoded as JSON; malformed bodies raise a 400 ApiError.

        ``NaN``, ``Infinity``, ``-Infinity`` and numbers that overflow a
        float (``1e999``) are not JSON (RFC 8259), so they are malformed
        too: no non-finite value ever reaches a relation or a request.
        """
        try:
            return json.loads(
                self.body.decode("utf-8"),
                parse_constant=_refuse_non_finite,
                parse_float=_finite_float,
            )
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ApiError(
                400, "bad_request", f"request body is not valid JSON: {exc}"
            ) from exc

    def text(self) -> str:
        """The body decoded as UTF-8; malformed bodies raise a 400 ApiError."""
        try:
            return self.body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ApiError(
                400, "bad_request", f"request body is not valid UTF-8: {exc}"
            ) from exc


@dataclass
class HttpResponse:
    """What a handler returns: status, body (or a line stream), headers."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)
    #: When set, the response is streamed (chunked transfer encoding)
    #: instead of sending ``body``.  A plain iterable yields *lines*
    #: (``str``, no trailing newline — the JSONL rule streams), which
    #: :func:`write_response` groups into chunks of about
    #: :data:`STREAM_CHUNK_BYTES`; an async iterable yields raw ``bytes``
    #: chunks forwarded verbatim, one frame each (the fleet router's
    #: passthrough of a worker's chunked body).
    stream = None

    @classmethod
    def json(
        cls, document: object, status: int = 200, **headers: str
    ) -> "HttpResponse":
        """``document`` as a compact JSON body (default separators).

        Compact, so a discover body built from the kept rule texts
        (:meth:`~repro.api.result.DiscoveryResult.json_bytes`) equals what
        this writes for the same result's ``to_json_dict()``.
        """
        body = json.dumps(document, allow_nan=False).encode("utf-8")
        return cls(
            status=status,
            body=body + b"\n",
            content_type="application/json",
            headers=dict(headers),
        )

    @classmethod
    def jsonl(cls, lines, status: int = 200) -> "HttpResponse":
        response = cls(status=status, content_type="application/x-ndjson")
        response.stream = lines
        return response

    @classmethod
    def plain(cls, text: str, status: int = 200) -> "HttpResponse":
        return cls(
            status=status,
            body=text.encode("utf-8"),
            content_type="text/plain; charset=utf-8",
        )


async def _read_head_line(reader: asyncio.StreamReader, limit: int) -> bytes:
    try:
        line = await reader.readline()
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError(431, "header line exceeds the stream limit") from exc
    except ValueError as exc:
        raise ProtocolError(431, "header line exceeds the stream limit") from exc
    if len(line) > limit:
        raise ProtocolError(431, "header line too long")
    return line


async def read_request(
    reader: asyncio.StreamReader,
    writer: Optional[asyncio.StreamWriter] = None,
    *,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    head_timeout: Optional[float] = None,
) -> Optional[HttpRequest]:
    """Parse one request off the stream; ``None`` on clean EOF before it.

    Malformed input raises :class:`ProtocolError` with the status to answer
    with.  When ``writer`` is given, an ``Expect: 100-continue`` request gets
    its interim response before the body is awaited.  ``head_timeout``
    bounds only the *idle wait for the request line* (``asyncio.TimeoutError``
    propagates) — once a request has started arriving, headers and body may
    take as long as the transfer needs; a large upload over a slow link must
    never be cut mid-body by the keep-alive idle timeout.
    """
    first_line = _read_head_line(reader, MAX_REQUEST_LINE_BYTES)
    if head_timeout is not None:
        line = await asyncio.wait_for(first_line, head_timeout)
    else:
        line = await first_line
    if not line:
        return None  # peer closed between requests: normal keep-alive end
    parse_started = time.perf_counter()
    try:
        request_line = line.decode("ascii").strip()
    except UnicodeDecodeError as exc:
        raise ProtocolError(400, "request line is not ASCII") from exc
    if not request_line:
        raise ProtocolError(400, "empty request line")
    parts = request_line.split()
    if len(parts) != 3:
        raise ProtocolError(400, f"malformed request line: {request_line!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise ProtocolError(400, f"unsupported protocol version {version!r}")

    headers: Dict[str, str] = {}
    total_header_bytes = 0
    while True:
        line = await _read_head_line(reader, MAX_HEADER_BYTES)
        if line in (b"\r\n", b"\n", b""):
            break
        total_header_bytes += len(line)
        if total_header_bytes > MAX_HEADER_BYTES or len(headers) >= MAX_HEADER_COUNT:
            raise ProtocolError(431, "header block too large")
        text = line.decode("latin-1").rstrip("\r\n")
        name, sep, value = text.partition(":")
        if not sep or not name.strip():
            raise ProtocolError(400, f"malformed header line: {text!r}")
        headers[name.strip().lower()] = value.strip()

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise ProtocolError(411, "chunked request bodies are not supported")

    length = 0
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise ProtocolError(400, "malformed Content-Length") from exc
        if length < 0:
            raise ProtocolError(400, "negative Content-Length")
        if length > max_body_bytes:
            raise ProtocolError(
                413, f"request body exceeds {max_body_bytes} bytes"
            )

    if headers.get("expect", "").lower() == "100-continue" and writer is not None:
        writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        await writer.drain()

    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError(400, "request body shorter than declared") from exc

    split = urlsplit(target)
    path = unquote(split.path) or "/"
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return HttpRequest(
        method=method.upper(),
        target=target,
        path=path,
        query=query,
        version=version,
        headers=headers,
        body=body,
        parse_seconds=time.perf_counter() - parse_started,
    )


def _head(status: int, content_type: str, headers: Dict[str, str]) -> bytes:
    phrase = STATUS_PHRASES.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {phrase}", f"Server: {SERVER_NAME}"]
    rendered = {name.lower() for name in headers}
    if "content-type" not in rendered and content_type:
        lines.append(f"Content-Type: {content_type}")
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n").encode("latin-1")


async def write_response(
    writer: asyncio.StreamWriter,
    response: HttpResponse,
    *,
    keep_alive: bool = True,
    head_only: bool = False,
) -> None:
    """Serialize ``response`` (fixed-length or chunked-streaming) to the wire."""
    headers = dict(response.headers)
    headers["Connection"] = "keep-alive" if keep_alive else "close"
    if response.stream is None:
        headers["Content-Length"] = str(len(response.body))
        writer.write(_head(response.status, response.content_type, headers))
        writer.write(b"\r\n")
        if not head_only:
            writer.write(response.body)
        await writer.drain()
        return
    headers["Transfer-Encoding"] = "chunked"
    writer.write(_head(response.status, response.content_type, headers))
    writer.write(b"\r\n")
    if head_only and hasattr(response.stream, "aclose"):
        await response.stream.aclose()  # unconsumed upstream stream: close now
    if not head_only:
        if hasattr(response.stream, "__aiter__"):
            # Raw passthrough: each item is already encoded bytes (a chunk
            # relayed from an upstream worker) and is re-framed verbatim.
            async for chunk in response.stream:
                if chunk:
                    await _write_chunk(writer, chunk)
        else:
            # Lines are grouped, not framed one by one: a cover of thousands
            # of rules goes out in a few chunks.  The size is counted in
            # characters, which equal bytes for the ASCII JSON lines.
            lines: List[str] = []
            size = 0
            for line in response.stream:
                lines.append(line)
                size += len(line) + 1
                if size >= STREAM_CHUNK_BYTES:
                    await _write_chunk(writer, _joined(lines))
                    lines, size = [], 0
            if lines:
                await _write_chunk(writer, _joined(lines))
    writer.write(b"0\r\n\r\n")
    await writer.drain()


def _joined(lines: List[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


async def _write_chunk(writer: asyncio.StreamWriter, chunk: bytes) -> None:
    writer.write(f"{len(chunk):x}\r\n".encode("ascii"))
    writer.write(chunk + b"\r\n")
    await writer.drain()


def error_response(error: ApiError) -> HttpResponse:
    """The structured-JSON response of one :class:`ApiError`."""
    headers: Dict[str, str] = {}
    if error.retry_after is not None:
        headers["Retry-After"] = str(error.retry_after)
    response = HttpResponse.json(error.to_document(), status=error.status)
    response.headers.update(headers)
    return response


__all__ = [
    "DEFAULT_MAX_BODY_BYTES",
    "HttpRequest",
    "HttpResponse",
    "MAX_HEADER_BYTES",
    "MAX_REQUEST_LINE_BYTES",
    "ProtocolError",
    "STREAM_CHUNK_BYTES",
    "error_response",
    "read_request",
    "write_response",
]
