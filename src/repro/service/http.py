"""Minimal asyncio HTTP/1.1 framing for the simulation server.

The service deliberately sits on the stdlib only: ``asyncio`` streams
plus hand-rolled HTTP framing — request line, headers, Content-Length
bodies, keep-alive — which is all a JSON API needs.  No chunked
encoding, no TLS, no routing DSL; the app layer routes on
``(method, path)`` itself.

Limits are enforced while *reading* (header block and body size), so a
misbehaving client cannot balloon server memory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from http import HTTPStatus
from urllib.parse import parse_qsl, unquote, urlsplit

#: Upper bounds on what we are willing to read from a client.
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024

_SERVER_NAME = "repro-serve"

#: Header carrying the trace id, inbound (client-assigned) and outbound
#: (echoed or server-assigned).  Header lookups are lowercase.
TRACE_ID_HEADER = "x-repro-trace-id"

#: Characters accepted in a client-supplied trace id.
_TRACE_ID_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_"
)
_TRACE_ID_MAX = 128


def request_trace_id(headers: dict[str, str]) -> str:
    """The request's trace id: the inbound header if safe, else fresh.

    A client-supplied id is honored only when it is plain (alphanumeric
    plus dash/underscore, bounded length) — anything else gets a
    server-assigned id rather than letting arbitrary bytes into logs
    and manifests.
    """
    from repro.obs import tracing

    candidate = headers.get(TRACE_ID_HEADER, "").strip()
    if (
        candidate
        and len(candidate) <= _TRACE_ID_MAX
        and set(candidate) <= _TRACE_ID_CHARS
    ):
        return candidate
    return tracing.new_trace_id()


class HttpError(Exception):
    """A framing- or routing-level failure with an HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    target: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes

    def json(self) -> dict:
        """The request body parsed as a JSON object."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(
                HTTPStatus.BAD_REQUEST, f"invalid JSON body: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise HttpError(
                HTTPStatus.BAD_REQUEST, "JSON body must be an object"
            )
        return payload

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


@dataclass
class Response:
    """One HTTP response, encodable to wire bytes."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    @classmethod
    def from_json(
        cls, payload, status: int = 200,
        splice: tuple[str, str] | None = None,
    ) -> "Response":
        """``payload`` as sorted-key JSON.

        ``splice=(name, text)`` adds member ``name`` to the object
        ``payload`` from ``text``, its value already encoded by
        ``json.dumps(value, sort_keys=True)``.  The text goes in
        verbatim, and the body is byte-identical to encoding the
        decoded value with the rest.
        """
        if splice is None:
            text = json.dumps(payload, sort_keys=True)
            return cls.from_json_text(text, status)
        name, text = splice
        head = {key: value for key, value in payload.items() if key < name}
        tail = {key: value for key, value in payload.items() if key > name}
        members = [
            json.dumps(head, sort_keys=True)[1:-1],
            f"{json.dumps(name)}: {text}",
            json.dumps(tail, sort_keys=True)[1:-1],
        ]
        return cls.from_json_text(
            "{" + ", ".join(part for part in members if part) + "}", status
        )

    @classmethod
    def from_json_text(cls, text: str, status: int = 200) -> "Response":
        """An already-encoded JSON document as the body."""
        return cls(status=status, body=(text + "\n").encode("utf-8"))

    @classmethod
    def from_text(
        cls, text: str, status: int = 200,
        content_type: str = "text/plain; charset=utf-8",
    ) -> "Response":
        return cls(
            status=status, body=text.encode("utf-8"),
            content_type=content_type,
        )

    @classmethod
    def error(cls, status: int, message: str) -> "Response":
        return cls.from_json({"error": message, "status": status}, status)

    def encode(self) -> bytes:
        try:
            reason = HTTPStatus(self.status).phrase
        except ValueError:
            reason = "Unknown"
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Server: {_SERVER_NAME}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
        ]
        lines.extend(f"{name}: {value}" for name, value in self.headers)
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
        return head + self.body


async def read_request(reader) -> Request | None:
    """Parse one request from a stream; ``None`` on clean EOF.

    Raises:
        HttpError: on malformed framing or exceeded limits.
    """
    try:
        request_line = await reader.readline()
    except (ConnectionError, ValueError) as exc:
        raise HttpError(HTTPStatus.BAD_REQUEST, str(exc)) from exc
    if not request_line.strip():
        return None
    if len(request_line) > MAX_REQUEST_LINE:
        raise HttpError(
            HTTPStatus.REQUEST_URI_TOO_LONG, "request line too long"
        )
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpError(HTTPStatus.BAD_REQUEST, "malformed request line")
    method, target, _ = parts

    headers: dict[str, str] = {}
    total = 0
    while True:
        line = await reader.readline()
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise HttpError(
                HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                "header block too large",
            )
        if line in (b"\r\n", b"\n", b""):
            break
        if b":" not in line:
            raise HttpError(HTTPStatus.BAD_REQUEST, "malformed header line")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError as exc:
            raise HttpError(
                HTTPStatus.BAD_REQUEST, "malformed Content-Length"
            ) from exc
        if length < 0 or length > MAX_BODY_BYTES:
            raise HttpError(
                HTTPStatus.REQUEST_ENTITY_TOO_LARGE, "body too large"
            )
        if length:
            try:
                body = await reader.readexactly(length)
            except Exception as exc:
                raise HttpError(
                    HTTPStatus.BAD_REQUEST, "truncated request body"
                ) from exc

    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return Request(
        method=method.upper(),
        target=target,
        path=unquote(split.path) or "/",
        query=query,
        headers=headers,
        body=body,
    )
