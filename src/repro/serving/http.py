"""The HTTP front door: stdlib ``ThreadingHTTPServer`` over a gateway.

Endpoints (all bodies and responses are JSON unless noted):

=========================================  ====================================
``POST /rooms``                            create a room
                                           (``{"name", "topic"?}`` → 201)
``POST /rooms/<id>/join``                  join / change role
                                           (``{"user", "role"?}``)
``POST /rooms/<id>/leave``                 leave (``{"user"}``; ``left`` is
                                           false for a non-member no-op)
``POST /rooms/<id>/messages``              post a message (``{"user",
                                           "text"}`` → 202 with the delivered
                                           message + queue depth)
``GET /rooms/<id>/transcript``             seq-indexed read; ``?since=<seq>``
                                           resumes after a cursor and
                                           ``&wait=<s>`` long-polls for new
                                           traffic
``GET /events``                            ``text/event-stream`` of supervision
                                           verdicts and agent replies
                                           (``?room=`` filters; ``?limit=`` /
                                           ``?timeout=`` bound the stream)
``GET /healthz``                           health status + counters
=========================================  ====================================

Each request runs on its own server thread; mutations serialize through
the gateway's admission lock, long-polls park on its delivery condition,
and SSE streams drain a per-subscriber queue — so a slow reader never
blocks a poster.  Handler errors map to status codes (:class:`ApiError`
carries its own; anything else is a 500) instead of tearing down the
connection.  A 500 body is opaque: it carries a request id, and the
traceback goes to the ``repro.serving.http`` logger under that id.  A
request body declared larger than :data:`MAX_BODY_BYTES` is refused
with 413 before any of it is read; the connection then drains what the
client still sends, bounded by :data:`LINGER_BYTES` and
:data:`LINGER_SECONDS`, so closing it cannot reset the 413 away.  Every
read gives up after :data:`READ_TIMEOUT`: a body that stalls short of
its ``Content-Length`` is answered 408, and a keep-alive connection idle
that long is closed.  A client that hangs up (or stops reading) while a
response is written costs the server nothing but the connection.
"""

from __future__ import annotations

import json
import logging
import queue
import socket
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .gateway import ApiError, ChatGateway, MAX_POLL_WAIT

#: Seconds between SSE keep-alive comments when no events flow.
SSE_KEEPALIVE = 15.0

#: Largest request body accepted (bytes).  Every endpoint takes a small
#: JSON object; a larger declared ``Content-Length`` is answered 413.
MAX_BODY_BYTES = 64 * 1024

#: Seconds any read on a connection may wait: a body stalled short of its
#: ``Content-Length`` is answered 408, an idle keep-alive connection is
#: closed.  Well above the longest pause of a live client, such as the
#: 30 s a load generator allows for an SSE reply to arrive before it
#: posts again.
READ_TIMEOUT = 60.0

#: Bounds of the drain after a 413: at most this many bytes of the
#: refused body are read and dropped, for at most this many seconds.
LINGER_BYTES = 2 * 1024 * 1024
LINGER_SECONDS = 2.0

#: A client that hung up, or stopped reading for READ_TIMEOUT seconds.
_CLIENT_GONE = (BrokenPipeError, ConnectionResetError, TimeoutError)

_log = logging.getLogger(__name__)


class ChatHTTPServer(ThreadingHTTPServer):
    """One listening socket over one :class:`ChatGateway`.

    ``port=0`` binds an ephemeral port (tests and benches); the bound
    address is ``server_address`` as usual.  ``verbose`` re-enables the
    stdlib per-request log lines (quiet by default: the serving bench
    would otherwise spam stderr with thousands of them).
    """

    daemon_threads = True  # in-flight handlers never block shutdown

    def __init__(
        self,
        gateway: ChatGateway,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        self.gateway = gateway
        self.verbose = verbose
        super().__init__((host, port), ChatRequestHandler)


class ChatRequestHandler(BaseHTTPRequestHandler):
    # Keep-alive: responses carry Content-Length, so one client
    # connection can pipeline its whole session (the bench does).
    protocol_version = "HTTP/1.1"
    # Responses go out as two segments (header flush, then body); with
    # Nagle on, the body write stalls until the client's delayed ACK
    # (~40ms per request on Linux).  TCP_NODELAY removes the stall.
    disable_nagle_algorithm = True
    server: ChatHTTPServer

    # ------------------------------------------------------------- plumbing

    def setup(self) -> None:
        super().setup()
        self.connection.settimeout(READ_TIMEOUT)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def _read_json(self) -> dict:
        declared = self.headers.get("Content-Length") or "0"
        if not declared.isdecimal():
            # Digits only: a negative length would make rfile.read()
            # read to EOF and park the handler.
            raise ApiError(400, f"invalid Content-Length: {declared!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            # The body stays unread: _dispatch drains and closes.
            raise ApiError(413, f"request body over {MAX_BODY_BYTES} bytes")
        try:
            raw = self.rfile.read(length) if length else b""
        except TimeoutError:
            # The stream position is lost: _dispatch closes the connection.
            raise ApiError(408, f"request body not received within {READ_TIMEOUT:g} s") from None
        if not raw:
            raise ApiError(400, "request body must be a JSON object")
        try:
            body = json.loads(raw)
        except ValueError:
            raise ApiError(400, "request body is not valid JSON") from None
        if not isinstance(body, dict):
            raise ApiError(400, "request body must be a JSON object")
        return body

    def _send_json(self, payload: dict, status: int = 200, close: bool = False) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if close:
            self.send_header("Connection", "close")  # also sets close_connection
        self.end_headers()
        self.wfile.write(data)

    def _query(self) -> dict[str, str]:
        from urllib.parse import parse_qsl, urlsplit

        return dict(parse_qsl(urlsplit(self.path).query))

    def _route(self) -> list[str]:
        from urllib.parse import unquote, urlsplit

        return [unquote(part) for part in urlsplit(self.path).path.strip("/").split("/")]

    # -------------------------------------------------------------- methods

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_GET(self) -> None:
        self._dispatch("GET")

    def _dispatch(self, method: str) -> None:
        try:
            handled = self._handle(method, self._route())
            if not handled:
                raise ApiError(404, f"no such resource: {self.path}")
        except ApiError as exc:
            # A 408 or 413 leaves the body unread, so the connection
            # cannot carry another request.
            close = exc.status in (408, 413)
            self._send_error_json({"error": str(exc)}, exc.status, close=close)
            if exc.status == 413:
                self._drain_refused_body()
        except _CLIENT_GONE:
            self.close_connection = True  # client went away mid-response
        except Exception:  # never tear down the connection
            request_id = uuid.uuid4().hex
            _log.exception("request %s: %s %s failed", request_id, method, self.path)
            self._send_error_json(
                {"error": "internal error", "request_id": request_id}, 500
            )

    def _send_error_json(self, payload: dict, status: int, close: bool = False) -> None:
        """Write an error response; a client already gone is no error."""
        try:
            self._send_json(payload, status=status, close=close)
        except _CLIENT_GONE:
            self.close_connection = True

    def _drain_refused_body(self) -> None:
        """Read and drop what a client still sends of a refused body.

        Closing a socket with unread input makes the kernel send a
        reset, and a client still writing its body fails on that reset
        before it reads the 413.  So the response is ended with a FIN
        first, then the body is read away until the client closes or
        the byte or time bound is reached.
        """
        left = min(int(self.headers["Content-Length"]), LINGER_BYTES)
        deadline = time.monotonic() + LINGER_SECONDS
        try:
            self.connection.shutdown(socket.SHUT_WR)
            while left > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    return
                self.connection.settimeout(remaining)
                chunk = self.rfile.read1(min(left, 65536))
                if not chunk:
                    return
                left -= len(chunk)
        except OSError:
            pass  # gone or too slow: the connection closes either way

    def _handle(self, method: str, route: list[str]) -> bool:
        gateway = self.server.gateway
        if route == ["healthz"]:
            self._require(method, "GET")
            self._send_json(gateway.health())
            return True
        if route == ["events"]:
            self._require(method, "GET")
            self._stream_events(gateway)
            return True
        if route == ["rooms"]:
            self._require(method, "POST")
            body = self._read_json()
            payload = gateway.create_room(
                str(body.get("name", "")), topic=str(body.get("topic", ""))
            )
            self._send_json(payload, status=201)
            return True
        if len(route) == 3 and route[0] == "rooms":
            room, action = route[1], route[2]
            if action == "messages":
                self._require(method, "POST")
                body = self._read_json()
                payload = gateway.post(
                    room, str(body.get("user", "")), str(body.get("text", ""))
                )
                self._send_json(payload, status=202)
                return True
            if action == "join":
                self._require(method, "POST")
                body = self._read_json()
                payload = gateway.join(
                    room, str(body.get("user", "")), str(body.get("role", "student"))
                )
                self._send_json(payload)
                return True
            if action == "leave":
                self._require(method, "POST")
                body = self._read_json()
                payload = gateway.leave(room, str(body.get("user", "")))
                self._send_json(payload)
                return True
            if action == "transcript":
                self._require(method, "GET")
                params = self._query()
                payload = gateway.transcript_since(
                    room,
                    since=self._int_param(params, "since", -1),
                    wait=self._float_param(params, "wait", 0.0),
                    limit=self._int_param(params, "limit", 0) or None,
                )
                self._send_json(payload)
                return True
        return False

    def _require(self, method: str, expected: str) -> None:
        if method != expected:
            raise ApiError(405, f"use {expected} for {self.path}")

    @staticmethod
    def _int_param(params: dict, key: str, default: int) -> int:
        try:
            return int(params.get(key, default))
        except ValueError:
            raise ApiError(400, f"query parameter {key!r} must be an integer") from None

    @staticmethod
    def _float_param(params: dict, key: str, default: float) -> float:
        try:
            return float(params.get(key, default))
        except ValueError:
            raise ApiError(400, f"query parameter {key!r} must be a number") from None

    # ------------------------------------------------------------------ SSE

    def _stream_events(self, gateway: ChatGateway) -> None:
        """Serve ``text/event-stream`` off a gateway subscriber queue.

        The stream ends when the client disconnects, after ``?limit=``
        events, or once ``?timeout=`` seconds pass (clamped like a
        long-poll) — the bounded forms are what tests and the bench
        use; an interactive client just keeps reading.
        """
        params = self._query()
        room = params.get("room")
        limit = self._int_param(params, "limit", 0)
        timeout = self._float_param(params, "timeout", 0.0)
        deadline = time.monotonic() + min(timeout, MAX_POLL_WAIT) if timeout else None
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        # No Content-Length: the stream closes the connection when done.
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()
        stream = gateway.open_stream()
        sent = 0
        try:
            while True:
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0:
                        return
                else:
                    remaining = SSE_KEEPALIVE
                try:
                    event, data = stream.get(timeout=min(remaining, SSE_KEEPALIVE))
                except queue.Empty:
                    self.wfile.write(b": keep-alive\n\n")
                    self.wfile.flush()
                    continue
                if room is not None and data.get("room") != room:
                    continue
                payload = json.dumps(data).encode("utf-8")
                self.wfile.write(
                    b"event: " + event.encode("ascii") + b"\ndata: " + payload + b"\n\n"
                )
                self.wfile.flush()
                sent += 1
                if limit and sent >= limit:
                    return
        except _CLIENT_GONE:
            pass  # subscriber hung up or stopped reading; nothing to answer
        finally:
            gateway.close_stream(stream)
