"""The HTTP front door: routes, status mapping, long-poll, SSE.

Every test drives a live ``ThreadingHTTPServer`` on an ephemeral port
through real sockets — the serving layer has no request-object seam to
fake, on purpose.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.chatroom import MULTI_WORKER_MODES, RUNTIME_MODES
from repro.core.system import ELearningSystem, SystemConfig
from repro.resilience import RuntimeFaultPlan
from repro.serving import ApiError, ChatGateway, ChatHTTPServer
from repro.serving import http as serving_http


@contextmanager
def serving(system: ELearningSystem):
    gateway = ChatGateway(system)
    httpd = ChatHTTPServer(gateway)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield system, gateway, httpd
    finally:
        httpd.shutdown()
        httpd.server_close()
        system.close()


@pytest.fixture(scope="module")
def served():
    with serving(ELearningSystem.with_defaults()) as stack:
        yield stack


def request(httpd, method: str, path: str, body: dict | None = None):
    host, port = httpd.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request(method, path, json.dumps(body) if body is not None else None)
        response = conn.getresponse()
        raw = response.read()
    finally:
        conn.close()
    return response.status, json.loads(raw) if raw else None


class TestRoomLifecycle:
    def test_create_room(self, served):
        _, _, httpd = served
        status, body = request(httpd, "POST", "/rooms", {"name": "api", "topic": "stacks"})
        assert status == 201
        assert body == {"room": "api", "topic": "stacks"}

    def test_duplicate_room_is_409(self, served):
        _, _, httpd = served
        request(httpd, "POST", "/rooms", {"name": "dup"})
        status, body = request(httpd, "POST", "/rooms", {"name": "dup"})
        assert status == 409
        assert "already exists" in body["error"]

    def test_join_leave_roundtrip(self, served):
        _, _, httpd = served
        request(httpd, "POST", "/rooms", {"name": "jl"})
        status, body = request(httpd, "POST", "/rooms/jl/join", {"user": "alice"})
        assert (status, body["joined"], body["role"]) == (200, True, "student")
        status, body = request(httpd, "POST", "/rooms/jl/leave", {"user": "alice"})
        assert (status, body["left"]) == (200, True)

    def test_non_member_leave_surfaces_noop(self, served):
        _, _, httpd = served
        request(httpd, "POST", "/rooms", {"name": "noop"})
        status, body = request(httpd, "POST", "/rooms/noop/leave", {"user": "ghost"})
        assert (status, body["left"]) == (200, False)

    def test_rejoin_with_new_role_reports_change(self, served):
        system, _, httpd = served
        request(httpd, "POST", "/rooms", {"name": "roles"})
        request(httpd, "POST", "/rooms/roles/join", {"user": "prof"})
        status, body = request(
            httpd, "POST", "/rooms/roles/join", {"user": "prof", "role": "teacher"}
        )
        assert (status, body["joined"]) == (200, True)
        assert system.server.role_of("roles", "prof").value == "teacher"
        status, body = request(
            httpd, "POST", "/rooms/roles/join", {"user": "prof", "role": "teacher"}
        )
        assert (status, body["joined"]) == (200, False)  # same-role rejoin: no-op


class TestMessagesAndTranscript:
    def test_post_returns_delivered_message(self, served):
        _, _, httpd = served
        request(httpd, "POST", "/rooms", {"name": "msg"})
        request(httpd, "POST", "/rooms/msg/join", {"user": "u"})
        status, body = request(
            httpd, "POST", "/rooms/msg/messages", {"user": "u", "text": "What is a queue?"}
        )
        assert status == 202
        assert body["message"]["room"] == "msg"
        assert body["message"]["text"] == "What is a queue?"
        # Queued runtime auto-drains: the QA reply already landed.
        status, page = request(
            httpd, "GET", f"/rooms/msg/transcript?since={body['message']['seq']}"
        )
        assert status == 200
        assert [m["kind"] for m in page["messages"]] == ["agent"]
        assert page["next"] == page["messages"][-1]["seq"]

    def test_since_cursor_resumes_after_seq(self, served):
        _, _, httpd = served
        request(httpd, "POST", "/rooms", {"name": "cursor"})
        request(httpd, "POST", "/rooms/cursor/join", {"user": "u"})
        seqs = []
        for text in ("A stack supports push.", "A binary tree is a tree."):
            _, body = request(
                httpd, "POST", "/rooms/cursor/messages", {"user": "u", "text": text}
            )
            seqs.append(body["message"]["seq"])
        _, page = request(httpd, "GET", f"/rooms/cursor/transcript?since={seqs[0]}")
        assert [m["seq"] for m in page["messages"]] == [seqs[1]]
        _, page = request(httpd, "GET", f"/rooms/cursor/transcript?since={seqs[1]}")
        assert page["messages"] == []
        assert page["next"] == seqs[1]  # cursor unchanged on an empty page

    def test_long_poll_wakes_on_new_traffic(self, served):
        _, _, httpd = served
        request(httpd, "POST", "/rooms", {"name": "poll"})
        request(httpd, "POST", "/rooms/poll/join", {"user": "u"})
        _, page = request(httpd, "GET", "/rooms/poll/transcript")
        cursor = page["next"]
        result = {}

        def poll():
            result["page"] = request(
                httpd, "GET", f"/rooms/poll/transcript?since={cursor}&wait=20"
            )

        poller = threading.Thread(target=poll)
        poller.start()
        time.sleep(0.2)  # park the poller on the delivery condition
        request(
            httpd, "POST", "/rooms/poll/messages", {"user": "u", "text": "What is Stack?"}
        )
        poller.join(timeout=20)
        assert not poller.is_alive()
        status, page = result["page"]
        assert status == 200
        assert page["messages"], "long-poll returned an empty page despite new traffic"
        assert page["messages"][0]["text"] == "What is Stack?"

    def test_expired_long_poll_returns_empty_page(self, served):
        _, _, httpd = served
        request(httpd, "POST", "/rooms", {"name": "idle"})
        start = time.monotonic()
        status, page = request(httpd, "GET", "/rooms/idle/transcript?since=10000&wait=0.2")
        assert status == 200
        assert page["messages"] == []
        assert time.monotonic() - start >= 0.2


class TestErrorMapping:
    def test_unknown_room_is_404(self, served):
        _, _, httpd = served
        status, body = request(httpd, "GET", "/rooms/ghost/transcript")
        assert status == 404
        status, body = request(httpd, "POST", "/rooms/ghost/join", {"user": "u"})
        assert status == 404
        assert "no room named" in body["error"]

    def test_post_while_absent_is_403(self, served):
        _, _, httpd = served
        request(httpd, "POST", "/rooms", {"name": "guarded"})
        status, body = request(
            httpd, "POST", "/rooms/guarded/messages", {"user": "stranger", "text": "hi"}
        )
        assert status == 403
        assert "not in room" in body["error"]

    def test_malformed_json_is_400(self, served):
        _, _, httpd = served
        host, port = httpd.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        conn.request("POST", "/rooms", "{not json")
        response = conn.getresponse()
        body = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert "JSON" in body["error"]

    def test_unknown_role_is_400(self, served):
        _, _, httpd = served
        request(httpd, "POST", "/rooms", {"name": "badrole"})
        status, body = request(
            httpd, "POST", "/rooms/badrole/join", {"user": "u", "role": "wizard"}
        )
        assert status == 400
        assert "role" in body["error"]

    def test_wrong_method_is_405(self, served):
        _, _, httpd = served
        status, _ = request(httpd, "GET", "/rooms")
        assert status == 405
        status, _ = request(httpd, "POST", "/rooms/ghost/transcript", {})
        assert status == 405

    def test_unknown_path_is_404(self, served):
        _, _, httpd = served
        status, _ = request(httpd, "GET", "/nothing/here")
        assert status == 404

    def test_bad_query_parameter_is_400(self, served):
        _, _, httpd = served
        request(httpd, "POST", "/rooms", {"name": "badq"})
        status, body = request(httpd, "GET", "/rooms/badq/transcript?since=abc")
        assert status == 400
        assert "since" in body["error"]

    def test_handler_errors_do_not_kill_the_connection(self, served):
        _, _, httpd = served
        host, port = httpd.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            # Three failing requests, then a good one, all on one
            # keep-alive connection: an error response must leave the
            # connection serviceable.
            for path in ("/rooms/ghost/transcript", "/nothing", "/rooms/ghost/transcript"):
                conn.request("GET", path)
                response = conn.getresponse()
                response.read()
                assert response.status in (404, 405)
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 200
            assert body["status"] == "ok"
        finally:
            conn.close()


class TestHealth:
    def test_healthz_counters(self, served):
        system, _, httpd = served
        status, body = request(httpd, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["rooms"] == len(system.server.rooms)
        assert body["messages"] == system.server.total_messages()
        assert body["runtime"] == "queued"

    def test_healthz_reports_degraded_after_a_quarantine(self):
        faults = RuntimeFaultPlan(fail_at=1, fail_times=3)
        system = ELearningSystem.with_defaults(SystemConfig(runtime_faults=faults))
        with serving(system) as (_, _, httpd):
            request(httpd, "POST", "/rooms", {"name": "sick"})
            request(httpd, "POST", "/rooms/sick/join", {"user": "u"})
            request(httpd, "POST", "/rooms/sick/messages",
                    {"user": "u", "text": "The stack is full."})
            assert system.quarantined == 1
            status, body = request(httpd, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "degraded"
        assert body["quarantined"] == 1

    def test_healthz_returns_to_ok_after_a_redrive(self):
        faults = RuntimeFaultPlan(fail_at=1, fail_times=3)
        system = ELearningSystem.with_defaults(SystemConfig(runtime_faults=faults))
        with serving(system) as (_, _, httpd):
            request(httpd, "POST", "/rooms", {"name": "sick"})
            request(httpd, "POST", "/rooms/sick/join", {"user": "u"})
            request(httpd, "POST", "/rooms/sick/messages",
                    {"user": "u", "text": "The stack is full."})
            assert request(httpd, "GET", "/healthz")[1]["status"] == "degraded"
            assert system.redrive() == 1  # the fault plan is spent
            status, body = request(httpd, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["quarantined"] == 0

    @pytest.mark.parametrize("mode", RUNTIME_MODES)
    def test_healthz_reports_runtime_and_backlog(self, mode):
        system = ELearningSystem.with_defaults(SystemConfig(runtime_mode=mode, shards=2))
        with serving(system) as (_, _, httpd):
            request(httpd, "POST", "/rooms", {"name": "r"})
            request(httpd, "POST", "/rooms/r/join", {"user": "u"})
            request(httpd, "POST", "/rooms/r/messages",
                    {"user": "u", "text": "We push an element onto the stack."})
            status, body = request(httpd, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"  # a backlog alone is not degraded
        assert body["runtime"] == mode
        deferred = mode in MULTI_WORKER_MODES  # no auto-drain after posting
        assert body["pending_supervision"] == (1 if deferred else 0)


def raw_post(httpd, content_length: str) -> bytes:
    """POST /rooms with a hand-written Content-Length header and no body
    over a raw socket, the connection left open the way a stalled client
    leaves it; the read timeout turns a parked handler into a failure
    instead of a hang."""
    host, port = httpd.server_address[:2]
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(
            b"POST /rooms HTTP/1.1\r\nHost: test\r\n"
            + f"Content-Length: {content_length}\r\n".encode("ascii")
            + b"Connection: close\r\n\r\n"
        )
        chunks = []
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except socket.timeout:
            pytest.fail(f"no response to Content-Length: {content_length}")
    return b"".join(chunks)


class TestContentLength:
    @pytest.mark.parametrize(
        "content_length", ["abc", "-1", "+5", "1.5", "0x10", "1e3", "5, 5"]
    )
    def test_invalid_content_length_is_400(self, served, content_length):
        _, _, httpd = served
        response = raw_post(httpd, content_length)
        status_line = response.split(b"\r\n", 1)[0]
        assert status_line.split()[1] == b"400", response
        assert b"invalid Content-Length" in response

    def test_zero_content_length_is_an_empty_body_not_a_bad_header(self, served):
        _, _, httpd = served
        response = raw_post(httpd, "0")
        status_line = response.split(b"\r\n", 1)[0]
        assert status_line.split()[1] == b"400", response
        assert b"invalid Content-Length" not in response
        assert b"must be a JSON object" in response


class TestEventStream:
    def test_sse_streams_replies_and_verdicts(self, served):
        _, _, httpd = served
        request(httpd, "POST", "/rooms", {"name": "sse"})
        request(httpd, "POST", "/rooms/sse/join", {"user": "u"})
        host, port = httpd.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        conn.request("GET", "/events?limit=3&timeout=20&room=sse")
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "text/event-stream"

        def post_violation():
            time.sleep(0.2)  # let the stream subscribe first
            request(
                httpd,
                "POST",
                "/rooms/sse/messages",
                {"user": "u", "text": "I push the data into a tree."},
            )

        threading.Thread(target=post_violation, daemon=True).start()
        raw = response.read().decode("utf-8")
        conn.close()
        events = [line.split(": ", 1)[1] for line in raw.splitlines() if line.startswith("event: ")]
        datas = [
            json.loads(line.split(": ", 1)[1])
            for line in raw.splitlines()
            if line.startswith("data: ")
        ]
        assert "reply" in events
        assert "verdict" in events
        assert all(data["room"] == "sse" for data in datas)

    def test_sse_timeout_ends_an_idle_stream(self, served):
        _, _, httpd = served
        host, port = httpd.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        conn.request("GET", "/events?timeout=0.2")
        response = conn.getresponse()
        raw = response.read()  # returns once the stream times out
        conn.close()
        assert response.status == 200
        assert b"event:" not in raw

    def test_stream_unsubscribes_when_done(self, served):
        _, gateway, httpd = served
        before = len(gateway._streams)
        host, port = httpd.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        conn.request("GET", "/events?timeout=0.1")
        conn.getresponse().read()
        conn.close()
        assert len(gateway._streams) == before


class TestGatewayUnit:
    def test_api_error_carries_status(self):
        error = ApiError(404, "gone")
        assert error.status == 404
        assert str(error) == "gone"

    def test_empty_text_rejected(self, served):
        _, gateway, _ = served
        gateway.create_room("empty-text")
        gateway.join("empty-text", "u")
        with pytest.raises(ApiError) as excinfo:
            gateway.post("empty-text", "u", "")
        assert excinfo.value.status == 400

    def test_stalled_stream_sheds_its_oldest_events(self, served):
        _, gateway, _ = served
        stream = gateway.open_stream(max_events=2)
        try:
            for index in range(4):  # nobody drains: queue keeps newest 2
                gateway._fan_out("reply", {"seq": index})
            kept = [stream.get_nowait()[1]["seq"] for _ in range(2)]
            assert kept == [2, 3]
        finally:
            gateway.close_stream(stream)


class TestHostileClients:
    """Clients that hang up mid-response, trip a server fault, or
    declare an oversized body: each costs the server at most the
    connection, never a traceback, a leaked detail or a parked thread."""

    @staticmethod
    def _watch(httpd, monkeypatch):
        """(handle_error calls, event set once a request's connection is
        shut down — after any handle_error call for it)."""
        errors: list = []
        finished = threading.Event()
        shutdown_request = httpd.shutdown_request

        def record_error(request, client_address):
            errors.append(client_address)

        def shutdown(request):
            shutdown_request(request)
            finished.set()

        monkeypatch.setattr(httpd, "handle_error", record_error)
        monkeypatch.setattr(httpd, "shutdown_request", shutdown)
        return errors, finished

    @pytest.mark.parametrize(
        "error", [ApiError(404, "no such thing"), RuntimeError("boom")], ids=["4xx", "5xx"]
    )
    def test_client_gone_before_the_error_write(self, served, monkeypatch, error):
        _, gateway, httpd = served
        errors, finished = self._watch(httpd, monkeypatch)
        entered, release = threading.Event(), threading.Event()

        def failing_health():
            entered.set()
            release.wait(5)
            raise error

        monkeypatch.setattr(gateway, "health", failing_health)
        host, port = httpd.server_address[:2]
        sock = socket.create_connection((host, port), timeout=5)
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
        assert entered.wait(5)
        # Linger 0: close sends RST, so the server's error write fails.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, b"\x01\x00\x00\x00\x00\x00\x00\x00")
        sock.close()
        time.sleep(0.1)
        release.set()
        assert finished.wait(5)
        assert errors == []

    def test_500_body_is_opaque_with_a_request_id(self, served, monkeypatch, caplog):
        _, gateway, httpd = served

        def broken_health():
            raise RuntimeError("secret: /srv/data/password.txt")

        monkeypatch.setattr(gateway, "health", broken_health)
        with caplog.at_level("ERROR", logger="repro.serving.http"):
            status, body = request(httpd, "GET", "/healthz")
        assert status == 500
        assert "secret" not in json.dumps(body)
        assert body["error"] == "internal error"
        request_id = body["request_id"]
        assert request_id
        logged = [r for r in caplog.records if request_id in r.getMessage()]
        assert logged and "secret" in str(logged[0].exc_info[1])

    def test_oversized_body_is_413_before_it_is_read(self, served):
        _, _, httpd = served
        # No body follows the header: reading it would park the handler
        # until the read timeout fails the test.  The request asks for a
        # kept-alive connection, so the 413 must say it closes it.
        host, port = httpd.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(
                b"POST /rooms HTTP/1.1\r\nHost: test\r\n"
                + f"Content-Length: {64 * 1024 * 1024}\r\n\r\n".encode("ascii")
            )
            chunks = []
            try:
                while chunk := sock.recv(65536):
                    chunks.append(chunk)
            except socket.timeout:
                pytest.fail(f"connection not closed after {b''.join(chunks)!r}")
        head = b"".join(chunks).split(b"\r\n\r\n", 1)[0].split(b"\r\n")
        assert head[0].split()[1] == b"413", head
        assert b"connection: close" in [line.lower() for line in head[1:]], head

    def test_stalled_body_is_408_and_closes(self, served, monkeypatch, caplog):
        _, _, httpd = served
        errors, finished = self._watch(httpd, monkeypatch)
        monkeypatch.setattr(serving_http, "READ_TIMEOUT", 0.3)
        host, port = httpd.server_address[:2]
        # 7 of the 20 declared bytes, then silence on a kept-alive
        # connection: without a read timeout the handler parks forever.
        with caplog.at_level("ERROR", logger="repro.serving.http"):
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(
                    b"POST /rooms HTTP/1.1\r\nHost: test\r\n"
                    b"Content-Length: 20\r\n\r\n" + b'{"name"'
                )
                response = _read_to_eof(sock)
            assert finished.wait(5)
        head, body = response.split(b"\r\n\r\n", 1)
        lines = head.split(b"\r\n")
        assert lines[0].split()[1] == b"408", response
        assert b"connection: close" in [line.lower() for line in lines[1:]], head
        assert b"not received within" in body
        assert errors == []
        assert caplog.records == []  # a 408, not a 500 with a traceback

    def test_idle_keep_alive_connection_is_closed(self, served, monkeypatch):
        _, _, httpd = served
        monkeypatch.setattr(serving_http, "READ_TIMEOUT", 0.3)
        host, port = httpd.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            assert _read_to_eof(sock).startswith(b"HTTP/1.1 200")

    def test_413_reaches_a_client_still_sending_its_body(self, served):
        _, _, httpd = served
        body = b"x" * (1024 * 1024)
        host, port = httpd.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as sock:
            received: list[bytes] = []
            reader = threading.Thread(target=lambda: received.append(_read_to_eof(sock)))
            reader.start()
            sock.sendall(
                b"POST /rooms HTTP/1.1\r\nHost: test\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
            )
            # The body streams in after the server has answered.  A
            # reset fails these sends, and a client that reads only
            # once its request is sent (http.client) never sees the 413.
            for start in range(0, len(body), 64 * 1024):
                sock.sendall(body[start : start + 64 * 1024])
                time.sleep(0.005)
            reader.join(5)
        assert not reader.is_alive()
        response = received[0]
        head, payload = response.split(b"\r\n\r\n", 1)
        lines = head.split(b"\r\n")
        assert lines[0].split()[1] == b"413", response
        headers = dict(line.lower().split(b": ", 1) for line in lines[1:])
        assert headers[b"connection"] == b"close"
        assert len(payload) == int(headers[b"content-length"])
        assert json.loads(payload) == {"error": "request body over 65536 bytes"}

    def test_drain_after_413_is_bounded_in_time(self, served, monkeypatch):
        _, _, httpd = served
        monkeypatch.setattr(serving_http, "LINGER_SECONDS", 0.3)
        host, port = httpd.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as sock:
            # Declares 64 MiB, then trickles far less than the byte
            # bound: the drain reads until its time bound, then closes.
            started = time.monotonic()  # before the drain's clock starts
            sock.sendall(
                b"POST /rooms HTTP/1.1\r\nHost: test\r\n"
                + f"Content-Length: {64 * 1024 * 1024}\r\n\r\n".encode("ascii")
            )
            assert _read_to_eof(sock).startswith(b"HTTP/1.1 413")  # ended by a FIN
            with pytest.raises(OSError):  # the reset once the drain gives up
                while time.monotonic() - started < 5.0:
                    sock.sendall(b"x" * 4096)
                    time.sleep(0.01)
            waited = time.monotonic() - started
        # Below the default LINGER_SECONDS: the patched bound applied.
        assert 0.3 <= waited < 2.0, waited


def _read_to_eof(sock: socket.socket) -> bytes:
    """Everything the server sends until it closes; a read timeout fails
    the test instead of hanging it."""
    chunks = []
    try:
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    except socket.timeout:
        pytest.fail(f"connection not closed after {b''.join(chunks)!r}")
    return b"".join(chunks)
