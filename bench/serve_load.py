"""The ``serving`` workload: the real HTTP front door, driven open-loop.

The server runs in a child process started as

    python3 -u bench/serve_load.py --server --data-dir D --out F [--trace]

which installs the span wrappers when traced and then calls
``repro.cli.main(["serve", "--port", "0", "--data-dir", D, "--fsync",
"batch"])`` (default ``queued`` runtime, a snapshot every 256 journalled
events).  SIGINT stops it the way an operator would; on the way out it
writes its peak RSS, WAL size and (traced) spans to ``F``.

The load generator is this module imported into the benchmark process:
one thread and one keep-alive connection post classroom traffic on a
fixed schedule, interleaving transcript catch-up reads; a second thread
holds one SSE connection (``GET /events``) and stamps every agent reply
as it arrives.  Latencies are measured from each post's *scheduled* send
time, so a stall also counts against the posts queued behind it.
"""

from __future__ import annotations

import argparse
import gc
import http.client
import json
import resource
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import traffic  # noqa: E402
from inproc import SLO_MS, flag_accuracy, verdict  # noqa: E402
from spans import SpanRecorder, derived_values, layer_values, now_ns, percentile  # noqa: E402
from speed import SpeedProbe  # noqa: E402

#: Offered load, about a quarter of what one server sustained on the 2-core
#: machine the benchmark was written on (about 400 posts/s with the reads)
#: and so about half in its slow hours, when the same work takes twice as
#: long.  At 200 posts/s a slow hour pushed the server past capacity and
#: its latencies up fivefold, which no speed scaling can undo.
RATE = 100.0
#: Posts sent closed-loop before the timed window: the first parses and
#: the first full collections of a fresh server happen there.
WARMUP_POSTS = 200
#: One transcript catch-up read after every READ_EVERY posts.
READ_EVERY = 4
PROBE = ("bench-probe", "probe", "What is a stack?")
#: Stop sending once the schedule is this many window-lengths old.
LATE_LIMIT = 3
#: Seconds between the server's speed-probe samples.
PROBE_EVERY_S = 0.05


# ------------------------------------------------------------------ server


def serve_child() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--server", action="store_true")
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    # The stop signal must raise KeyboardInterrupt even when this process
    # inherited an ignored SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    recorder = SpanRecorder()
    if args.trace:
        recorder.install()
    from repro.serving.gateway import ChatGateway

    seen: dict = {}
    gateway_init = ChatGateway.__init__

    def capture(self, system):
        gateway_init(self, system)
        seen["system"] = system
        seen["before"] = _counters(system)

    ChatGateway.__init__ = capture
    # The speed probe times the server's own process (see speed.py); the
    # generator keeps the samples that fall in its timed window.
    probe, stop = SpeedProbe(), threading.Event()

    def probing() -> None:
        while not stop.wait(PROBE_EVERY_S):
            probe.sample()

    threading.Thread(target=probing, daemon=True).start()
    from repro.cli import main

    code = main(["serve", "--port", "0", "--data-dir", args.data_dir, "--fsync", "batch"])
    stop.set()
    out = {
        "code": code,
        "probe": list(zip(probe.stamps, probe.samples)),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "wal_bytes": sum(p.stat().st_size for p in Path(args.data_dir).glob("wal-*.log")),
    }
    system = seen.get("system")
    if args.trace and system is not None:
        recorder.uninstall()
        out.update(
            rows=recorder.rows(),
            gen2=recorder.gen2,
            snapshot_sizes=recorder.snapshot_sizes,
            before=seen["before"],
            after=_counters(system),
        )
    Path(args.out).write_text(json.dumps(out))
    return code


def _counters(system) -> dict:
    info = system.learning_angel.cache_store.info()
    stats = system.stats
    return {
        "hits": info["hits"],
        "misses": info["misses"],
        "faq_hits": stats.faq_hits,
        "answered": stats.questions_answered,
        "retries": system.resilience.counters.retries,
        "quarantined": system.quarantined,
        "shed": system.supervision_shed,
        "records": len(system.corpus),
    }


class Server:
    """A ``repro serve`` child process on an ephemeral port."""

    def __init__(self, workdir: Path, traced: bool, timeout: float = 60.0) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.data_dir = workdir / "data"
        self.out = workdir / "server.json"
        command = [sys.executable, "-u", str(HERE / "serve_load.py"), "--server",
                   "--data-dir", str(self.data_dir), "--out", str(self.out)]
        if traced:
            command.append("--trace")
        self.proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE)
        line = read_line(self.proc, time.monotonic() + timeout)
        if not line.startswith(b"serving on http://"):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split(b"//", 1)[1].split(b" ", 1)[0].rsplit(b":", 1)[1])

    def stop(self, timeout: float = 60.0) -> dict:
        """SIGINT, wait for the clean shutdown, return the child's report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        if self.proc.returncode != 0 or not self.out.exists():
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        return json.loads(self.out.read_text())


def read_line(proc: subprocess.Popen, deadline: float) -> bytes:
    """The child's next stdout line, or b"" if it did not come in time."""
    remaining = deadline - time.monotonic()
    if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
        return b""
    return proc.stdout.readline()


# ------------------------------------------------------------------ client


class Client:
    """One keep-alive JSON connection."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def call(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if data is not None else {}
        self.conn.request(method, path, body=data, headers=headers)
        response = self.conn.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw else {}

    def close(self) -> None:
        self.conn.close()


class EventStream(threading.Thread):
    """Reads ``GET /events`` (no ``?timeout``, so the server never ends
    it) and stamps each agent reply on arrival."""

    def __init__(self, port: int) -> None:
        super().__init__(daemon=True)
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.sendall(b"GET /events HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")
        self.file = self.sock.makefile("rb")
        status = self.file.readline()
        if b" 200 " not in status:
            raise RuntimeError(f"SSE refused: {status!r}")
        while self.file.readline() not in (b"\r\n", b"\n", b""):
            pass
        self.sock.settimeout(None)
        self.replies: list[tuple[int, int, str]] = []  # (arrival, reply_to, sender)
        self.start()

    def run(self) -> None:
        event = None
        try:
            for line in self.file:
                stamp = now_ns()
                if line.startswith(b"event: "):
                    event = line[7:].strip()
                elif line.startswith(b"data: ") and event == b"reply":
                    data = json.loads(line[6:])
                    self.replies.append((stamp, data["reply_to"], data["sender"]))
        except (OSError, ValueError):
            pass  # closed by close()

    def wait_for(self, seq: int, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if any(reply_to == seq for _, reply_to, _ in self.replies):
                return True
            time.sleep(0.002)
        return False

    def settle(self, quiet: float = 0.25, limit: float = 5.0) -> None:
        """Wait until no reply arrived for ``quiet`` seconds."""
        deadline = time.monotonic() + limit
        count = -1
        while count != len(self.replies) and time.monotonic() < deadline:
            count = len(self.replies)
            time.sleep(quiet)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.join(5)
        self.file.close()
        self.sock.close()


def set_up(workdir: Path, traced: bool, load) -> tuple[Server, Client, EventStream, float]:
    """Server listening, rooms made, learners joined, SSE subscribed.

    The probe question proves the SSE subscription is live before the
    timed traffic starts (the server registers a stream only after it
    sent the response headers).
    """
    start = time.monotonic()
    server = Server(workdir, traced)
    client = events = None
    try:
        client = Client(server.port)
        for room in load.rooms + [PROBE[0]]:
            _expect(client.call("POST", "/rooms", {"name": room}), 201)
        for room, user in load.members + [PROBE[:2]]:
            _expect(client.call("POST", f"/rooms/{room}/join", {"user": user}), 200)
        events = EventStream(server.port)
        status, body = client.call(
            "POST", f"/rooms/{PROBE[0]}/messages", {"user": PROBE[1], "text": PROBE[2]}
        )
        _expect((status, body), 202)
        if not events.wait_for(body["message"]["seq"], 30.0):
            raise RuntimeError("no reply to the probe question on the SSE stream")
    except BaseException:
        if events is not None:
            events.close()
        if client is not None:
            client.close()
        server.stop()
        raise
    return server, client, events, time.monotonic() - start


def _expect(response: tuple[int, dict], status: int) -> None:
    if response[0] != status:
        raise RuntimeError(f"expected HTTP {status}, got {response}")


def setup_sample(workdir: Path, seed: int) -> float:
    """One set-up, timed, then a clean shutdown."""
    server, client, events, took = set_up(workdir, False, traffic.classroom(seed))
    events.close()
    client.close()
    server.stop()
    return took


def run(workdir: Path, seed: int, seconds: float, traced: bool) -> dict:
    load = traffic.classroom(seed)
    server, client, events, setup_s = set_up(workdir, traced, load)
    try:
        result = _drive(server, client, events, load, seconds)
    finally:
        events.close()
        client.close()
        report = server.stop()
    result["setup_s"] = setup_s
    raw = result["raw"]
    probe = SpeedProbe()
    for stamp, took in report["probe"]:
        if raw["t0"] <= stamp <= raw["t1"]:
            probe.stamps.append(stamp)
            probe.samples.append(took)
    # Open loop: the throughput is the offered rate, so only latencies
    # scale, each by the server's speed around its scheduled send.
    measured = dict(result["metrics"], peak_rss_mb=report["maxrss_kb"] / 1024)
    result["unscaled"] = dict(measured, **_latencies(raw["timed"]))
    result["metrics"] = dict(measured, **_latencies(raw["timed"], probe.local()))
    result["speed_factor"] = probe.factor()
    if traced:
        result["layers"], result["shares"] = _layers(result.pop("raw"), report)
    else:
        result.pop("raw")
    return result


def _drive(server, client, events, load, seconds) -> dict:
    warmup = load.take(WARMUP_POSTS)
    posts = load.take(int(RATE * seconds))
    cursors = {room: -1 for room in load.rooms}
    in_transcript: set[int] = set()
    records, read_rtts, failures = [], [], []
    reads = 0

    def catch_up(room: str) -> None:
        nonlocal reads
        reads += 1
        sent = now_ns()
        try:
            status, body = client.call("GET", f"/rooms/{room}/transcript?since={cursors[room]}")
        except (OSError, http.client.HTTPException) as exc:
            failures.append(f"transcript read for {room}: {type(exc).__name__}: {exc}")
            client.close()  # the next request reconnects
            return
        read_rtts.append(now_ns() - sent)
        if status != 200:
            failures.append(f"transcript read for {room}: HTTP {status}")
            return
        in_transcript.update(m["seq"] for m in body["messages"])
        cursors[room] = body["next"]

    for i, item in enumerate(warmup):
        status, body = client.call(
            "POST", f"/rooms/{item.room}/messages", {"user": item.user, "text": item.text}
        )
        if status != 202:
            failures.append(f"warm-up post {i}: HTTP {status} {body}")
    # The generator's own collector pauses would delay sends and stamps
    # and be charged to the server; its garbage is small, so the
    # collector stays off for the timed window.
    gc.disable()
    try:
        t0, t1 = _open_loop(client, posts, records, failures, catch_up, seconds)
    finally:
        gc.enable()

    # Outside the timed window: let the stream drain, read every room to
    # its end, then ask /healthz once (it takes the admission lock, so it
    # is never polled while posts are being timed).
    events.settle()
    for room in load.rooms:
        before = -2
        while cursors[room] != before:
            before = cursors[room]
            catch_up(room)
    health_status, health = client.call("GET", "/healthz")
    return _score(records, events.replies, in_transcript, failures, reads,
                  read_rtts, health_status, health, t0, t1)


def _open_loop(client, posts, records, failures, catch_up, seconds) -> tuple[int, int]:
    """Send ``posts`` on a fixed schedule; returns the window (t0, t1)."""
    period = 1e9 / RATE
    t0 = now_ns() + 20_000_000
    give_up = t0 + int(LATE_LIMIT * seconds * 1e9)
    for i, item in enumerate(posts):
        due = t0 + int(i * period)
        pause = due - now_ns()
        if pause > 0:
            time.sleep(pause / 1e9)
        sent = now_ns()
        if sent > give_up:
            # A server this far behind would run the benchmark past its
            # time limit: the posts not yet sent count as failed.
            for j, unsent in enumerate(posts[i:], i):
                failures.append(f"post {j} never sent: the server fell behind")
                records.append((t0 + int(j * period), sent, sent, None, unsent))
            break
        try:
            status, body = client.call(
                "POST", f"/rooms/{item.room}/messages", {"user": item.user, "text": item.text}
            )
        except (OSError, http.client.HTTPException) as exc:
            status, body = 0, {}
            failures.append(f"post {i}: {type(exc).__name__}: {exc}")
            client.close()  # the next request reconnects
        acked = now_ns()
        seq = body["message"]["seq"] if status == 202 else None
        if status not in (0, 202):
            failures.append(f"post {i}: HTTP {status} {body}")
        records.append((due, sent, acked, seq, item))
        if i % READ_EVERY == READ_EVERY - 1:
            catch_up(item.room)
    return t0, now_ns()


def _score(records, replies, in_transcript, failures, reads, read_rtts,
           health_status, health, t0, t1) -> dict:
    first_reply: dict[int, int] = {}
    senders: dict[int, set] = {}
    for stamp, reply_to, sender in replies:
        first_reply.setdefault(reply_to, stamp)
        senders.setdefault(reply_to, set()).add(sender)
    timed, late_ms, pairs = [], [], []
    slo_met = 0
    failed = len(failures)
    for due, sent, acked, seq, item in records:
        late_ms.append((sent - due) / 1e6)
        if seq is None:
            continue  # already counted as a failure; an SLO miss
        got = senders.get(seq, set())
        reply = first_reply[seq] - due if seq in first_reply else None
        timed.append((due, acked - sent, reply, acked - due))
        slo_met += (acked - due if reply is None else reply) <= SLO_MS * 1e6
        if seq not in in_transcript:
            failed += 1
            failures.append(f"seq {seq} acknowledged but missing from the transcript")
        if item.label == "question" and "QA_System" not in got:
            failed += 1
            failures.append(f"question without a QA reply: {item.text!r}")
        pairs.append((item.label, verdict(got)))
    if health_status != 200 or health.get("quarantined") or health.get("shed"):
        failed += max(1, health.get("quarantined", 0) + health.get("shed", 0))
        failures.append(f"healthz: HTTP {health_status} {health}")
    acked = [r for r in records if r[3] is not None]
    window_s = ((acked[-1][2] if acked else t1) - t0) / 1e9
    return {
        "metrics": {
            "throughput_msg_s": len(acked) / window_s,
            "slo_share": slo_met / len(records),
            "flag_accuracy": flag_accuracy(pairs),
        },
        "attempted": WARMUP_POSTS + len(records) + reads + 1,  # + the /healthz read
        "failed": failed,
        "failures": failures[:20],
        "posts": len(records),
        "raw": {
            "t0": t0, "t1": t1, "records": [(r[1], r[2], r[3]) for r in acked], "timed": timed,
            "first_reply": first_reply, "read_ms": [n / 1e6 for n in read_rtts],
            "late_ms": late_ms,
        },
    }


def _latencies(timed, at=lambda stamp: 1.0) -> dict:
    """The latency metrics of ``timed`` rows (scheduled send, round
    trip, scheduled send to first reply or None, scheduled send to ack;
    ns), each scaled by ``at(scheduled send)`` (see speed.py)."""
    rtt, reply, ack = [], [], []
    for due, rtt_ns, reply_ns, ack_ns in timed:
        per_ns = at(due) / 1e6
        rtt.append(rtt_ns * per_ns)
        ack.append(ack_ns * per_ns)
        if reply_ns is not None:
            reply.append(reply_ns * per_ns)
    return {
        "post_p50_ms": percentile(rtt, 0.5),
        "post_p99_ms": percentile(rtt, 0.99),
        "reply_p50_ms": percentile(reply, 0.5),
        "reply_p99_ms": percentile(reply, 0.99),
        "ack_p99_ms": percentile(ack, 0.99),
    }


def _layers(raw: dict, report: dict) -> tuple[dict, dict]:
    """Server spans paired with the generator's stamps, by message seq."""
    t0, t1 = raw["t0"], raw["t1"]
    values, agg = layer_values(report["rows"], t0, t1)
    seqs = agg["seqs"]

    def by_seq(name: str, stamp) -> dict:
        found: dict = {}
        for seq, start, end in seqs.get(name, ()):
            if seq is not None and seq not in found:
                found[seq] = stamp(start, end)
        return found

    gateway = by_seq("serving.gateway.post", lambda s, e: e - s)
    say = by_seq("core.say", lambda s, e: e - s)
    reply_done = by_seq("chatroom.server.post_agent_reply", lambda s, e: e)
    rtt = {seq: acked - sent for sent, acked, seq in raw["records"]}
    first_reply = raw["first_reply"]
    rtt_ms = [n / 1e6 for n in rtt.values()]
    for name, series in (
        ("serving.post_rtt", rtt_ms),
        ("serving.admission_wait", [(gateway[s] - say[s]) / 1e6 for s in gateway if s in say]),
        ("serving.http_self", [(rtt[s] - gateway[s]) / 1e6 for s in rtt if s in gateway]),
        ("serving.fanout_delay",
         [(first_reply[s] - reply_done[s]) / 1e6 for s in reply_done if s in first_reply]),
    ):
        values.update(derived_values(name, series))
    before, after = report["before"], report["after"]
    lookups = after["hits"] + after["misses"] - before["hits"] - before["misses"]
    answered = after["answered"] - before["answered"]
    handler_ns = sum(
        end - start
        for name in ("serving.http.parse", "serving.http.dispatch")
        for _, start, end in agg["seqs"].get(name, ())
    )
    client_ms = sum(rtt_ms) + sum(raw["read_ms"])
    values.update({
        "chatroom.runtime.drain.items": values.get("chatroom.supervisor.on_item.calls", 0),
        "linkgrammar.cache.hit_ratio": (after["hits"] - before["hits"]) / lookups if lookups else 0.0,
        "corpus.records": after["records"],
        "qa.faq.hit_ratio": (after["faq_hits"] - before["faq_hits"]) / answered if answered else 0.0,
        "durability.snapshot.bytes": sum(b for t, b in report["snapshot_sizes"] if t0 <= t <= t1),
        "durability.wal.bytes": report["wal_bytes"],
        "resilience.retries": after["retries"],
        "resilience.quarantined": after["quarantined"],
        "resilience.shed": after["shed"],
        "python.gc.gen2": sum(t0 <= t <= t1 for t in report["gen2"]),
        "loadgen.late_p99_ms": percentile(raw["late_ms"], 0.99),
        # Server handler time over the client's view of the same requests.
        "trace.coverage": handler_ns / 1e6 / client_ms if client_ms else 0.0,
    })
    return values, {name: layer["self_ms"] for name, layer in agg["layers"].items()}


if __name__ == "__main__":
    sys.exit(serve_child())
