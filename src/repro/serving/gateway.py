"""The admission layer between the network and the single-writer core.

``ELearningSystem`` is single-writer by design: the global message
sequence, the simulated clock, the supervision queues and every store
assume one mutating caller at a time.  A :class:`ChatGateway` owns that
contract for the serving layer — every mutation (room creation, joins,
leaves, posts) is serialized through one **admission lock**, while
transcript reads go through the seq-indexed
:meth:`~repro.chatroom.room.ChatRoom.messages_since` path and only take
the lock for the bisect + slice, never for the wait.

Two read shapes are served:

* **long-poll** — :meth:`transcript_since` returns every message with a
  seq above the client's cursor, blocking (on a condition variable tied
  to the admission lock) until new traffic arrives or the wait budget
  expires.  Handler threads waiting here hold no lock, so posts keep
  flowing.
* **SSE fan-out** — :meth:`open_stream` registers a thread-safe queue
  that receives supervision verdicts (``AgentIntervened``) and agent
  replies (agent-kind ``MessageDelivered``) straight off the system's
  :class:`~repro.chatroom.events.EventBus`; the HTTP layer turns the
  queue into a ``text/event-stream``.

Error mapping is explicit: gateway methods raise :class:`ApiError` with
the HTTP status the condition deserves (404 unknown room, 403 posting
while absent, 409 duplicate room, 400 malformed input), so a handler
failure becomes a status code instead of a torn connection.
"""

from __future__ import annotations

import queue
import threading
import time

from repro.chatroom.events import AgentIntervened, MessageDelivered
from repro.chatroom.messages import MessageKind, Role
from repro.chatroom.transcript_io import message_to_dict


class ApiError(Exception):
    """A request failure with the HTTP status it maps to."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


#: Default per-request cap on a long-poll wait (seconds).  Clients may ask
#: for less; asking for more is clamped so a forgotten poller cannot pin a
#: handler thread forever.
MAX_POLL_WAIT = 30.0


class ChatGateway:
    """Serialized admission + indexed reads over one ``ELearningSystem``."""

    def __init__(self, system) -> None:
        self.system = system
        # One reentrant admission lock; the delivery condition shares it
        # so a post's notify happens under the lock the post already
        # holds, and a poller's wait atomically releases it.
        self._admission = threading.RLock()
        self._delivered = threading.Condition(self._admission)
        self._streams: list[queue.Queue] = []
        self._streams_lock = threading.Lock()
        bus = system.bus
        bus.subscribe(MessageDelivered, self._on_delivered)
        bus.subscribe(AgentIntervened, self._on_verdict)

    # ----------------------------------------------------------- mutations

    def create_room(self, name: str, topic: str = "") -> dict:
        if not name:
            raise ApiError(400, "room name must be non-empty")
        with self._admission:
            if name in self.system.server.rooms:
                raise ApiError(409, f"room {name!r} already exists")
            room = self.system.open_room(name, topic=topic)
            return {"room": room.name, "topic": room.topic}

    def join(self, room: str, user: str, role: str = "student") -> dict:
        if not user:
            raise ApiError(400, "user must be non-empty")
        try:
            parsed = Role(role)
        except ValueError:
            raise ApiError(400, f"unknown role {role!r}") from None
        with self._admission:
            self._room(room)
            joined = self.system.join(room, user, parsed)
            return {"room": room, "user": user, "role": parsed.value, "joined": joined}

    def leave(self, room: str, user: str) -> dict:
        with self._admission:
            self._room(room)
            # ``left`` surfaces the no-op: leaving a room the user never
            # joined is 200-with-false, not an invented UserLeft.
            left = self.system.leave(room, user)
            return {"room": room, "user": user, "left": left}

    def post(self, room: str, user: str, text: str) -> dict:
        if not text:
            raise ApiError(400, "text must be non-empty")
        with self._admission:
            target = self._room(room)
            if not target.is_member(user):
                raise ApiError(403, f"{user!r} is not in room {room!r}")
            # say() enqueues O(1); the configured DrainBudget (or the
            # queued runtime's auto-drain) schedules the agent work.
            message = self.system.say(room, user, text)
            return {
                "message": message_to_dict(message),
                "pending_supervision": self.system.pending_supervision,
            }

    # --------------------------------------------------------------- reads

    def transcript_since(
        self, room: str, since: int = -1, wait: float = 0.0, limit: int | None = None
    ) -> dict:
        """Messages with seq > ``since``, long-polling up to ``wait`` seconds.

        Returns at once when the cursor is behind the transcript;
        otherwise blocks on the delivery condition until any message
        (user, agent or system) is delivered anywhere — cheap spurious
        wakeups for other rooms' traffic, re-checked by the bisect —
        or the wait budget runs out (then: an empty page, same cursor).
        """
        wait = max(0.0, min(float(wait), MAX_POLL_WAIT))
        deadline = time.monotonic() + wait
        with self._delivered:
            target = self._room(room)
            while True:
                messages = target.messages_since(since)
                if messages or wait <= 0.0:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    break
                self._delivered.wait(remaining)
        if limit is not None:
            messages = messages[:limit]
        next_seq = messages[-1].seq if messages else since
        return {
            "room": room,
            "since": since,
            "next": next_seq,
            "messages": [message_to_dict(m) for m in messages],
        }

    def health(self) -> dict:
        """The summary ``GET /healthz`` serves: the health registry's
        overall status (``ok``/``degraded``) plus counters."""
        system = self.system
        with self._admission:
            return {
                "status": system.health().status,
                "rooms": len(system.server.rooms),
                "messages": system.server.total_messages(),
                "pending_supervision": system.pending_supervision,
                "quarantined": system.quarantined,
                "shed": system.supervision_shed,
                "runtime": system.config.runtime_mode,
            }

    # ------------------------------------------------------------- streams

    def open_stream(self, max_events: int = 1024) -> queue.Queue:
        """Register an SSE subscriber queue (bounded: a stalled client
        drops its own oldest events, never blocks the posting path)."""
        stream: queue.Queue = queue.Queue(maxsize=max_events)
        with self._streams_lock:
            self._streams.append(stream)
        return stream

    def close_stream(self, stream: queue.Queue) -> None:
        with self._streams_lock:
            try:
                self._streams.remove(stream)
            except ValueError:
                pass  # already closed (idempotent)

    def _fan_out(self, event: str, data: dict) -> None:
        with self._streams_lock:
            streams = tuple(self._streams)
        for stream in streams:
            while True:
                try:
                    stream.put_nowait((event, data))
                    break
                except queue.Full:  # shed the subscriber's oldest event
                    try:
                        stream.get_nowait()
                    except queue.Empty:
                        pass

    # ------------------------------------------------------------ internal

    def _room(self, name: str):
        room = self.system.server.rooms.get(name)
        if room is None:
            raise ApiError(404, f"no room named {name!r}")
        return room

    def _on_delivered(self, event) -> None:
        # Publishes happen inside gateway mutations, so the RLock is
        # already held by this thread — re-entering is cheap and makes
        # the notify legal from any caller that drives the bus directly.
        with self._delivered:
            self._delivered.notify_all()
        message = event.message
        if message.kind is MessageKind.AGENT:
            self._fan_out("reply", message_to_dict(message))

    def _on_verdict(self, event) -> None:
        self._fan_out(
            "verdict",
            {
                "room": event.room,
                "agent": event.agent,
                "severity": event.severity,
                "in_reply_to": event.in_reply_to,
                "timestamp": event.timestamp,
            },
        )
