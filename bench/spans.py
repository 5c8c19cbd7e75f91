"""Span recording from outside the program, and self-time aggregation.

The traced run wraps public methods of each layer *at class level*:
several classes (``DurabilityManager``, ``EventLog``, ...) declare
``__slots__``, so an instance attribute cannot shadow a method, but
replacing the function on the class reaches every instance, including
ones built before the wrapper was installed.

A span is ``(name, start_ns, end_ns, parent, seq)`` with times from
``time.monotonic_ns`` (``CLOCK_MONOTONIC`` on Linux, so spans recorded
in the server process pair with stamps taken by the load generator).
Spans nest per thread; a span with no seq of its own inherits the one
of its nearest ancestor, so every layer's work is attributed to the
chat message that caused it.  Garbage-collector pauses are recorded as
child spans of whatever was running, via ``gc.callbacks``.
"""

from __future__ import annotations

import gc
import importlib
import threading
import time
from array import array
from collections import defaultdict

now_ns = time.monotonic_ns


def _arg(position: int, keyword: str):
    """Extractor for a call argument given positionally or by keyword
    (position counts ``self`` as 0)."""

    def pick(args, kwargs):
        if len(args) > position:
            return args[position]
        return kwargs.get(keyword)

    return pick


def _user_seq(message):
    return message.seq if message.kind.value == "user" else None


# (module, class, method, span name, seq from (args, kwargs), seq from result)
TARGETS = (
    ("repro.serving.http", "ChatRequestHandler", "parse_request", "serving.http.parse", None, None),
    ("repro.serving.http", "ChatRequestHandler", "_dispatch", "serving.http.dispatch", None, None),
    ("repro.serving.gateway", "ChatGateway", "post", "serving.gateway.post", None,
     lambda r: r["message"]["seq"]),
    ("repro.serving.gateway", "ChatGateway", "transcript_since", "serving.transcript_since", None, None),
    ("repro.core.system", "ELearningSystem", "say", "core.say", None, lambda r: r.seq),
    ("repro.core.system", "ELearningSystem", "drain", "core.drain", None, None),
    ("repro.chatroom.server", "ChatServer", "post", "chatroom.server.post", None, _user_seq),
    ("repro.chatroom.server", "ChatServer", "post_agent_reply", "chatroom.server.post_agent_reply",
     lambda a, k: _arg(4, "in_reply_to")(a, k).seq, None),
    ("repro.chatroom.runtime", "SupervisionRuntime", "submit", "chatroom.runtime.submit",
     lambda a, k: _arg(2, "item")(a, k).message.seq, None),
    ("repro.chatroom.runtime", "SupervisionRuntime", "drain", "chatroom.runtime.drain", None, None),
    ("repro.chatroom.supervisor", "SupervisionPipeline", "on_item", "chatroom.supervisor.on_item",
     lambda a, k: _arg(2, "item")(a, k).message.seq, None),
    ("repro.agents.learning_angel", "LearningAngelAgent", "review", "agents.learning_angel.review", None, None),
    ("repro.agents.learning_angel", "LearningAngelAgent", "record", "agents.learning_angel.record", None, None),
    ("repro.agents.semantic_agent", "SemanticAgent", "review", "agents.semantic_agent.review", None, None),
    ("repro.linkgrammar.robust", "RobustAnalyzer", "analyze", "linkgrammar.analyze", None, None),
    ("repro.linkgrammar.repair", "SentenceRepairer", "repair", "linkgrammar.repair", None, None),
    ("repro.linkgrammar.parser", "Parser", "parse", "linkgrammar.parse", None, None),
    ("repro.ontology.model", "Ontology", "relations_from", "ontology.relations_from", None, None),
    ("repro.corpus.search", "SuggestionSearch", "best_sentence", "corpus.best_sentence", None, None),
    ("repro.corpus.store", "LearnerCorpus", "add", "corpus.add", None, None),
    ("repro.qa.engine", "QASystem", "resolve", "qa.resolve", None, None),
    ("repro.qa.engine", "QASystem", "apply_resolution", "qa.apply_resolution", None, None),
    ("repro.profiles.store", "UserProfileStore", "record_activity", "profiles.record_activity", None, None),
    ("repro.durability.manager", "DurabilityManager", "message_posted", "durability.message_posted", None, None),
    ("repro.durability.manager", "DurabilityManager", "snapshot", "durability.snapshot", None, None),
    ("repro.durability.wal", "EventLog", "sync", "durability.wal.sync", None, None),
)
GC_SPAN = "python.gc.pause"
SPAN_NAMES = tuple(target[3] for target in TARGETS) + (GC_SPAN,)


class _Track:
    """One thread's spans, column-wise in flat integer arrays.

    Arrays hold no Python objects, so recording adds nothing for the
    garbage collector to traverse: a span log of objects would make the
    very collections the trace measures slower.
    """

    __slots__ = ("name", "start", "end", "parent", "seq", "stack")

    def __init__(self) -> None:
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.seq = array("q")
        self.stack: list[int] = []

    def open(self, code: int, seq) -> int:
        index = len(self.start)
        stack = self.stack
        self.name.append(code)
        self.parent.append(stack[-1] if stack else -1)
        self.seq.append(-1 if seq is None else seq)
        self.end.append(0)
        self.start.append(now_ns())
        stack.append(index)
        return index


class SpanRecorder:
    """In-memory span log fed by class-level method wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.gen2: list[int] = []  # start stamps of generation-2 collections
        self.snapshot_sizes: list[tuple[int, int]] = []  # (stamp, bytes)
        self._tracks: list[_Track] = []
        self._local = threading.local()
        self._restore: list[tuple[type, str, object | None]] = []

    def _track(self) -> _Track:
        track = getattr(self._local, "track", None)
        if track is None:
            track = self._local.track = _Track()
            self._tracks.append(track)
        return track

    def _code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, cls: type, attr: str, name: str, seq_in=None, seq_out=None) -> None:
        own = attr in cls.__dict__  # else inherited: the wrapper shadows it on cls
        original = getattr(cls, attr)
        code = self._code(name)
        track_of = self._track

        def traced(*args, **kwargs):
            track = track_of()
            index = track.open(code, seq_in(args, kwargs) if seq_in is not None else None)
            try:
                result = original(*args, **kwargs)
            finally:
                track.end[index] = now_ns()
                track.stack.pop()
            if seq_out is not None:
                seq = seq_out(result)
                if seq is not None:
                    track.seq[index] = seq
            return result

        traced.__wrapped__ = original
        traced.__name__ = original.__name__
        traced.__qualname__ = original.__qualname__
        setattr(cls, attr, traced)
        self._restore.append((cls, attr, original if own else None))

    def install(self) -> None:
        """Wrap every target and start recording GC pauses."""
        for module, cls_name, attr, name, seq_in, seq_out in TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            self.wrap(cls, attr, name, seq_in, seq_out)
        from repro.durability.manager import DurabilityManager

        snapshot = DurabilityManager.snapshot  # the traced wrapper
        recorder = self

        def snapshot_with_size(self, system):
            path = snapshot(self, system)
            if path is not None:
                recorder.snapshot_sizes.append((now_ns(), path.stat().st_size))
            return path

        DurabilityManager.snapshot = snapshot_with_size
        self._gc_code = self._code(GC_SPAN)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._restore:
            cls, attr, original = self._restore.pop()
            if original is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)

    def _on_gc(self, phase: str, info: dict) -> None:
        track = self._track()
        if phase == "start":
            index = track.open(self._gc_code, None)
            if info.get("generation") == 2:
                self.gen2.append(track.start[index])
        elif track.stack and track.name[track.stack[-1]] == self._gc_code:
            track.end[track.stack.pop()] = now_ns()

    def rows(self) -> list[list]:
        """Spans as plain rows ``[name, start, end, parent_index, seq]``
        (parents by index into the returned list, -1 for a root; seq None
        when unknown; end 0 for a span still open when recording stopped)."""
        rows: list[list] = []
        for track in self._tracks:
            base = len(rows)
            for code, start, end, parent, seq in zip(
                track.name, track.start, track.end, track.parent, track.seq
            ):
                rows.append([self.names[code], start, end,
                             base + parent if parent >= 0 else -1, None if seq < 0 else seq])
        return rows


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return float(ordered[int(rank) - 1])


def aggregate(rows: list[list], t0: int, t1: int) -> dict:
    """Per-span-name calls, summed self time and p95 of the finished
    spans that lie within ``[t0, t1]``.

    Self time is a span's duration minus the durations of its direct
    children.  Returns ``{"layers": {name: {...}}, "seqs": ...}`` where
    ``seqs`` maps name -> list of (seq, start, end) for pairing.
    """
    inside = [
        i for i, row in enumerate(rows) if row[1] >= t0 and 0 < row[2] <= t1
    ]
    child_time = defaultdict(int)
    for i in inside:
        parent = rows[i][3]
        if parent >= 0:
            child_time[parent] += rows[i][2] - rows[i][1]

    def seq_of(i: int):
        while i >= 0:
            if rows[i][4] is not None:
                return rows[i][4]
            i = rows[i][3]
        return None

    durations = defaultdict(list)
    self_ns = defaultdict(int)
    seqs = defaultdict(list)
    for i in inside:
        name, start, end = rows[i][0], rows[i][1], rows[i][2]
        durations[name].append(end - start)
        self_ns[name] += end - start - child_time[i]
        seqs[name].append((seq_of(i), start, end))
    layers = {
        name: {
            "calls": len(values),
            "self_ms": self_ns[name] / 1e6,
            "p95_ms": percentile(values, 0.95) / 1e6,
        }
        for name, values in durations.items()
    }
    return {"layers": layers, "seqs": seqs}


def derived_values(name: str, series_ms: list[float]) -> dict:
    """calls / self_ms / p95_ms of a paired quantity (name -> value)."""
    return {
        f"{name}.calls": len(series_ms),
        f"{name}.self_ms": float(sum(series_ms)),
        f"{name}.p95_ms": percentile(series_ms, 0.95),
    }


def layer_values(rows: list[list], t0: int, t1: int) -> tuple[dict, dict]:
    """Per-layer metric values for the window ``[t0, t1]``.

    Adds the pairings every workload shares: ``chatroom.queue_wait``
    (runtime submit -> supervisor ``on_item``, by message seq) and the
    first- vs last-quarter snapshot cost.  Returns the values and the
    raw aggregate, for a workload's own pairings.
    """
    agg = aggregate(rows, t0, t1)
    values = {}
    for name, stats in agg["layers"].items():
        for key, value in stats.items():
            values[f"{name}.{key}"] = value
    seqs = agg["seqs"]
    submitted = {
        seq: start for seq, start, _ in seqs.get("chatroom.runtime.submit", ()) if seq is not None
    }
    values.update(derived_values("chatroom.queue_wait", [
        (start - submitted[seq]) / 1e6
        for seq, start, _ in seqs.get("chatroom.supervisor.on_item", ())
        if seq in submitted
    ]))
    quarter = (t1 - t0) // 4
    snapshots = seqs.get("durability.snapshot", ())
    for label, chosen in (
        ("q1", [end - start for _, start, end in snapshots if start < t0 + quarter]),
        ("q4", [end - start for _, start, end in snapshots if start >= t1 - quarter]),
    ):
        values[f"durability.snapshot.{label}_ms"] = sum(chosen) / len(chosen) / 1e6 if chosen else 0.0
    return values, agg
