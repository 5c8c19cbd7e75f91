"""The resilience controller: guards, admission, quarantine, backfill.

One :class:`ResilienceController` is shared by a runtime and every
pipeline clone/shard-fork it dispatches to.  It owns four concerns:

**Stage guards** (:meth:`guard`): each *pure* pipeline stage call —
parser analysis, semantic review, QA resolution — runs under seeded
fault injection, the stage's circuit breaker and the retry policy.
Transient faults cost virtual backoff and a retry; exhausted retries
raise :class:`StageFailure`, which the worker turns into a quarantine.
The pipeline plans an item's every sentence through the guards *before
committing anything* (see ``SupervisionPipeline.on_item``), and the
single :meth:`guard_commit` crossing sits between plan and commit, so
an injected fault provably strikes before any store write and a
retried or redriven item commits exactly once.

**Admission** (:meth:`admit`): while any breaker is open the item is
*deferred* — delivery already happened, analysis is parked on the
deferred ledger and backfilled when the breaker closes.  Half-open
breakers admit one probe item at a time.

**Quarantine** (:meth:`on_item_failure`): items that fail their guard
budget (or a non-pipeline supervisor that raises) dead-letter into the
:class:`QuarantineStore` with the captured error, journaled to the WAL
when the system is durable.  Parallel-mode workers buffer the journal
rows (the event log is caller-thread-only) and the runtime flushes
them at the barrier.

**Replay planning**: recovery pre-scans the WAL tail and plans each
logged ``quarantine`` event per seq; when replayed supervision reaches
that item, :meth:`consume_replay` short-circuits it straight into the
store — no re-analysis, no double journaling — and logged ``requeue``
events re-submit rows at exactly the drain position the original
redrive used.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, fields
from typing import Callable

from .breaker import STATE_HALF_OPEN, STATE_OPEN, BreakerPolicy, CircuitBreaker
from .faults import NO_RUNTIME_FAULTS
from .quarantine import QuarantinedItem, QuarantineStore
from .retry import BackoffClock, RetryPolicy

#: The breaker-guarded analysis stages, in pipeline order.  ``stores``
#: (the plan→commit crossing) is guarded and retried but never breaks:
#: the stores are in-process — only the *analysis* dependencies are
#: the kind of collaborator that goes down and comes back.
BREAKER_STAGES = ("parser", "semantic", "qa")


class StageFailure(Exception):
    """A guarded stage call failed on every retry attempt."""

    def __init__(self, stage: str, attempts: int, cause: BaseException) -> None:
        super().__init__(f"{stage} failed after {attempts} attempt(s): {cause!r}")
        self.stage = stage
        self.attempts = attempts
        self.cause = cause


@dataclass(slots=True)
class ResilienceCounters:
    """Operator-facing running totals (health registry, CLI reports).

    Deliberately *not* part of :class:`SupervisionStats` or snapshots:
    a healed run must end bit-identical to the fault-free run, and
    these counters are exactly the part that is allowed to differ.
    """

    retries: int = 0
    retry_successes: int = 0
    stage_failures: int = 0
    quarantined: int = 0
    requeued: int = 0
    deferred_total: int = 0
    released: int = 0
    backoff_virtual: float = 0.0
    stall_virtual: float = 0.0

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(ResilienceCounters)}


class ResilienceController:
    """Shared fault-tolerance state for one supervision runtime."""

    def __init__(
        self,
        retry: RetryPolicy | None = None,
        breaker: BreakerPolicy | None = None,
        faults=None,
    ) -> None:
        self.retry = retry or RetryPolicy()
        policy = breaker or BreakerPolicy()
        self.breakers = {stage: CircuitBreaker(policy) for stage in BREAKER_STAGES}
        self.faults = faults if faults is not None else NO_RUNTIME_FAULTS
        self.quarantine = QuarantineStore()
        self.counters = ResilienceCounters()
        self.backoff = BackoffClock()
        #: Deferred ledger: seq -> SupervisionItem, insertion-ordered.
        #: Items parked here were delivered but not analysed (degraded
        #: mode); the runtime releases them back into the queues.
        self.deferred: dict[int, object] = {}
        #: Duck-typed WAL journal (a DurabilityManager) or None.
        self.journal = None
        self._journal_buffer: list[QuarantinedItem] = []
        self._replay_plan: dict[int, deque] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------- guards

    def guard(self, stage: str, key: str, call: Callable):
        """Run one pure stage call under faults, breaker and retries."""
        faults = self.faults
        breaker = self.breakers.get(stage)
        attempts = self.retry.attempts
        attempt = 0
        while True:
            attempt += 1
            try:
                if faults.active:
                    stalled = faults.stall(stage)
                    if stalled:
                        with self._lock:
                            self.counters.stall_virtual += stalled
                    faults.step(stage)
                result = call()
            except Exception as exc:
                with self._lock:
                    self.counters.stage_failures += 1
                    if breaker is not None:
                        breaker.record_failure()
                    if attempt >= attempts:
                        raise StageFailure(stage, attempt, exc) from exc
                    self.counters.retries += 1
                    self.backoff.wait(self.retry.delay(attempt, key))
                    self.counters.backoff_virtual = self.backoff.elapsed
            else:
                with self._lock:
                    if attempt > 1:
                        self.counters.retry_successes += 1
                    if breaker is not None:
                        breaker.record_success()
                return result

    def guard_commit(self, key: str) -> None:
        """The single plan→commit crossing of one item (``stores``).

        Retried like any stage but breaker-free; it runs *before* the
        first store write, so a fault here leaves the item side-effect
        free and safe to retry or redrive.
        """
        self.guard("stores", key, _nothing)

    # ---------------------------------------------------------- admission

    def admit(self, item) -> bool:
        """Decide one item's fate before analysis; False = deferred."""
        with self._lock:
            open_breakers = [b for b in self.breakers.values() if b.state == STATE_OPEN]
            if open_breakers:
                # Each refused admission ticks the cooldown: traffic is
                # what heals a count-based breaker.
                for breaker in open_breakers:
                    breaker.tick()
                self._defer(item)
                return False
            half_open = [b for b in self.breakers.values() if b.state == STATE_HALF_OPEN]
            if half_open:
                if any(b.probe_inflight for b in half_open):
                    self._defer(item)
                    return False
                for breaker in half_open:
                    breaker.probe_inflight = True
            return True

    def on_item_success(self, item) -> None:
        with self._lock:
            for breaker in self.breakers.values():
                breaker.probe_inflight = False

    def on_item_failure(self, item, error: BaseException, defer_journal: bool = False) -> None:
        """Dead-letter one item whose supervision raised.

        A failed half-open probe lands here too (the guard already
        reopened its breaker): quarantining the probe instead of
        re-deferring it is what stops one poison item from flapping
        the breaker and wedging the deferred ledger behind it.
        """
        if isinstance(error, StageFailure):
            stage, attempts, cause = error.stage, error.attempts, error.cause
        else:
            stage, attempts, cause = "dispatch", 1, error
        row = QuarantinedItem.from_item(item, stage=stage, error=repr(cause), attempts=attempts)
        with self._lock:
            for breaker in self.breakers.values():
                breaker.probe_inflight = False
            self.deferred.pop(row.seq, None)
            self.quarantine.add(row)
            self.counters.quarantined += 1
            if self.journal is None:
                return
            if defer_journal:
                # Pool thread: the event log is caller-thread-only, the
                # runtime flushes this buffer at the drain barrier.
                self._journal_buffer.append(row)
                return
        self.journal.item_quarantined(row.to_dict())

    def flush_journal(self) -> None:
        """Journal parallel-mode quarantines (barrier, caller thread)."""
        with self._lock:
            rows, self._journal_buffer = self._journal_buffer, []
        if self.journal is None:
            return
        for row in sorted(rows, key=lambda r: r.seq):
            self.journal.item_quarantined(row.to_dict())

    # ----------------------------------------------------- degraded mode

    def _defer(self, item) -> None:
        seq = item.message.seq
        if seq not in self.deferred:
            self.deferred[seq] = item
            self.counters.deferred_total += 1

    def deferred_seqs(self) -> frozenset:
        with self._lock:
            return frozenset(self.deferred)

    def deferred_rows(self) -> list[dict]:
        """Snapshot rows for the deferred ledger (zero loss across a
        durable shutdown while degraded: restore re-queues them)."""
        with self._lock:
            items = [self.deferred[seq] for seq in sorted(self.deferred)]
        return [QuarantinedItem.from_item(item, stage="deferred").to_dict() for item in items]

    def take_releasable(self) -> list:
        """Deferred items the breakers allow back into the queues.

        Open: none.  Half-open: the single lowest-seq item (the probe).
        Closed: everything, in seq order — the backfill that makes the
        healed state converge to the fault-free run's.
        """
        with self._lock:
            if not self.deferred:
                return []
            states = [b.state for b in self.breakers.values()]
            if STATE_OPEN in states:
                return []
            if STATE_HALF_OPEN in states:
                if any(b.probe_inflight for b in self.breakers.values()):
                    return []
                seqs = [min(self.deferred)]
            else:
                seqs = sorted(self.deferred)
            released = [self.deferred.pop(seq) for seq in seqs]
            self.counters.released += len(released)
            return released

    def on_drain(self) -> None:
        """One drain cycle = one cooldown tick for open breakers."""
        with self._lock:
            for breaker in self.breakers.values():
                breaker.tick()

    @property
    def has_backlog(self) -> bool:
        """Deferred analyses outstanding (blocks snapshot quiescence)."""
        return bool(self.deferred)

    def reset_breakers(self) -> None:
        """Force every breaker closed (operator redrive after healing)."""
        with self._lock:
            for breaker in self.breakers.values():
                breaker.force_close()

    # ------------------------------------------------------------ redrive

    def take_redrive_rows(self) -> list[QuarantinedItem]:
        """Drain the quarantine for an operator redrive (seq order)."""
        with self._lock:
            rows = self.quarantine.take_all()
            self.counters.requeued += len(rows)
            return rows

    # ------------------------------------------------------------- replay

    def plan_replay(self, row: dict) -> None:
        """Pre-scan hook: one logged ``quarantine`` event for a seq."""
        with self._lock:
            self._replay_plan.setdefault(row["seq"], deque()).append(row)

    def consume_replay(self, seq: int) -> dict | None:
        """The planned disposition of this supervision attempt, if any."""
        if not self._replay_plan:
            return None
        with self._lock:
            plan = self._replay_plan.get(seq)
            if not plan:
                return None
            row = plan.popleft()
            if not plan:
                del self._replay_plan[seq]
            return row

    def quarantine_replayed(self, row: dict) -> None:
        """Apply one planned quarantine verbatim (original stage/error
        preserved; the WAL already holds the event, so no re-journal)."""
        with self._lock:
            self.quarantine.add(QuarantinedItem.from_dict(row))
            self.counters.quarantined += 1


def _nothing() -> None:
    return None
