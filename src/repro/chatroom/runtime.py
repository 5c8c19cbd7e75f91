"""The supervision runtime: how agent analysis is scheduled.

``ChatServer`` used to run the full Figure-3 supervision flow inline in
``post``: posting latency grew with agent work, and one hot room stalled
every other room.  The runtime makes the boundary explicit and gives it
four modes:

``inline``
    The legacy shape: supervisors run synchronously inside ``post``, no
    queue machinery at all.  Kept for parity testing and for callers
    that want zero indirection.

``queued`` (default)
    ``post`` is O(1) — it enqueues a :class:`SupervisionItem` and
    returns.  With ``auto_drain`` (the default) the queue is drained
    immediately after each post by a single worker, which is
    **byte-identical** to the inline pipeline: same transcripts, stats,
    corpus records, profiles (asserted by the runtime parity suite).
    With ``auto_drain=False`` the caller drains explicitly and posting
    cost is independent of supervision work.

``sharded``
    Rooms are assigned to N shards by CRC-32; each shard is owned by one
    :class:`SupervisionWorker` with its own pipeline clone and stats.
    Draining batches items.  Agent replies land at drain time (after
    the user messages of the batch), which is the documented
    behavioural difference from the synchronous modes.
    Workers share the corpus/profile/FAQ stores and are drained
    cooperatively in index order on the caller's thread.

``parallel``
    The sharded layout with **shard-local state ownership**: every
    worker's pipeline is a :meth:`~repro.chatroom.supervisor.
    SupervisionPipeline.fork_shard` twin writing to private replicas of
    the corpus, profile and FAQ stores (see :mod:`repro.state`), and
    drain cycles run the workers on a ``ThreadPoolExecutor``.  At the
    cycle barrier the runtime merges every replica back (deterministic
    in any merge order — writes carry their origin seq), flushes the
    buffered agent replies in post order, and re-snapshots the
    replicas.  Because no worker can see another shard's in-flight
    writes, a faulty sentence's corpus suggestion is frozen against the
    barrier snapshot; a per-cycle memo therefore shares it across every
    repeat in the cycle — the shared-store modes search it per item —
    and merged state is identical whatever the thread interleaving.  On
    free-threaded builds the pool adds real core parallelism.

In every mode the pipeline's sentence-analysis cache (see
:mod:`repro.chatroom.supervisor`) serves the corpus-independent
analysis of a repeated sentence across posts, drains and workers.

The cooperative modes are deterministic by construction; ``parallel``
is deterministic in *outcome* (merged stores, stats, transcripts) for a
fixed post/drain schedule, whatever the scheduler does.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

from .shard import SupervisionItem, SupervisionWorker, dispatch, shard_of

RUNTIME_MODES = ("inline", "queued", "sharded", "parallel")

#: Modes that spread rooms across more than one worker.
MULTI_WORKER_MODES = ("sharded", "parallel")


@dataclass(frozen=True, slots=True)
class DrainBudget:
    """When a deferred-mode system should drain itself.

    Attributes:
        max_pending_posts: drain once this many supervision items are
            pending (post-count trigger).
        max_interval: drain once this much *virtual* clock time has
            passed since the last drain (interval trigger — the system
            clock only advances on posts, so this never needs a timer
            thread).

    Both triggers are optional; either firing is enough.  A budget with
    neither set never fires (explicit-drain behaviour).  The serving
    layer depends on this: an HTTP front door posts O(1) and lets the
    budget schedule the analysis work, no caller ``drain()`` required.
    """

    max_pending_posts: int | None = None
    max_interval: float | None = None

    def __post_init__(self) -> None:
        if self.max_pending_posts is not None and self.max_pending_posts < 1:
            raise ValueError("max_pending_posts must be >= 1 (or None)")
        if self.max_interval is not None and self.max_interval <= 0:
            raise ValueError("max_interval must be > 0 (or None)")

    def due(self, pending: int, elapsed: float) -> bool:
        """Whether a drain should fire for this backlog/elapsed pair."""
        if self.max_pending_posts is not None and pending >= self.max_pending_posts:
            return True
        if self.max_interval is not None and elapsed >= self.max_interval:
            return True
        return False


class SupervisionRuntime:
    """Schedules supervision work for a :class:`ChatServer`.

    Args:
        mode: ``inline``, ``queued``, ``sharded`` or ``parallel`` (see
            module docs).
        shards: number of room shards / workers (multi-worker modes
            only; the other modes always run a single worker).
        batch_size: max items one worker processes per drain pass before
            the cycle moves to the next worker (fairness bound); in
            ``parallel`` mode, the per-worker batch between barriers.
        auto_drain: drain after every submitted item.  Defaults to True
            for ``inline``/``queued`` (synchronous semantics) and False
            for the deferred modes (callers drain explicitly, posting is
            O(1)).
        max_pending: per-shard queue bound.  ``None`` = unbounded; with
            a bound, an overloaded shard sheds its *oldest* pending item
            on push (see :class:`~repro.chatroom.shard.ShardQueue`).
            Shed totals surface via :meth:`shed_counts` / :attr:`shed`.
    """

    def __init__(
        self,
        mode: str = "queued",
        shards: int = 1,
        batch_size: int = 64,
        auto_drain: bool | None = None,
        max_pending: int | None = None,
        resilience=None,
    ) -> None:
        if mode not in RUNTIME_MODES:
            raise ValueError(f"unknown runtime mode {mode!r}; expected one of {RUNTIME_MODES}")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if mode not in MULTI_WORKER_MODES:
            shards = 1
        self.mode = mode
        self.batch_size = batch_size
        self.auto_drain = (mode in ("inline", "queued")) if auto_drain is None else auto_drain
        self.max_pending = max_pending
        self.workers = [SupervisionWorker(index, max_pending) for index in range(shards)]
        if resilience is None:
            # Every runtime gets a controller: a supervisor error must
            # dead-letter its item instead of aborting the drain, even
            # on a bare runtime nobody wired fault policies into.
            # Imported lazily — the resilience package depends on this
            # module's siblings, never the other way around at import.
            from repro.resilience.controller import ResilienceController

            resilience = ResilienceController()
        self.resilience = resilience
        self._prototypes: list = []
        self._draining = False
        # Parallel mode: per-worker shard-store bundles (replicas +
        # outboxes), supervisors without fork support (dispatched at the
        # barrier on the caller's thread), and the lazily built pool.
        self._bindings: list[list] = [[] for _ in self.workers]
        self._barrier_supervisors: list = []
        self._executor: ThreadPoolExecutor | None = None

    # --------------------------------------------------------- supervisors

    @property
    def supervisors(self) -> tuple:
        """The registered supervisor prototypes (worker 0's instances).

        A tuple on purpose: the pre-runtime ``server.supervisors.append``
        registration pattern must fail loudly — appended supervisors
        would never be dispatched.  Use :meth:`add_supervisor`.
        """
        return tuple(self._prototypes)

    def add_supervisor(self, supervisor) -> None:
        """Register a supervisor across all workers.

        Cooperative modes: worker 0 gets the object itself; further
        workers get per-worker clones when the supervisor supports it
        (``clone()``), so each worker owns its shard's pipeline state
        and stats.  Supervisors without ``clone`` are assumed stateless
        and shared as-is.

        ``parallel`` mode: *every* worker (index 0 included) gets a
        ``fork_shard()`` twin owning private store replicas — the
        prototype itself never runs on a pool thread.  Supervisors
        without ``fork_shard`` are dispatched at the drain barrier on
        the caller's thread, in post order, after the merge.
        """
        self._prototypes.append(supervisor)
        if self.mode == "parallel":
            fork = getattr(supervisor, "fork_shard", None)
            if fork is None:
                self._barrier_supervisors.append(supervisor)
                return
            for worker in self.workers:
                shard_pipeline, stores = fork()
                worker.supervisors.append(shard_pipeline)
                self._bindings[worker.index].append(stores)
            return
        clone = getattr(supervisor, "clone", None)
        for worker in self.workers:
            if worker.index == 0 or clone is None:
                worker.supervisors.append(supervisor)
            else:
                worker.supervisors.append(clone())

    # ------------------------------------------------------------ schedule

    def submit(self, server, item: SupervisionItem) -> None:
        """Hand one delivered user message to the runtime."""
        if self.mode == "inline":
            worker = self.workers[0]
            if worker.supervise_item(server, item, None, self.resilience):
                worker.processed += 1
            return
        worker = self.workers[shard_of(item.room.name, len(self.workers))]
        worker.enqueue(item)
        # A supervisor posting user-visible follow-ups during a drain must
        # not recurse; the outer drain loop picks the new item up.
        if self.auto_drain and not self._draining:
            self.drain(server)

    def drain(self, server) -> int:
        """Drain every queue to empty; returns the number of items done.

        Cooperative modes: workers run in index order, ``batch_size``
        items per pass, and the cycle repeats until no queue holds work
        (items enqueued *during* the drain — e.g. by a
        supervisor-triggered post — are included).

        ``parallel`` mode: see :meth:`_drain_parallel`.
        """
        if self._draining:
            return 0
        self._draining = True
        done = 0
        resilience = self.resilience
        try:
            if resilience is not None:
                # One drain = one cooldown tick for open breakers, so a
                # degraded system heals from drain traffic alone even
                # when no new messages arrive to tick it via admission.
                resilience.on_drain()
            if self.mode == "parallel":
                done = self._drain_parallel(server)
            else:
                progressed = True
                while progressed:
                    progressed = False
                    if resilience is not None:
                        released = resilience.take_releasable()
                        if released:
                            self.requeue_items(released)
                    for worker in self.workers:
                        n = worker.drain(server, self.batch_size, resilience)
                        if n:
                            done += n
                            progressed = True
        finally:
            self._draining = False
        return done

    def _drain_parallel(self, server) -> int:
        """Drain in barrier-separated cycles on the worker pool.

        Each cycle: the caller's thread pops every worker's next batch
        (queues are never touched from pool threads), ships the batches
        to the pool, and waits — the barrier.  Then, still on the
        caller's thread, it merges every shard replica back into the
        base stores (order-independent: buffered writes carry their
        origin seq), flushes the buffered agent replies in post order,
        re-snapshots the replicas, and hands barrier-registered
        observers the cycle's items in post order.  The memo shared by
        the cycle's workers is discarded with the cycle: its corpus
        suggestions were searched in the cycle's snapshot and must not
        outlive it.
        """
        executor = self._executor
        if executor is None:
            executor = self._executor = ThreadPoolExecutor(
                max_workers=len(self.workers),
                thread_name_prefix="supervision-shard",
            )
        resilience = self.resilience
        done = 0
        while True:
            if resilience is not None:
                released = resilience.take_releasable()
                if released:
                    self.requeue_items(released)
            batches = [worker.take_batch(self.batch_size) for worker in self.workers]
            cycle_items = sum(len(batch) for batch in batches)
            if cycle_items == 0:
                return done
            memo: dict = {}
            futures = [
                executor.submit(worker.process_batch, server, batch, memo, resilience)
                for worker, batch in zip(self.workers, batches)
                if batch
            ]
            # Every batch must finish before the barrier lifts — even when
            # one fails.  Re-raising while a sibling batch still runs would
            # let a retried drain() hand that worker's replica to the pool
            # while the old thread is still writing it.
            wait(futures)
            if any(future.exception() is not None for future in futures):
                # Requeue each failed batch's unprocessed tail (caller's
                # thread — queues are never touched from the pool) so a
                # mid-batch failure drops only the item that raised.
                # Replicas stay unmerged: their buffered writes carry
                # origin tags and fold in at the next successful barrier.
                for worker in self.workers:
                    if worker.unprocessed:
                        worker.queue.requeue_front(worker.unprocessed)
                        worker.unprocessed = []
            handled = 0
            for future in futures:
                handled += future.result()  # re-raises the first worker error
            for bindings in self._bindings:
                for stores in bindings:
                    stores.merge()
            for bindings in self._bindings:
                for stores in bindings:
                    stores.rebase()
            replies: list = []
            for bindings in self._bindings:
                for stores in bindings:
                    replies.extend(stores.take_replies())
            replies.sort(key=lambda reply: (reply[0], reply[1]))
            for _seq, _n, room, agent, text, message, severity in replies:
                server.post_agent_reply(room, agent, text, message, severity)
            if resilience is not None:
                # Quarantine rows buffered on pool threads journal here,
                # on the caller's thread — the event log is not
                # thread-safe and must never be written from the pool.
                resilience.flush_journal()
            if self._barrier_supervisors:
                deferred = resilience.deferred_seqs() if resilience is not None else ()
                items = sorted(
                    (
                        item
                        for batch in batches
                        for item in batch
                        if item.message.seq not in deferred
                    ),
                    key=lambda item: item.message.seq,
                )
                for item in items:
                    for supervisor in self._barrier_supervisors:
                        dispatch(supervisor, server, item, None)
            done += handled

    def requeue_items(self, items: list[SupervisionItem]) -> None:
        """Put items back at the front of their shards' queues, in seq
        order — released deferred work, redriven quarantine rows and
        snapshot-restored backlog all re-enter here.  Front placement
        keeps global commit order: re-entering items always predate
        whatever is still queued behind them."""
        if not items:
            return
        shards = len(self.workers)
        by_shard: dict[int, list[SupervisionItem]] = {}
        for item in sorted(items, key=lambda item: item.message.seq):
            by_shard.setdefault(shard_of(item.room.name, shards), []).append(item)
        for index, group in by_shard.items():
            self.workers[index].queue.requeue_front(group)

    # ------------------------------------------------------------- reports

    @property
    def pending(self) -> int:
        """Queued items not yet supervised (0 in the synchronous modes)."""
        return sum(worker.pending for worker in self.workers)

    @property
    def shards(self) -> int:
        return len(self.workers)

    def worker_loads(self) -> list[int]:
        """Items processed per worker (shard balance diagnostics)."""
        return [worker.processed for worker in self.workers]

    def shed_counts(self) -> list[int]:
        """Items shed per shard by the backpressure bound."""
        return [worker.shed for worker in self.workers]

    def shed_events(self) -> list:
        """Structured shed events across all shards, in message order.

        Each event names the dropped message (room, seq) and the reason,
        so the supervisor report and ``health`` can show *what* went
        unsupervised, not just how much (bounded per shard — see
        :attr:`~repro.chatroom.shard.ShardQueue.SHED_EVENT_KEEP`).
        """
        events = [
            event for worker in self.workers for event in worker.queue.shed_events
        ]
        events.sort(key=lambda event: event.seq)
        return events

    @property
    def shed(self) -> int:
        """Total items shed across all shards (0 when unbounded)."""
        return sum(worker.shed for worker in self.workers)

    def close(self) -> None:
        """Shut down the ``parallel`` thread pool (idempotent; the
        cooperative modes have nothing to release)."""
        executor = self._executor
        if executor is not None:
            self._executor = None
            executor.shutdown(wait=True)
