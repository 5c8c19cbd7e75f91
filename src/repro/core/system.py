"""The e-learning chat system facade (Figure 3, assembled).

``ELearningSystem`` wires every subsystem the paper's architecture diagram
shows: the augmentative chat room with its supervision flow
(Learning_Angel → Semantic Agent → QA), the Distance Learning Ontology,
the Learner Corpus, the User Profile database and the FAQ database.  This
is the public entry point a downstream user starts from::

    from repro import ELearningSystem

    system = ELearningSystem.with_defaults()
    room = system.open_room("ds-101", topic="stacks")
    system.join("ds-101", "alice")
    system.say("ds-101", "alice", "What is Stack?")
    print(room.transcript[-1].text)   # the QA system's answer
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.agents.learning_angel import LearningAngelAgent
from repro.agents.recommender import Recommendation, TeachingMaterialRecommender
from repro.agents.semantic_agent import SemanticAgent
from repro.chatroom.clock import SimulatedClock
from repro.chatroom.events import EventBus
from repro.chatroom.messages import ChatMessage, Role
from repro.chatroom.room import ChatRoom
from repro.chatroom.runtime import DrainBudget, SupervisionRuntime
from repro.chatroom.server import ChatServer
from repro.chatroom.supervisor import SupervisionPipeline, SupervisionPolicy, SupervisionStats
from repro.corpus.generator import CorporaGenerator
from repro.corpus.index import IndexConfig
from repro.corpus.statistics import CorpusReport, StatisticAnalyzer
from repro.corpus.store import LearnerCorpus
from repro.linkgrammar.dictionary import Dictionary
from repro.linkgrammar.lexicon import default_dictionary
from repro.linkgrammar.parser import ParseOptions
from repro.nlp.keywords import KeywordFilter
from repro.ontology.model import Ontology
from repro.ontology.domains import default_ontology
from repro.profiles.store import UserProfileStore
from repro.qa.engine import QASystem
from repro.qa.faq import FAQDatabase
from repro.qa.mining import QAMiner
from repro.resilience.controller import ResilienceController
from repro.resilience.health import HealthReport, build_health
from repro.resilience.quarantine import rebuild_item


@dataclass(slots=True)
class SystemConfig:
    """Construction knobs for :class:`ELearningSystem`.

    Attributes:
        seed_corpus: pre-populate the learner corpus from the ontology
            (the Corpora Generator step of Figure 3).
        policy: supervision reply policy.
        parse_options: link-grammar parser options.
        related_threshold: semantic distance threshold (section 4.3).
        clock_tick: seconds the clock advances per posted message.
        runtime_mode: how supervision is scheduled — ``inline``,
            ``queued`` (default; drain-after-post, byte-identical to
            inline), ``sharded`` (rooms sharded across workers, agent
            work drained in deduplicated batches off the posting path)
            or ``parallel`` (sharded with shard-local store replicas,
            drained on a thread pool and merged at barriers — see
            docs/runtime.md).
        shards: worker/shard count for the ``sharded``/``parallel``
            modes.
        supervision_batch: items per worker per drain pass.
        auto_drain: drain after every post; None picks the mode default
            (True for inline/queued, False for sharded/parallel).
        max_pending: per-shard supervision queue bound; an overloaded
            shard sheds its oldest pending item (None = unbounded).
        drain_budget: a :class:`repro.chatroom.DrainBudget` that
            auto-fires :meth:`ELearningSystem.drain` from ``say()`` in
            the deferred-drain modes once the pending backlog or the
            virtual time since the last drain crosses its thresholds;
            None (default) leaves draining to the caller.
        corpus_index: learner-corpus index knobs (postings stopword-DF
            tiering — see docs/corpus.md); None uses the defaults.
        corpus_segment_records: freeze cadence for the corpus disk
            segment tier — once the in-RAM tail holds this many records
            a drain barrier seals them into an immutable mmap-backed
            segment file (see docs/corpus.md, "The segment tier").
            None (default) keeps the whole corpus in RAM.
        corpus_segment_dir: directory for the frozen segment files;
            None places them under ``data_dir/segments`` for durable
            systems and in an owned temporary directory otherwise.
        data_dir: durable-state directory (write-ahead event log +
            snapshots — see docs/durability.md); None (default) runs
            fully in-memory.  The directory must be empty or new; open
            an existing one with :meth:`ELearningSystem.recover`.
        fsync: when log/snapshot writes reach the disk — ``always``
            (fsync every appended event), ``batch`` (default; fsync at
            segment rolls, snapshots and close) or ``never`` (leave it
            to the OS page cache).
        snapshot_every: journalled events between periodic snapshots
            (None disables periodic snapshots; ``close()`` still writes
            a final one).
        fault_clock: a :class:`repro.durability.faults.FaultClock` for
            crash-point testing; None (production) runs fault-free.
        retry: a :class:`repro.resilience.RetryPolicy` for the pipeline
            stage guards; None uses the defaults (3 attempts, seeded
            virtual backoff).
        breaker: a :class:`repro.resilience.BreakerPolicy` shared by the
            per-stage circuit breakers; None uses the defaults.
        runtime_faults: a :class:`repro.resilience.RuntimeFaultPlan`
            injecting seeded exceptions/latency into the analysis stages
            (chaos testing); None (production) runs fault-free.
    """

    seed_corpus: bool = True
    policy: SupervisionPolicy = field(default_factory=SupervisionPolicy)
    parse_options: ParseOptions = field(default_factory=ParseOptions)
    related_threshold: float = 2.0
    clock_tick: float = 1.0
    runtime_mode: str = "queued"
    shards: int = 1
    supervision_batch: int = 64
    auto_drain: bool | None = None
    max_pending: int | None = None
    drain_budget: DrainBudget | None = None
    corpus_index: IndexConfig | None = None
    corpus_segment_records: int | None = None
    corpus_segment_dir: str | None = None
    data_dir: str | None = None
    fsync: str = "batch"
    snapshot_every: int | None = 256
    fault_clock: object | None = None
    retry: object | None = None
    breaker: object | None = None
    runtime_faults: object | None = None


class ELearningSystem:
    """Everything in Figure 3, wired together and ready to chat."""

    def __init__(
        self,
        dictionary: Dictionary,
        ontology: Ontology,
        config: SystemConfig | None = None,
    ) -> None:
        self.config = config or SystemConfig()
        self.dictionary = dictionary
        self.ontology = ontology

        # Databases (right-hand side of Fig. 3).  With a segment cadence
        # configured the corpus grows a disk tier: drain barriers freeze
        # the immutable prefix into mmap-backed segment files and only
        # the tail stays resident (docs/corpus.md, lazy import so
        # RAM-only systems never touch the segment machinery).
        if self.config.corpus_segment_records is not None:
            from repro.corpus.segments import SegmentedCorpus

            segment_dir = self.config.corpus_segment_dir
            if segment_dir is None and self.config.data_dir is not None:
                segment_dir = str(Path(self.config.data_dir) / "segments")
            self.corpus = SegmentedCorpus(
                self.config.corpus_index,
                segment_records=self.config.corpus_segment_records,
                directory=segment_dir,
                faults=self.config.fault_clock,
                auto_freeze=False,  # freeze only at drain barriers
            )
        else:
            self.corpus = LearnerCorpus(self.config.corpus_index)
        self.profiles = UserProfileStore()
        self.faq = FAQDatabase()
        if self.config.seed_corpus:
            CorporaGenerator(ontology).populate(self.corpus)

        # Shared NLP stages.
        self.keyword_filter = KeywordFilter(ontology)

        # Agents and QA (left-hand side of Fig. 3).
        self.learning_angel = LearningAngelAgent(
            dictionary,
            corpus=self.corpus,
            keyword_filter=self.keyword_filter,
            options=self.config.parse_options,
        )
        self.semantic_agent = SemanticAgent(
            ontology,
            keyword_filter=self.keyword_filter,
            related_threshold=self.config.related_threshold,
        )
        self.qa = QASystem(
            ontology,
            faq=self.faq,
            corpus=self.corpus,
            keyword_filter=self.keyword_filter,
        )
        self.miner = QAMiner(self.keyword_filter)
        self.recommender = TeachingMaterialRecommender(ontology)

        # Chat substrate.
        self.clock = SimulatedClock(tick=self.config.clock_tick)
        # Drain-budget bookkeeping (docs/runtime.md): virtual timestamp
        # of the last drain, so say() can fire the periodic auto-drain.
        self._last_budget_drain = self.clock.now()
        self._closed = False
        self.bus = EventBus()
        # Fault tolerance (docs/resilience.md): one controller shared by
        # the runtime (admission, quarantine) and every pipeline
        # clone/fork (stage guards).
        self.resilience = ResilienceController(
            retry=self.config.retry,
            breaker=self.config.breaker,
            faults=self.config.runtime_faults,
        )
        self.runtime = SupervisionRuntime(
            mode=self.config.runtime_mode,
            shards=self.config.shards,
            batch_size=self.config.supervision_batch,
            auto_drain=self.config.auto_drain,
            max_pending=self.config.max_pending,
            resilience=self.resilience,
        )
        # Durable state (docs/durability.md): lazy import so in-memory
        # systems never pay for the durability package.
        self.durability = None
        if self.config.data_dir is not None:
            from repro.durability.manager import DurabilityManager

            self.durability = DurabilityManager(
                self.config.data_dir,
                fsync=self.config.fsync,
                snapshot_every=self.config.snapshot_every,
                faults=self.config.fault_clock,
            )
        self.resilience.journal = self.durability
        self._wire_corpus_journal(self.durability)
        self.server = ChatServer(self.clock, self.bus, self.runtime, journal=self.durability)
        self.pipeline = SupervisionPipeline(
            self.learning_angel,
            self.semantic_agent,
            self.qa,
            self.profiles,
            self.config.policy,
        )
        # Must be set before add_supervisor: clones/forks inherit it.
        self.pipeline.resilience = self.resilience
        self.server.add_supervisor(self.pipeline)

    def _wire_corpus_journal(self, durability) -> None:
        """Point a segmented corpus's freeze/compact hooks at the WAL so
        every tier boundary is journalled (no-op for plain corpora or
        in-memory systems)."""
        if durability is not None and hasattr(self.corpus, "freeze_to"):
            self.corpus.on_freeze = durability.corpus_frozen
            self.corpus.on_compact = durability.corpus_compacted

    # ----------------------------------------------------------- factories

    @classmethod
    def with_defaults(cls, config: SystemConfig | None = None) -> "ELearningSystem":
        """The full system over the built-in lexicon and ontology."""
        return cls(default_dictionary(), default_ontology(), config)

    @classmethod
    def recover(
        cls,
        data_dir: str,
        config: SystemConfig | None = None,
        dictionary: Dictionary | None = None,
        ontology: Ontology | None = None,
    ):
        """Resume a durable system from its data directory.

        Recovery = load the newest intact snapshot, then replay the log
        tail through the real server (re-running supervision, so agent
        replies regenerate deterministically).  Torn log tails are
        truncated, corrupt records quarantined to side files, damaged
        snapshots renamed ``*.corrupt`` — every repair is listed in the
        returned report.  Returns ``(system, RecoveryReport)``; the
        system keeps journalling into the same directory.
        """
        from repro.durability.manager import (
            DurabilityManager,
            RecoveryReport,
            replay_events,
        )
        from repro.corpus.segments import SegmentLoadError
        from repro.durability.snapshot import (
            CORRUPT_SUFFIX,
            SnapshotStore,
            restore_snapshot,
        )
        from repro.durability.wal import read_log

        config = config if config is not None else SystemConfig()
        if config.corpus_segment_records is not None and config.corpus_segment_dir is None:
            # The in-memory construction below clears data_dir, so the
            # segment directory must be pinned explicitly to where the
            # crashed system froze its files.
            config = replace(
                config, corpus_segment_dir=str(Path(data_dir) / "segments")
            )
        # Construct in-memory first: journalling must stay off while the
        # snapshot restores and the tail replays (replay is not input).
        system = cls(
            dictionary or default_dictionary(),
            ontology or default_ontology(),
            replace(config, data_dir=None),
        )
        report = RecoveryReport(data_dir=str(data_dir))
        store = SnapshotStore(data_dir, fsync=config.fsync)
        snapshot = store.load_latest(report)
        while snapshot is not None:
            # A snapshot can checksum clean yet reference a segment file
            # that is torn or missing (e.g. the directory was tampered
            # with) — treat it like any damaged snapshot: quarantine and
            # fall back to the next-oldest.
            try:
                system.corpus.validate_columnar(snapshot["corpus"])
                break
            except SegmentLoadError:
                damaged = Path(data_dir) / report.snapshot_path
                report.snapshots_quarantined.append(report.snapshot_path)
                damaged.rename(damaged.with_name(damaged.name + CORRUPT_SUFFIX))
                report.snapshot_path = None
                report.snapshot_cursor = 0
                snapshot = store.load_latest(report)
        if snapshot is not None:
            restore_snapshot(system, snapshot)
        events = read_log(data_dir, report, repair=True)
        replay_events(system, events, report.snapshot_cursor, report)
        system.drain()
        system.config = replace(config, data_dir=str(data_dir))
        manager = DurabilityManager(
            data_dir,
            fsync=config.fsync,
            snapshot_every=config.snapshot_every,
            faults=config.fault_clock,
            resume=(len(events), report.snapshot_cursor),
        )
        system.durability = manager
        system.server.journal = manager
        system.resilience.journal = manager
        system._wire_corpus_journal(manager)
        return system, report

    # ------------------------------------------------------------- actions

    def open_room(self, name: str, topic: str = "") -> ChatRoom:
        """Create a supervised chat room."""
        return self.server.create_room(name, topic)

    def join(self, room: str, user: str, role: Role = Role.STUDENT) -> bool:
        """Add (or re-role) a member; returns whether anything changed."""
        return self.server.join(room, user, role)

    def leave(self, room: str, user: str) -> bool:
        """Remove a member; returns whether the user was actually present."""
        return self.server.leave(room, user)

    def say(self, room: str, user: str, text: str) -> ChatMessage:
        """Post a user message.

        In the default runtime modes supervision has already run by the
        time this returns; under a deferred-drain runtime (``sharded``,
        ``parallel``, or ``auto_drain=False``) call
        :meth:`drain` to flush the queued agent work — or set
        ``SystemConfig.drain_budget`` and the system drains itself here
        whenever the backlog or the virtual time since the last drain
        crosses the budget's thresholds.
        """
        durability = self.durability
        if durability is not None:
            # Fold the advance below into the logged post event so one
            # user input is exactly one atomic WAL record and replay
            # reproduces every timestamp.
            durability.note_advance(self.clock.tick)
        try:
            message = self.server.post(room, user, text)
        finally:
            if durability is not None:
                durability.note_advance(0.0)
        self.clock.advance()
        budget = self.config.drain_budget
        if (
            budget is not None
            and not self.runtime.auto_drain
            and budget.due(
                self.pending_supervision, self.clock.now() - self._last_budget_drain
            )
        ):
            # Periodic auto-drain: the deferred modes normally batch work
            # until the caller drains; the budget bounds how stale the
            # stores may grow without the caller thinking about it.
            self.drain()
        maybe_freeze = getattr(self.corpus, "maybe_freeze", None)
        if maybe_freeze is not None and not self.supervision_backlog:
            # Quiescent post (auto-drain runtimes): every delivered
            # message is fully supervised, so the tail prefix is
            # immutable and the freeze cadence may fire here too —
            # deferred-drain runtimes freeze at their drain barriers.
            maybe_freeze()
        if durability is not None:
            durability.maybe_snapshot(self)
        return message

    def drain(self) -> int:
        """Run all queued supervision work; returns items processed."""
        processed = self.server.drain_supervision()
        self._last_budget_drain = self.clock.now()
        # A drain is the corpus tier's freeze barrier: every shard
        # replica has just merged, so the tail prefix is immutable and
        # safe to seal into a disk segment (no-op for plain corpora).
        maybe_freeze = getattr(self.corpus, "maybe_freeze", None)
        if maybe_freeze is not None:
            maybe_freeze()
        if self.durability is not None:
            self.durability.maybe_snapshot(self)
        return processed

    def close(self) -> None:
        """Shut down cleanly: flush queued supervision, write a final
        snapshot (durable systems), release runtime resources.
        Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self.supervision_backlog:
            # Never lose enqueued work to a clean shutdown: the
            # deferred-drain runtimes may still hold supervision items
            # whose corpus/profile/FAQ effects must land before the
            # worker pools (and any final snapshot) go away.  (Deferred
            # items count too — while a breaker is open the drain parks
            # them, and a durable final snapshot carries them as
            # deferred rows.)
            self.drain()
        durability = self.durability
        if durability is not None and not durability.closed:
            durability.snapshot(self)
            durability.close()
        self.runtime.close()

    def __enter__(self) -> "ELearningSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def pending_supervision(self) -> int:
        """Messages posted but not yet supervised (deferred-drain modes)."""
        return self.server.pending_supervision

    @property
    def supervision_backlog(self) -> int:
        """Analyses still owed: queued items plus the deferred ledger.

        The quiescence gate for snapshots and clean shutdown — zero
        means every delivered message has been fully supervised,
        quarantined or (durably) parked nowhere at all.
        """
        return self.pending_supervision + len(self.resilience.deferred)

    @property
    def quarantined(self) -> int:
        """Items currently dead-lettered in the quarantine store."""
        return len(self.resilience.quarantine)

    def health(self) -> HealthReport:
        """The component health registry (breakers, queues, quarantine,
        durability) plus the resilience counters — see
        docs/resilience.md and ``python -m repro health``."""
        return build_health(self)

    def redrive(self) -> int:
        """Re-run every quarantined item after the fault healed.

        Drains the quarantine store (journalling a ``requeue`` WAL event
        per row on durable systems), force-closes the breakers, rebuilds
        the original work items and re-queues them at the front of their
        shards, then drains.  Returns the number of items re-driven.
        Once the underlying fault is gone, the post-redrive state equals
        the fault-free run's (asserted by the chaos suite).
        """
        rows = self.resilience.take_redrive_rows()
        if not rows:
            return 0
        durability = self.durability
        if durability is not None:
            for row in rows:
                durability.item_requeued(row.seq)
        self.resilience.reset_breakers()
        items = [rebuild_item(self.server, row) for row in rows]
        self.runtime.requeue_items(items)
        self.drain()
        return len(rows)

    @property
    def supervision_shed(self) -> int:
        """Messages whose agent analysis was shed by queue backpressure
        (delivery always happens; only supervision is skipped)."""
        return self.runtime.shed

    def agent_replies_to(self, message: ChatMessage) -> list[ChatMessage]:
        """Agent messages posted in response to ``message``."""
        room = self.server.get_room(message.room)
        return [
            m
            for m in room.transcript
            if m.reply_to == message.seq and m.kind.value == "agent"
        ]

    # ------------------------------------------------------------- reports

    @property
    def stats(self) -> SupervisionStats:
        """Global supervision counters (merged across shard workers)."""
        return self.pipeline.combined_stats()

    def corpus_report(self) -> CorpusReport:
        """The Learning Statistic Analyzer's aggregate report."""
        return StatisticAnalyzer(self.corpus).report()

    def faq_top(self, limit: int = 10):
        """The most frequent QA pairs (the learner-facing FAQ)."""
        return self.faq.top(limit)

    def recommend_for(self, user: str) -> Recommendation | None:
        """Teaching-material recommendation for a struggling learner
        (Figure 3's "Teaching Material Recommendation" response)."""
        profile = self.profiles.get(user)
        if profile is None:
            return None
        return self.recommender.recommend(profile)
