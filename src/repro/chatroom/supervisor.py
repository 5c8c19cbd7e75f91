"""The supervision pipeline: Figure 3's operation flow, wired.

Every user message is split into sentences and each sentence runs the
paper's flow: Learning_Angel (syntax) → pattern classification → either
the QA subsystem (questions) or the Semantic Agent (statements); analysed
sentences are recorded into the Learner Corpus and the User Profile
database, and agent replies are posted back into the room.

The pipeline consumes :class:`~repro.chatroom.shard.SupervisionItem`
work items (message + room resolved once at post time) and splits each
sentence's handling into a *pure analysis* step and an *apply* step
(stats, replies, recording).  Everything but the corpus suggestion
search is a pure function of the sentence and the static dictionary and
ontology, so the pipeline keeps those analyses in one generation-scoped
LRU (a :class:`~repro.linkgrammar.cache.ParseCacheStore` keyed by
sentence text) shared by its clones and shard forks:
each distinct sentence is tokenised, parsed, repaired, keyword-filtered,
semantically reviewed and QA-resolved once per dictionary and ontology
generation, in every runtime mode, and a repeat costs one lookup plus
the commit.  A faulty sentence's suggestion reads the growing learner
corpus and is searched per posting, keeping every mode's per-item
output identical to the synchronous pipeline's.

**Shard-local mode** (:meth:`SupervisionPipeline.fork_shard`): the
``parallel`` runtime hands every worker a pipeline twin bound to shard
replicas of the corpus, profile and FAQ stores (see :mod:`repro.state`),
with agent replies buffered in an outbox the runtime flushes in post
order at the drain barrier.  Because replica reads are frozen at the
barrier snapshot, a faulty sentence's suggestion is a pure function of
(sentence, snapshot) for the cycle, and the runtime's per-cycle memo
shares it across rooms, shards and worker threads.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterable

from repro.agents.learning_angel import LearningAngelAgent
from repro.agents.reports import SemanticReview, SemanticVerdict, SyntaxReview
from repro.agents.semantic_agent import SemanticAgent
from repro.corpus.records import Correctness
from repro.linkgrammar.cache import ParseCacheStore
from repro.linkgrammar.tokenizer import TokenizedSentence, split_sentences, tokenize
from repro.nlp.patterns import PatternAnalysis, classify
from repro.profiles.store import UserProfileStore
from repro.qa.engine import QAResolution, QASystem

from .messages import ChatMessage, MessageKind, Role
from .server import ChatServer
from .shard import SupervisionItem

QA_AGENT_NAME = "QA_System"


@dataclass(slots=True)
class SupervisionStats:
    """Running counters kept by the pipeline (benchmarked in F3)."""

    messages: int = 0
    sentences: int = 0
    syntax_errors: int = 0
    semantic_violations: int = 0
    misconceptions: int = 0
    questions: int = 0
    questions_answered: int = 0
    faq_hits: int = 0
    agent_replies: int = 0
    corrections_suggested: int = 0

    def merge(self, other: "SupervisionStats") -> "SupervisionStats":
        """Add ``other``'s counters into this instance (returns self)."""
        for fld in dataclasses.fields(SupervisionStats):
            setattr(self, fld.name, getattr(self, fld.name) + getattr(other, fld.name))
        return self

    @classmethod
    def total(cls, parts: Iterable["SupervisionStats"]) -> "SupervisionStats":
        """A fresh stats object holding the sum of ``parts``."""
        combined = cls()
        for part in parts:
            combined.merge(part)
        return combined


@dataclass(slots=True)
class _SentenceAnalysis:
    """The corpus-independent analysis of one sentence.

    A pure function of the sentence and the static dictionary and
    ontology, so one instance serves every posting of the sentence, in
    every room, drain and worker, until the cache's generation moves.
    Learning_Angel's review carries ``suggestion=None``: the suggestion
    reads the live learner corpus and is added per posting.  The
    semantic review (statements) and the QA resolution (questions) are
    filled lazily by the first posting that needs them; both fills are
    value-deterministic, so worker threads racing one fill (or filing
    two instances of one sentence) agree.
    """

    tokenized: TokenizedSentence
    pattern: PatternAnalysis
    review: SyntaxReview
    semantic: SemanticReview | None = None
    resolution: QAResolution | None = None


@dataclass(slots=True)
class _SentencePlan:
    """One sentence's planned supervision: analysis done, nothing applied.

    ``on_item`` plans *every* sentence of a message before committing
    any of them.  All the fallible work — parsing, suggestion search,
    semantic review, QA resolution — happens during planning under the
    resilience stage guards; the commit phase only writes stores and
    posts replies.  An injected or real fault therefore always strikes
    before the item has any side effects, which is what makes retrying
    or redriving the item exactly-once.

    ``review`` is this posting's Learning_Angel review: the cached one,
    plus the corpus suggestion when the sentence is faulty.
    """

    analysis: _SentenceAnalysis
    review: SyntaxReview


@dataclass(slots=True)
class ShardStores:
    """One worker's bundle of shard replicas plus its reply outbox.

    The runtime owns the barrier protocol: :meth:`merge` folds every
    replica into its base store (order-independent across workers),
    :meth:`take_replies` surfaces the buffered agent replies for the
    post-order flush, and :meth:`rebase` re-snapshots the replicas for
    the next cycle once *all* workers have merged.
    """

    corpus: object | None
    profiles: object
    faq: object
    outbox: list = field(default_factory=list)
    pipeline: "SupervisionPipeline | None" = None

    def begin(self, seq: int) -> None:
        """Tag subsequent writes with the originating message seq."""
        if self.corpus is not None:
            self.corpus.begin_origin(seq)
        self.profiles.begin_origin(seq)
        self.faq.begin_origin(seq)

    def merge(self) -> None:
        if self.corpus is not None:
            self.corpus.base.merge(self.corpus)
        self.profiles.base.merge(self.profiles)
        corrections = self.faq.base.merge(self.faq)
        if corrections and self.pipeline is not None:
            # Questions this shard missed that an earlier-in-post-order
            # shard had already asked: hits, sequentially speaking.
            self.pipeline.stats.faq_hits += corrections

    def rebase(self) -> None:
        if self.corpus is not None:
            self.corpus.rebase()
        self.profiles.rebase()
        self.faq.rebase()

    def take_replies(self) -> list:
        replies, self.outbox = self.outbox, []
        return replies


@dataclass(slots=True)
class SupervisionPolicy:
    """Behaviour knobs for the pipeline.

    Attributes:
        reply_to_errors: post agent replies on detected problems.
        reply_to_questions: post QA answers into the room.
        reply_when_unanswered: apologise when QA finds nothing.
        max_replies_per_message: cap agent chatter per user message.
        supervise_teachers: also review teacher messages (off by
            default — the paper's agents supervise *learners*, and
            instructor material is often outside the learner grammar).
    """

    reply_to_errors: bool = True
    reply_to_questions: bool = True
    reply_when_unanswered: bool = True
    max_replies_per_message: int = 4
    supervise_teachers: bool = False


class SupervisionPipeline:
    """Binds the agents, QA system, corpus and profiles to a server.

    One pipeline instance is one worker's supervision state: the heavy
    collaborators (agents, QA, profiles) and the sentence-analysis cache
    are shared, the stats counters are private.  The sharded runtime
    calls :meth:`clone` once per extra worker; :meth:`combined_stats`
    merges every clone's counters back into the global view on demand.
    """

    def __init__(
        self,
        learning_angel: LearningAngelAgent,
        semantic_agent: SemanticAgent,
        qa_system: QASystem,
        profiles: UserProfileStore,
        policy: SupervisionPolicy | None = None,
    ) -> None:
        self.learning_angel = learning_angel
        self.semantic_agent = semantic_agent
        self.qa_system = qa_system
        self.profiles = profiles
        self.policy = policy or SupervisionPolicy()
        self.stats = SupervisionStats()
        self._clones: list["SupervisionPipeline"] = []
        # Shard-local mode (set by fork_shard): replicas + reply outbox.
        self.shard_stores: ShardStores | None = None
        self._reply_n = 0
        # Set by the system wiring: the shared ResilienceController whose
        # stage guards wrap the plan phase.  None = unguarded (plain
        # calls), which bare pipelines outside a system keep.
        self.resilience = None
        # The dictionary and every ontology a cached analysis reads (one
        # ontology object in the default wiring) scope the cache.
        self._dictionary = learning_angel.analyzer.dictionary
        ontologies = [semantic_agent.ontology, qa_system.ontology]
        for keywords in (
            learning_angel.keyword_filter,
            semantic_agent.keyword_filter,
            qa_system.keyword_filter,
        ):
            if keywords is not None:
                ontologies.append(keywords.ontology)
        self._ontologies = tuple({id(o): o for o in ontologies}.values())
        # Sentence text -> _SentenceAnalysis, scoped by _generation().
        self.analysis_cache = ParseCacheStore(self._dictionary.SHARED_CACHE_ENTRIES)

    # ------------------------------------------------------------ sharding

    def clone(self) -> "SupervisionPipeline":
        """A per-worker twin: shared agents and stores, fresh stats."""
        twin = SupervisionPipeline(
            self.learning_angel,
            self.semantic_agent,
            self.qa_system,
            self.profiles,
            self.policy,
        )
        twin.resilience = self.resilience
        twin.analysis_cache = self.analysis_cache
        self._clones.append(twin)
        return twin

    def fork_shard(self) -> tuple["SupervisionPipeline", ShardStores]:
        """A per-worker twin owning private store replicas.

        The twin's agents share every static collaborator (dictionary,
        parse options, keyword filter, ontology, matcher, parse cache)
        and the sentence-analysis cache, but write to forked replicas of
        the corpus, profile and FAQ stores, and buffer agent replies in
        the returned bundle's outbox.  Stats are private, merged via
        :meth:`combined_stats` like any clone's.
        """
        corpus = self.learning_angel.corpus
        stores = ShardStores(
            corpus=corpus.fork() if corpus is not None else None,
            profiles=self.profiles.fork(),
            faq=self.qa_system.faq.fork(),
        )
        twin = SupervisionPipeline(
            self.learning_angel.fork(stores.corpus),
            self.semantic_agent,
            self.qa_system.fork(faq=stores.faq, corpus=stores.corpus),
            stores.profiles,
            self.policy,
        )
        twin.shard_stores = stores
        stores.pipeline = twin
        twin.resilience = self.resilience
        twin.analysis_cache = self.analysis_cache
        self._clones.append(twin)
        return twin, stores

    def combined_stats(self) -> SupervisionStats:
        """This pipeline's stats merged with every clone's (global view)."""
        if not self._clones:
            return self.stats
        return SupervisionStats.total([self.stats, *(c.stats for c in self._clones)])

    def worker_stats(self) -> list[SupervisionStats]:
        """Per-worker stats, prototype first (shard load inspection)."""
        return [self.stats, *(clone.stats for clone in self._clones)]

    # ------------------------------------------------------------ pipeline

    def on_message(self, server: ChatServer, message: ChatMessage) -> None:
        """Supervise one delivered user message (legacy entry point)."""
        room = server.get_room(message.room)
        participant = room.participants.get(message.sender)
        role = participant.role if participant is not None else None
        self.on_item(server, SupervisionItem(message, room, role))

    def on_item(
        self,
        server: ChatServer,
        item: SupervisionItem,
        memo: dict | None = None,
    ) -> None:
        """Supervise one work item; ``memo`` is a ``parallel`` cycle's
        shared dict (see :meth:`_posting_review`), None elsewhere.

        Two phases.  **Plan** runs every sentence's fallible analysis —
        parsing, semantic review, QA resolution — under the resilience
        stage guards, touching no store.  **Commit** then applies the
        plans: counters, corpus records, profiles, FAQ bumps, replies.
        The single :meth:`ResilienceController.guard_commit` crossing
        between the phases is the last point a fault can strike, so a
        failed item is always side-effect free and safe to retry,
        defer or redrive without double-counting.
        """
        message = item.message
        if message.kind != MessageKind.USER:
            return
        if not self.policy.supervise_teachers and item.sender_role == Role.TEACHER:
            return
        plans = [
            self._plan_sentence(message, index, sentence, memo)
            for index, sentence in enumerate(split_sentences(message.text))
        ]
        if self.resilience is not None:
            self.resilience.guard_commit(str(message.seq))
        if self.shard_stores is not None:
            # Tag this item's writes (corpus records, FAQ bumps, replies)
            # with the message's global seq so the barrier merge can
            # restore post order across shards.
            self.shard_stores.begin(message.seq)
            self._reply_n = 0
        self.stats.messages += 1
        replies_posted = 0
        for index, plan in enumerate(plans):
            replies_posted += self._commit_sentence(
                server, message, plan, index, replies_posted
            )

    def _plan_sentence(
        self,
        message: ChatMessage,
        index: int,
        sentence: str,
        memo: dict | None,
    ) -> _SentencePlan:
        """Run one sentence's pure analysis under the stage guards.

        The guard key ``seq:index`` makes retry backoff deterministic
        per sentence.  Each stage is crossed once per posting, cache
        hit or not, so an injected fault strikes the same crossings
        whatever the cache holds; the guarded calls are pure (cached
        analysis, corpus read, lazy fills), so re-invoking them after a
        transient fault is free of side effects by construction.
        """
        resilience = self.resilience
        key = f"{message.seq}:{index}"

        def guarded(stage: str, call):
            if resilience is None:
                return call()
            return resilience.guard(stage, key, call)

        def analyze() -> _SentencePlan:
            analysis = self._analyze_sentence(sentence)
            review = self._posting_review(analysis, memo)
            return _SentencePlan(analysis, review)

        plan = guarded("parser", analyze)
        analysis = plan.analysis
        if analysis.pattern.is_question:
            guarded("qa", lambda: self._resolve_question(analysis, sentence))
        elif analysis.review.is_correct:
            # Fill the lazy semantic review now (cached on the analysis),
            # so the commit phase's read is guaranteed fault-free.
            guarded("semantic", lambda: self._semantic_review(analysis))
        return plan

    def _generation(self) -> tuple:
        """The dictionary version and ontology generations the cached
        analyses were computed under."""
        return (
            self._dictionary.version,
            *[ontology.generation for ontology in self._ontologies],
        )

    def _analyze_sentence(self, sentence: str) -> _SentenceAnalysis:
        """Tokenise, classify and review one sentence — cached, corpus-free.

        Served from :attr:`analysis_cache` when the sentence was seen
        under the current generation; computed and filed otherwise.
        The first lookup under a new generation purges every entry (the
        :meth:`~repro.linkgrammar.cache.ParseCacheStore.sync_generation`
        rule): a redefined word or a new ontology term can change the
        verdict of arbitrary sentences.  Mutations never run during a
        drain, so an analysis is always filed under the generation it
        was computed in.  Clones and shard forks of one pipeline share
        the cache, so they share entries, while an unrelated pipeline
        (own dictionary or keyword filter) owns its own cache.
        """
        cache = self.analysis_cache
        cache.sync_generation(self._generation())
        analysis = cache.get_parse(sentence)
        if analysis is None:
            tokenized = tokenize(sentence)
            pattern = classify(tokenized)
            review = self.learning_angel.review(tokenized, pattern=pattern, suggest=False)
            analysis = _SentenceAnalysis(tokenized, pattern, review)
            cache.put_parse(sentence, analysis)
        return analysis

    def _posting_review(
        self, analysis: _SentenceAnalysis, memo: dict | None
    ) -> SyntaxReview:
        """Learning_Angel's review for one posting of the sentence.

        A faulty sentence's suggestion is searched in the learner corpus
        as it stands for this posting — the one corpus-dependent step.
        In shard-local mode replica reads are frozen at the barrier
        snapshot, so the suggestion is a pure function of (sentence,
        snapshot) for the cycle and ``memo`` shares it across rooms,
        shards and worker threads; the key carries the *base* corpus
        identity, which shard forks of one pipeline share.
        """
        review = analysis.review
        if review.is_correct or self.learning_angel.search is None:
            return review
        stores = self.shard_stores
        if memo is None or stores is None:
            return self.learning_angel.with_suggestion(review, analysis.tokenized)
        key = (id(self.analysis_cache), id(stores.corpus.base), analysis.tokenized.raw)
        suggested = memo.get(key)
        if suggested is None:
            suggested = memo[key] = self.learning_angel.with_suggestion(
                review, analysis.tokenized
            )
        return suggested

    def _semantic_review(self, analysis: _SentenceAnalysis) -> SemanticReview:
        """The (lazily computed, cached) semantic review of a statement."""
        semantic = analysis.semantic
        if semantic is not None:
            return semantic
        # Learning_Angel's keyword matches are reusable only when both
        # agents share one keyword filter (the default wiring).
        shared_keywords = (
            analysis.review.keywords
            if self.learning_angel.keyword_filter is self.semantic_agent.keyword_filter
            else None
        )
        semantic = self.semantic_agent.review(
            analysis.tokenized,
            syntactically_ok=True,
            analysis=analysis.pattern,
            keywords=shared_keywords,
        )
        analysis.semantic = semantic
        return semantic

    def _resolve_question(self, analysis: _SentenceAnalysis, sentence: str) -> QAResolution:
        """The (lazily computed, cached) QA resolution of a question.

        Template match plus lazy ontology answer: store-independent, so
        every asking shares one resolution.  The per-item apply (FAQ
        lookup and bump, corpus fallback) runs in the commit phase.
        """
        resolution = analysis.resolution
        if resolution is None:
            resolution = analysis.resolution = self.qa_system.resolve(sentence)
        return resolution

    def _emit_reply(
        self,
        server: ChatServer,
        message: ChatMessage,
        agent: str,
        text: str,
        severity: str,
    ) -> None:
        """Post one agent reply — or, in shard-local mode, buffer it.

        Buffered replies carry ``(message seq, emission index)`` so the
        runtime's barrier flush restores the exact post order the
        sequential pipeline would have produced.
        """
        stores = self.shard_stores
        if stores is not None:
            stores.outbox.append(
                (message.seq, self._reply_n, message.room, agent, text, message, severity)
            )
            self._reply_n += 1
        else:
            server.post_agent_reply(message.room, agent, text, message, severity)

    def _commit_sentence(
        self,
        server: ChatServer,
        message: ChatMessage,
        plan: _SentencePlan,
        index: int,
        already_posted: int,
    ) -> int:
        """Apply one planned sentence: counters, stores, replies.

        Commits stamp the *message's post timestamp*, not the drain
        clock: a deferred, retried or redriven item must produce the
        exact records the fault-free run would have, and the drain time
        is the one input a fault changes.
        """
        self.stats.sentences += 1
        now = message.timestamp
        analysis = plan.analysis
        pattern = analysis.pattern
        review = plan.review
        posted = 0

        if pattern.is_question:
            posted += self._handle_question(
                server, message, plan, index, now, already_posted
            )
            return posted

        mistake_kinds: list[str] = []
        semantic_notes: list[str] = []
        verdict = Correctness.CORRECT

        if not review.is_correct:
            self.stats.syntax_errors += 1
            verdict = Correctness.SYNTAX_ERROR
            mistake_kinds = [issue.kind.value for issue in review.diagnosis.issues]
            if self.policy.reply_to_errors:
                for reply in review.as_replies():
                    if already_posted + posted >= self.policy.max_replies_per_message:
                        break
                    self._emit_reply(
                        server, message, reply.agent, reply.text, reply.severity.value
                    )
                    posted += 1
                    self.stats.agent_replies += 1
                    if reply.severity.value == "correction":
                        self.stats.corrections_suggested += 1
        else:
            semantic = self._semantic_review(analysis)
            if semantic.verdict == SemanticVerdict.VIOLATION:
                self.stats.semantic_violations += 1
                verdict = Correctness.SEMANTIC_ERROR
            elif semantic.verdict == SemanticVerdict.MISCONCEPTION:
                self.stats.misconceptions += 1
                verdict = Correctness.SEMANTIC_ERROR
            if semantic.is_anomalous:
                semantic_notes = [
                    f"{pair.left}~{pair.right}" for pair in semantic.pairs if not pair.holds
                ]
                if self.policy.reply_to_errors:
                    for reply in semantic.as_replies():
                        if already_posted + posted >= self.policy.max_replies_per_message:
                            break
                        self._emit_reply(
                            server, message, reply.agent, reply.text, reply.severity.value
                        )
                        posted += 1
                        self.stats.agent_replies += 1
                        if reply.severity.value == "correction":
                            self.stats.corrections_suggested += 1

        self.learning_angel.record(
            review,
            user=message.sender,
            room=message.room,
            timestamp=now,
            verdict=verdict,
            semantic_issues=semantic_notes,
        )
        self.profiles.record_activity(
            message.sender,
            now,
            syntax_error=(verdict == Correctness.SYNTAX_ERROR),
            semantic_error=(verdict == Correctness.SEMANTIC_ERROR),
            question=False,
            mistake_kinds=tuple(mistake_kinds),
            topics=tuple(match.name for match in review.keywords),
        )
        return posted

    def _handle_question(
        self,
        server: ChatServer,
        message: ChatMessage,
        plan: _SentencePlan,
        index: int,
        now: float,
        already_posted: int,
    ) -> int:
        review = plan.review
        self.stats.questions += 1
        # The origin (message seq, sentence index) keys FAQ merge order:
        # a redriven or backfilled question commits late, and the origin
        # is what keeps the FAQ's representative entry the one the
        # fault-free, in-order run would have kept.
        answer = self.qa_system.apply_resolution(
            plan.analysis.resolution, now=now, origin=(message.seq, index)
        )
        posted = 0
        if answer.answered:
            self.stats.questions_answered += 1
            if answer.is_faq_hit:
                self.stats.faq_hits += 1
            if (
                self.policy.reply_to_questions
                and already_posted < self.policy.max_replies_per_message
            ):
                self._emit_reply(server, message, QA_AGENT_NAME, answer.text, "info")
                posted += 1
                self.stats.agent_replies += 1
        elif (
            self.policy.reply_when_unanswered
            and already_posted < self.policy.max_replies_per_message
        ):
            self._emit_reply(
                server,
                message,
                QA_AGENT_NAME,
                "I could not find an answer to that in the course material.",
                "info",
            )
            posted += 1
            self.stats.agent_replies += 1

        self.learning_angel.record(
            review,
            user=message.sender,
            room=message.room,
            timestamp=now,
            verdict=Correctness.QUESTION,
        )
        self.profiles.record_activity(
            message.sender,
            now,
            question=True,
            topics=tuple(match.name for match in review.keywords),
        )
        return posted
