"""Runtime parity: queued/sharded supervision vs the synchronous pipeline.

The acceptance gate of the sharded-runtime PR:

* the default single-worker queued (drain-after-post) mode must produce
  transcripts, stats, corpus records and user profiles **bit-identical**
  to the inline synchronous pipeline on seeded runs;
* multi-shard runs must merge per-worker stats into exactly the sum of
  the parts, and conserve the work (every message supervised once);
* deferred-drain modes must actually defer: posting leaves agent work
  pending, draining flushes it.
"""

from __future__ import annotations

import pytest

from repro.chatroom import (
    ChatServer,
    MessageKind,
    Role,
    SupervisionRuntime,
    SupervisionStats,
    shard_of,
)
from repro.core.system import ELearningSystem, SystemConfig
from repro.ontology.domains import default_ontology
from repro.simulation import ErrorInjector, SentenceGenerator

ROOMS = ("algebra", "data-structures", "queues-101", "trees-201")


def scripted_messages(count: int = 10) -> list[tuple[str, str, str]]:
    """A deterministic (room, user, text) workload with every traffic kind.

    Repeats identical sentences across rooms (the dedup fan-out path),
    mixes questions, syntax errors, semantic violations, multi-sentence
    messages and chitchat from the seeded generator.
    """
    messages: list[tuple[str, str, str]] = []
    fixed = [
        "We push an element onto the stack.",
        "What is a queue?",
        "The tree doesn't have pop method.",
        "I push the data into a tree.",
        "stack the holds data quickly the.",
        "Thanks. What is Stack?",
        "The stacks is full.",
    ]
    # Same sentence fanned out to every room, then per-room traffic.
    for text in fixed:
        for room in ROOMS:
            messages.append((room, f"{room}-kid", text))
    generator = SentenceGenerator(default_ontology(), seed=11)
    injector = ErrorInjector(seed=11)
    for index in range(count):
        room = ROOMS[index % len(ROOMS)]
        correct = generator.correct_statement().text
        messages.append((room, f"{room}-kid", correct))
        messages.append((room, f"{room}-kid", injector.inject_random(correct).text))
        messages.append((room, f"{room}-kid", generator.question().text))
        messages.append((room, f"{room}-kid", generator.chitchat().text))
    return messages


def build_system(config: SystemConfig) -> ELearningSystem:
    system = ELearningSystem.with_defaults(config)
    for room in ROOMS:
        system.open_room(room, topic="t")
        system.join(room, f"{room}-kid")
        system.join(room, "prof", Role.TEACHER)
    return system


def run_workload(config: SystemConfig, drain_every: int | None = None) -> ELearningSystem:
    system = build_system(config)
    for index, (room, user, text) in enumerate(scripted_messages()):
        system.say(room, user, text)
        if index % 9 == 0:  # sprinkle teacher messages (unsupervised)
            system.say(room, "prof", "Good question.")
        if drain_every is not None and index % drain_every == 0:
            system.drain()
    system.drain()
    return system


def transcripts_of(system: ELearningSystem) -> dict[str, list]:
    return {room: list(system.server.get_room(room).transcript) for room in ROOMS}


def corpus_of(system: ELearningSystem) -> list[dict]:
    return [record.to_dict() for record in system.corpus.records()]


def profiles_of(system: ELearningSystem) -> list[dict]:
    return sorted((p.to_dict() for p in system.profiles.all()), key=lambda d: d["name"])


@pytest.fixture(scope="module")
def inline_system() -> ELearningSystem:
    return run_workload(SystemConfig(runtime_mode="inline"))


class TestQueuedModeIsByteIdentical:
    """Default mode: queued single worker, drained after every post."""

    @pytest.fixture(scope="class")
    def queued_system(self) -> ELearningSystem:
        return run_workload(SystemConfig(runtime_mode="queued"))

    def test_transcripts_identical(self, inline_system, queued_system):
        assert transcripts_of(queued_system) == transcripts_of(inline_system)

    def test_stats_identical(self, inline_system, queued_system):
        assert queued_system.stats == inline_system.stats

    def test_corpus_identical(self, inline_system, queued_system):
        assert corpus_of(queued_system) == corpus_of(inline_system)

    def test_profiles_identical(self, inline_system, queued_system):
        assert profiles_of(queued_system) == profiles_of(inline_system)

    def test_nothing_left_pending(self, queued_system):
        assert queued_system.pending_supervision == 0


class TestShardedMode:
    @pytest.fixture(scope="class")
    def sharded_system(self) -> ELearningSystem:
        return run_workload(
            SystemConfig(runtime_mode="sharded", shards=3), drain_every=5
        )

    def test_stats_merge_equals_worker_sum(self, sharded_system):
        per_worker = sharded_system.pipeline.worker_stats()
        assert len(per_worker) == 3
        assert sharded_system.stats == SupervisionStats.total(per_worker)

    def test_all_messages_supervised_exactly_once(self, inline_system, sharded_system):
        assert sharded_system.stats.messages == inline_system.stats.messages
        assert sharded_system.stats.sentences == inline_system.stats.sentences

    def test_verdict_counters_match_synchronous(self, inline_system, sharded_system):
        # Analysis outcomes are order-independent even though reply
        # timing differs: same syntax/semantic/question tallies.
        for field in ("syntax_errors", "semantic_violations", "misconceptions",
                      "questions", "questions_answered"):
            assert getattr(sharded_system.stats, field) == getattr(
                inline_system.stats, field
            ), field

    def test_corpus_same_verdict_multiset(self, inline_system, sharded_system):
        def verdicts(system):
            counts: dict = {}
            for record in system.corpus.records():
                key = (record.text, record.verdict.value)
                counts[key] = counts.get(key, 0) + 1
            return counts

        assert verdicts(sharded_system) == verdicts(inline_system)

    def test_worker_loads_cover_all_rooms(self, sharded_system):
        # Every posted user message (teacher ones included — the worker
        # processes the item, the pipeline then exempts it) is handled
        # by exactly one worker.
        loads = sharded_system.runtime.worker_loads()
        user_messages = sum(
            1
            for room in ROOMS
            for message in sharded_system.server.get_room(room).transcript
            if message.kind == MessageKind.USER
        )
        assert sum(loads) == user_messages
        assert sum(loads) > sharded_system.stats.messages  # prof posts exempted

    def test_rooms_route_to_fixed_shards(self, sharded_system):
        for room in ROOMS:
            expected = shard_of(room, 3)
            assert 0 <= expected < 3
            # Stable across calls and processes (CRC-32, not hash()).
            assert shard_of(room, 3) == expected


class TestDeferredDrain:
    def test_post_defers_supervision(self):
        system = build_system(SystemConfig(runtime_mode="queued", auto_drain=False))
        message = system.say(ROOMS[0], f"{ROOMS[0]}-kid", "I push the data into a tree.")
        assert system.pending_supervision == 1
        assert system.agent_replies_to(message) == []
        assert system.stats.messages == 0
        drained = system.drain()
        assert drained == 1
        assert system.pending_supervision == 0
        assert system.agent_replies_to(message) != []
        assert system.stats.messages == 1

    def test_drain_is_idempotent(self):
        system = build_system(SystemConfig(runtime_mode="queued", auto_drain=False))
        system.say(ROOMS[0], f"{ROOMS[0]}-kid", "What is Stack?")
        assert system.drain() == 1
        assert system.drain() == 0

    def test_teacher_role_snapshotted_at_post_time(self):
        # The role travels with the work item: a teacher message posted
        # before a drain stays exempt even after the teacher leaves.
        system = build_system(SystemConfig(runtime_mode="queued", auto_drain=False))
        system.say(ROOMS[0], "prof", "I push the data into a tree.")
        system.server.leave(ROOMS[0], "prof")
        system.drain()
        assert system.stats.messages == 0


class TestAnalysisCacheIsolation:
    def test_cache_shared_within_pipeline_but_not_across(self):
        from repro.agents.learning_angel import LearningAngelAgent
        from repro.agents.semantic_agent import SemanticAgent
        from repro.chatroom.supervisor import SupervisionPipeline
        from repro.linkgrammar.lexicon import default_dictionary
        from repro.profiles.store import UserProfileStore
        from repro.qa.engine import QASystem

        def pipeline() -> SupervisionPipeline:
            ontology = default_ontology()
            return SupervisionPipeline(
                LearningAngelAgent(default_dictionary()),
                SemanticAgent(ontology),
                QASystem(ontology),
                UserProfileStore(),
            )

        first, second = pipeline(), pipeline()
        clone = first.clone()
        sentence = "We push an element onto the stack."
        a = first._analyze_sentence(sentence)
        # Clones share agents -> they reuse the prototype's entry...
        assert clone._analyze_sentence(sentence) is a
        # ...an unrelated pipeline (own agents) never does.
        assert second._analyze_sentence(sentence) is not a
        assert first.analysis_cache is clone.analysis_cache
        assert first.analysis_cache is not second.analysis_cache


class TestRuntimeConstruction:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            SupervisionRuntime(mode="threads")

    def test_non_sharded_modes_single_worker(self):
        assert SupervisionRuntime(mode="queued", shards=8).shards == 1
        assert SupervisionRuntime(mode="inline", shards=8).shards == 1
        assert SupervisionRuntime(mode="sharded", shards=8).shards == 8

    def test_plain_observers_see_messages_in_all_modes(self):
        class Spy:
            def __init__(self):
                self.texts = []

            def on_message(self, server, message):
                self.texts.append(message.text)

        for mode in ("inline", "queued"):
            server = ChatServer(runtime=SupervisionRuntime(mode=mode))
            spy = Spy()
            server.add_supervisor(spy)
            server.create_room("r")
            server.join("r", "u")
            server.post("r", "u", "hello")
            server.post("r", "Agent", "reply", kind=MessageKind.AGENT)
            assert spy.texts == ["hello"], mode
