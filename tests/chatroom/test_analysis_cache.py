"""The supervision pipeline's cross-drain sentence-analysis cache.

Every corpus-independent analysis (tokens, pattern, Learning_Angel's
diagnosis, keywords and repairs, the semantic review, the QA
resolution) is computed once per distinct sentence per dictionary and
ontology generation and shared by the pipeline's clones and shard
forks.  The suite checks that the cache is invisible in every output:

* snapshot bytes of a seeded multi-room run are identical with the
  cache and with the cache cleared before every post, in every runtime
  mode;
* a dictionary or ontology mutation purges it, so a cached sentence
  gets the new verdict;
* a faulty sentence's corpus suggestion stays live;
* ``parallel`` under a tiny switch interval and more workers than cores
  still agrees with ``queued``;
* the bound evicts least recently used entries;
* injected parser-stage faults strike cache hits too.
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

from repro.chatroom import Role
from repro.core.system import ELearningSystem, SystemConfig
from repro.durability.snapshot import build_snapshot
from repro.linkgrammar.dictionary import Dictionary
from repro.linkgrammar.lexicon import build_domain_dictionary
from repro.ontology.domains import default_ontology
from repro.ontology.domains.data_structures import build_data_structure_ontology
from repro.ontology.model import Item, RelationKind
from repro.resilience import RuntimeFaultPlan
from repro.simulation import ErrorInjector, SentenceGenerator

ROOMS = ("stacks", "queues", "trees", "lists")
MODES = ("inline", "queued", "sharded", "parallel")


def seeded_messages(seed: int = 5, rounds: int = 6) -> list[tuple[str, str]]:
    """(room, text) traffic that repeats itself, the way classes do.

    Every round draws a few seeded sentences (correct, faulty, semantic
    violations, questions) and posts each to several rooms; later
    rounds re-post earlier sentences, so the cache serves hits across
    drains while the corpus grows between them.  From round 2 on, the
    corpus holds a closer model sentence for the repeated faulty
    "The stacks is full.", so a suggestion served stale would show.
    """
    generator = SentenceGenerator(default_ontology(), seed=seed)
    injector = ErrorInjector(seed=seed)
    drawn: list[str] = []
    messages: list[tuple[str, str]] = []
    for round_ in range(rounds):
        correct = generator.correct_statement().text
        fresh = [
            correct,
            injector.inject_random(correct).text,
            generator.semantic_violation().text,
            generator.question().text,
            "The stacks is full.",
        ]
        if round_ == 2:
            fresh.append("The stack is full.")
        drawn.extend(fresh)
        for index, text in enumerate(fresh + drawn[: round_ * 2]):
            for offset in range(2):
                messages.append((ROOMS[(index + offset + round_) % len(ROOMS)], text))
    return messages


def run(mode: str, cached: bool, drain_every: int = 5) -> ELearningSystem:
    deferred = mode in ("sharded", "parallel")
    system = ELearningSystem.with_defaults(
        SystemConfig(runtime_mode=mode, shards=3 if deferred else 1)
    )
    cache = system.pipeline.analysis_cache
    for room in ROOMS:
        system.open_room(room, topic="t")
        system.join(room, f"{room}-kid")
        system.join(room, "prof", Role.TEACHER)
    for index, (room, text) in enumerate(seeded_messages()):
        if not cached:
            cache.clear()
        system.say(room, f"{room}-kid", text)
        if deferred and (index + 1) % drain_every == 0:
            if not cached:
                cache.clear()
            system.drain()
    if not cached:
        cache.clear()
    system.drain()
    system.close()
    return system


def snapshot_bytes(system: ELearningSystem) -> bytes:
    """The durable state (rooms with full transcripts, corpus, profiles,
    FAQ, stats) as the bytes a snapshot file would frame."""
    return json.dumps(build_snapshot(system, 0), sort_keys=True).encode("utf-8")


def transcript_bytes(system: ELearningSystem) -> bytes:
    from repro.chatroom.transcript_io import message_to_dict

    return json.dumps(
        {room: [message_to_dict(m) for m in system.server.get_room(room).transcript]
         for room in ROOMS},
        sort_keys=True,
    ).encode("utf-8")


class TestCacheIsInvisible:
    @pytest.mark.parametrize("mode", MODES)
    def test_snapshot_and_transcripts_identical_with_cache_cleared(self, mode):
        with_cache = run(mode, cached=True)
        without = run(mode, cached=False)
        assert with_cache.pipeline.analysis_cache.hits > 0
        assert snapshot_bytes(with_cache) == snapshot_bytes(without)
        assert transcript_bytes(with_cache) == transcript_bytes(without)

    def test_clones_and_shard_forks_share_one_cache(self):
        for mode in ("sharded", "parallel"):
            system = ELearningSystem.with_defaults(SystemConfig(runtime_mode=mode, shards=3))
            caches = {
                id(supervisor.analysis_cache)
                for worker in system.runtime.workers
                for supervisor in worker.supervisors
            }
            assert caches == {id(system.pipeline.analysis_cache)}, mode
            system.close()


def fresh_system(config: SystemConfig | None = None) -> ELearningSystem:
    """A system over its own dictionary and ontology, safe to mutate
    (the default ones are shared by every system in the process)."""
    system = ELearningSystem(build_domain_dictionary(), build_data_structure_ontology(), config)
    system.open_room("r", topic="t")
    system.join("r", "kid")
    return system


def verdict_of(system: ELearningSystem, text: str):
    system.say("r", "kid", text)
    return system.corpus.records()[-1].verdict.value


class TestInvalidation:
    def test_dictionary_define_purges(self):
        system = fresh_system()
        sentence = "The stack holds the blorf."
        assert verdict_of(system, sentence) == "syntax-error"
        dictionary = system.learning_angel.analyzer.dictionary
        dictionary.define("blorf", dictionary.lookup("data").formula)
        assert verdict_of(system, sentence) == "correct"

    def test_ontology_add_item_purges(self):
        system = fresh_system()
        sentence = "I push the data into a table."
        assert verdict_of(system, sentence) == "correct"
        system.semantic_agent.ontology.add_item(Item(10_000, "table"))
        assert verdict_of(system, sentence) == "semantic-error"

    def test_ontology_add_relation_purges(self):
        system = fresh_system()
        sentence = "I push the data into a tree."
        assert verdict_of(system, sentence) == "semantic-error"
        system.semantic_agent.ontology.add_relation("tree", RelationKind.HAS_OPERATION, "push")
        assert verdict_of(system, sentence) == "correct"

    def test_unchanged_generation_hits(self):
        system = fresh_system()
        cache = system.pipeline.analysis_cache
        verdict_of(system, "I push the data into a tree.")
        verdict_of(system, "I push the data into a tree.")
        assert (cache.misses, cache.hits) == (1, 1)


class TestSuggestionStaysLive:
    def test_faulty_sentence_quotes_a_record_committed_between_posts(self):
        system = fresh_system()
        faulty = "The stacks is full."

        def suggestion_for(text: str) -> str:
            message = system.say("r", "kid", text)
            replies = [
                m.text for m in system.server.get_room("r").transcript
                if m.reply_to == message.seq and m.text.startswith("A similar correct sentence:")
            ]
            assert len(replies) == 1
            return replies[0]

        before = suggestion_for(faulty)
        system.say("r", "kid", "The stack is full.")  # committed to the corpus
        after = suggestion_for(faulty)
        assert system.pipeline.analysis_cache.hits >= 1
        assert before != after
        assert after == "A similar correct sentence: The stack is full."


class TestParallelStress:
    def test_parallel_matches_queued_under_thread_churn(self):
        """More pool threads than cores and a tiny switch interval, so
        threads interleave inside cache gets, puts and lazy fills; the
        merged outcome must still equal ``queued``'s."""

        def state(config: SystemConfig) -> dict:
            system = ELearningSystem.with_defaults(config)
            for room in ROOMS:
                system.open_room(room, topic="t")
                system.join(room, f"{room}-kid")
            for index, (room, text) in enumerate(seeded_messages(seed=9, rounds=4)):
                system.say(room, f"{room}-kid", text)
                if (index + 1) % 6 == 0:
                    system.drain()
            system.drain()
            system.close()
            return {
                "corpus": system.corpus.snapshot(),
                "profiles": system.profiles.snapshot(),
                "faq": system.faq.snapshot(),
                "stats": system.stats,
                "replies": sorted(
                    (m.reply_to, m.sender)
                    for room in ROOMS
                    for m in system.server.get_room(room).transcript
                    if m.reply_to is not None
                ),
            }

        reference = state(SystemConfig(runtime_mode="queued", auto_drain=False))
        workers = len(os.sched_getaffinity(0)) + 2 if hasattr(os, "sched_getaffinity") else 4
        previous = sys.getswitchinterval()
        deadline = time.monotonic() + 20.0
        runs = 0
        sys.setswitchinterval(1e-6)
        try:
            while runs == 0 or (runs < 3 and time.monotonic() < deadline):
                assert state(SystemConfig(runtime_mode="parallel", shards=workers)) == reference
                runs += 1
        finally:
            sys.setswitchinterval(previous)


class TestBound:
    def test_pipeline_cache_is_bounded_by_the_shared_cache_size(self, monkeypatch):
        monkeypatch.setattr(Dictionary, "SHARED_CACHE_ENTRIES", 3)
        system = fresh_system()
        cache = system.pipeline.analysis_cache
        assert cache.max_entries == 3
        for text in ("The stack is full.", "The queue is empty.",
                     "We push an element onto the stack.", "The tree has a root."):
            system.say("r", "kid", text)
        assert cache.parse_entries == 3
        misses = cache.misses
        system.say("r", "kid", "The stack is full.")  # the oldest: evicted
        assert cache.misses == misses + 1


class TestFaultsStrikeCacheHits:
    def test_parser_fault_on_a_cache_hit_quarantines_then_redrives(self):
        sentence = "We push an element onto the stack."
        faults = RuntimeFaultPlan(fail_at=2, fail_times=3, stage="parser")
        system = fresh_system(SystemConfig(runtime_faults=faults))
        cache = system.pipeline.analysis_cache
        system.say("r", "kid", sentence)  # crossing 1: miss, filed
        assert (cache.parse_entries, cache.hits) == (1, 0)
        system.say("r", "kid", sentence)  # crossings 2-4: all faulted
        assert faults.fired == ["parser#2", "parser#3", "parser#4"]
        assert system.quarantined == 1
        assert system.redrive() == 1  # the plan is spent: a clean hit
        assert system.quarantined == 0
        assert cache.hits == 1
        assert [r.text for r in system.corpus.records()][-2:] == [sentence, sentence]
