"""Pickle-surface property suite for the ``process`` runtime's wire forms.

The process mode ships replicas, deltas and construction specs across a
process boundary; everything it ships must (a) round-trip through pickle
with its *data* intact, and (b) provably exclude what cannot or must not
cross — locks, memo caches, interned parse tables.  These tests pin
that contract for every :class:`~repro.state.StoreReplica`
implementation, for the :class:`~repro.state.ReplicaDelta` wire form,
for the dictionary/parse-cache exclusions, and for the
:class:`~repro.chatroom.procworker.PipelineProcessSpec` a child process
rebuilds its pipeline twin from.
"""

from __future__ import annotations

import copy
import pickle
import threading

import pytest

from repro.corpus.store import LearnerCorpus
from repro.linkgrammar.cache import ParseCacheStore
from repro.linkgrammar.lexicon import default_dictionary
from repro.profiles.store import UserProfileStore
from repro.qa.engine import QASystem
from repro.qa.faq import FAQDatabase
from repro.state import ReplicaDelta, delta_of

from test_mergeable import SENTENCES, make_record


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


def seeded_corpus_replica():
    corpus = LearnerCorpus()
    corpus.add(make_record(0, "the stack stores data", keywords=("stack",)))
    replica = corpus.fork()
    for seq, (text, verdict, keywords) in enumerate(SENTENCES[:3], start=1):
        replica.begin_origin(seq)
        replica.add(make_record(replica.next_id(), text, verdict, keywords))
    return corpus, replica


class TestCorpusReplicaRoundTrip:
    def test_pending_and_base_survive(self):
        corpus, replica = seeded_corpus_replica()
        clone = roundtrip(replica)
        assert clone.base_len == replica.base_len
        assert len(clone.pending) == len(replica.pending)
        assert [origin for origin, _, _ in clone.pending] == [
            origin for origin, _, _ in replica.pending
        ]
        # Frozen reads still delegate to the (shipped) base snapshot.
        assert clone.records()[0].text == "the stack stores data"

    def test_roundtripped_replica_merges_identically(self):
        corpus, replica = seeded_corpus_replica()
        shipped = roundtrip(replica)
        merged_original = copy.deepcopy(corpus)
        merged_original.merge(replica)
        # The shipped replica carries its own base copy; merge into it.
        shipped.base.merge(shipped)
        assert shipped.base.snapshot() == merged_original.snapshot()


class TestProfileReplicaRoundTrip:
    def test_roundtripped_replica_merges_identically(self):
        store = UserProfileStore()
        store.record_activity("ann", 0.0, question=True, topics=("stack",))
        replica = store.fork()
        replica.begin_origin(1)
        replica.record_activity("bob", 1.0, syntax_error=True, mistake_kinds=("style",))
        replica.begin_origin(2)
        replica.record_activity("ann", 2.0, semantic_error=True, topics=("tree",))
        shipped = roundtrip(replica)
        reference = copy.deepcopy(store)
        reference.merge(replica)
        shipped.base.merge(shipped)
        assert shipped.base.snapshot() == reference.snapshot()


class TestFAQReplicaRoundTrip:
    def test_roundtripped_replica_merges_identically(self):
        qa = QASystem(default_ontology_cached())
        faq = FAQDatabase()
        replica = faq.fork()
        replica.begin_origin(5)
        match = qa.resolve("What is a stack?").match
        replica.record(match, "What is a stack?", "A stack is a LIFO.", now=5.0)
        shipped = roundtrip(replica)
        reference = copy.deepcopy(faq)
        reference.merge(replica)
        shipped.base.merge(shipped)
        assert shipped.base.snapshot() == reference.snapshot()


_ONTOLOGY = None


def default_ontology_cached():
    global _ONTOLOGY
    if _ONTOLOGY is None:
        from repro.ontology.domains import default_ontology

        _ONTOLOGY = default_ontology()
    return _ONTOLOGY


class TestReplicaDeltaWireForm:
    """delta_of(replica) is a complete stand-in on the merge path."""

    def test_delta_merge_equals_replica_merge(self):
        corpus, replica = seeded_corpus_replica()
        delta = roundtrip(delta_of(replica))  # ships like the real wire
        assert isinstance(delta, ReplicaDelta)
        assert len(delta) == len(replica.pending)
        via_replica = copy.deepcopy(corpus)
        via_replica.merge(replica)
        corpus.merge(delta)
        assert corpus.snapshot() == via_replica.snapshot()

    def test_delta_pending_is_shallow_copied(self):
        _, replica = seeded_corpus_replica()
        delta = delta_of(replica)
        replica.rebase()  # empties the replica's own buffer...
        assert len(delta) == 3  # ...but not the already-extracted delta


class TestDictionaryExclusions:
    """The dictionary ships formulas, never derived parser state."""

    def test_tables_cache_and_lock_are_excluded(self):
        dictionary = default_dictionary()
        dictionary.tables  # force the interned tables to exist
        assert dictionary._tables is not None
        clone = roundtrip(dictionary)
        assert clone._tables is None
        assert clone._tables_version == -1
        assert clone._shared_cache is None
        # A fresh, unlocked lock was re-armed child-side.
        assert isinstance(clone._tables_lock, type(threading.Lock()))
        assert clone._tables_lock.acquire(blocking=False)
        clone._tables_lock.release()

    def test_clone_rebuilds_tables_lazily_and_identically(self):
        dictionary = default_dictionary()
        clone = roundtrip(dictionary)
        assert len(clone) == len(dictionary)
        theirs, ours = clone.tables, dictionary.tables
        assert [str(c) for c in theirs.connectors] == [
            str(c) for c in ours.connectors
        ]
        assert theirs.match_right == ours.match_right


class TestOntologyExclusions:
    """The ontology ships items and relations, never its derived index."""

    def test_index_is_excluded(self):
        from repro.ontology.domains import build_data_structure_ontology

        ontology = build_data_structure_ontology()
        ontology.operations_of("stack")  # force the index to exist
        assert ontology._index is not None
        clone = roundtrip(ontology)
        assert clone._index is None
        assert clone.generation == ontology.generation

    def test_queried_then_pickled_ontology_answers_identically(self):
        from repro.ontology import OntologyGraph, RelationKind
        from repro.ontology.domains import build_data_structure_ontology

        ontology = build_data_structure_ontology()

        def answers(onto):
            graph = OntologyGraph(onto)
            return [
                (
                    onto.relations_from(item.item_id),
                    onto.relations_to(item.item_id, RelationKind.IS_A),
                    [a.item_id for a in onto.ancestors(item.item_id)],
                    [o.item_id for o in onto.operations_of(item.item_id)],
                    [p.item_id for p in onto.properties_of(item.item_id, inherit=False)],
                    [c.item_id for c in onto.concepts_with_operation(item.item_id)],
                    graph.distances_from(item.item_id),
                )
                for item in onto.items()
            ] + [onto.validate()]

        expected = answers(ontology)
        assert answers(roundtrip(ontology)) == expected

    def test_spec_ships_the_ontology_without_its_index(self):
        from repro.core.system import ELearningSystem, SystemConfig

        system = ELearningSystem.with_defaults(SystemConfig(runtime_mode="process"))
        system.pipeline.semantic_agent.ontology.operations_of("stack")
        spec = roundtrip(system.pipeline.process_spec())
        assert spec.ontology._index is None
        assert spec.ontology.has_operation("stack", "push")
        system.close()


class TestParseCacheExclusion:
    def test_cache_ships_empty_with_its_policy(self):
        cache = ParseCacheStore(max_entries=7)
        cache.put_parse("k", "v")
        assert cache.get_parse("k") == "v"
        clone = roundtrip(cache)
        assert clone.max_entries == 7
        assert clone.get_parse("k") is None  # memo entries never cross


class TestPipelineProcessSpec:
    def test_spec_roundtrips_and_builds_a_working_twin(self):
        from repro.chatroom.messages import ChatMessage, MessageKind
        from repro.chatroom.procworker import PipelineProcessSpec
        from repro.chatroom.shard import SupervisionItem, dispatch
        from repro.core.system import ELearningSystem, SystemConfig
        from repro.resilience.controller import ResilienceController

        system = ELearningSystem.with_defaults(SystemConfig(runtime_mode="process"))
        spec = roundtrip(system.pipeline.process_spec())
        assert isinstance(spec, PipelineProcessSpec)
        # The shipped dictionary provably lost its derived parser state.
        assert spec.dictionary._tables is None
        assert spec.dictionary._shared_cache is None
        unit = spec.build(ResilienceController())
        message = ChatMessage(seq=1, room="r", sender="kid",
                              kind=MessageKind.USER,
                              text="What is Stack?", timestamp=0.0)
        dispatch(unit.pipeline, None, SupervisionItem(message, None), {})
        delta = unit.extract_delta()
        # The question hit the FAQ/corpus surfaces of the twin's
        # replicas: the extracted delta carries buffered writes and the
        # outbox carries the QA reply.
        assert len(delta) > 0
        replies = unit.stores.take_replies()
        assert replies and replies[0][0] == 1  # keyed by origin seq
        system.close()
