"""Merge-determinism property suite for the shard-local stores.

The ``repro.state`` contract: ``fork()`` gives a worker a replica whose
reads are frozen at the fork snapshot and whose writes are buffered with
their origin (global message seq); ``merge()`` folds replicas back such
that *any* merge order reproduces the store a sequential run would have
built.  These tests exercise the three implementations directly —
corpus, profiles, FAQ — including the inverted-index guarantee: merged
postings must equal single-store postings.
"""

from __future__ import annotations

import itertools

import pytest

from repro.corpus.records import Correctness, CorpusRecord
from repro.corpus.store import LearnerCorpus
from repro.profiles.store import UserProfileStore
from repro.qa.engine import QASystem
from repro.qa.faq import FAQDatabase
from repro.state import MergeableStore, snapshots_equal


def make_record(
    record_id: int, text: str, verdict=Correctness.CORRECT, keywords=(), ts: float = 0.0
):
    return CorpusRecord(
        record_id=record_id,
        user="kid",
        room="r",
        text=text,
        timestamp=ts,
        pattern="SVO",
        verdict=verdict,
        keywords=list(keywords),
    )


SENTENCES = [
    ("the stack holds data", Correctness.CORRECT, ("stack",)),
    ("the queue holds data", Correctness.CORRECT, ("queue",)),
    ("push stores an element", Correctness.CORRECT, ("push",)),
    ("tree the data holds", Correctness.SYNTAX_ERROR, ("tree",)),
    ("the stack has pop", Correctness.CORRECT, ("stack", "pop")),
    ("a queue supports enqueue", Correctness.CORRECT, ("queue", "enqueue")),
]


class TestProtocol:
    def test_stores_satisfy_mergeable_protocol(self):
        for store in (LearnerCorpus(), UserProfileStore(), FAQDatabase()):
            assert isinstance(store, MergeableStore)


class TestCorpusMerge:
    def seeded(self) -> LearnerCorpus:
        corpus = LearnerCorpus()
        corpus.add(make_record(0, "the stack stores data", keywords=("stack",)))
        corpus.add(make_record(1, "a tree has nodes", keywords=("tree",)))
        return corpus

    def sequential(self) -> LearnerCorpus:
        """The reference: one store fed every record in origin order."""
        corpus = self.seeded()
        for seq, (text, verdict, keywords) in enumerate(SENTENCES):
            corpus.add(make_record(corpus.next_id(), text, verdict, keywords, ts=float(seq)))
        return corpus

    def replicated(self, order: tuple[int, ...], shards: int = 3) -> LearnerCorpus:
        """The same records, written via ``shards`` replicas (sentence i
        goes to shard ``i % shards``), merged in ``order``."""
        corpus = self.seeded()
        replicas = [corpus.fork() for _ in range(shards)]
        for seq, (text, verdict, keywords) in enumerate(SENTENCES):
            replica = replicas[seq % shards]
            replica.begin_origin(seq)
            replica.add(make_record(replica.next_id(), text, verdict, keywords, ts=float(seq)))
        for index in order:
            corpus.merge(replicas[index])
        for replica in replicas:
            replica.rebase()
        return corpus

    def test_merge_reproduces_sequential_store(self):
        assert snapshots_equal(self.replicated((0, 1, 2)), self.sequential())

    def test_merge_order_is_irrelevant(self):
        reference = self.replicated((0, 1, 2)).snapshot()
        for order in itertools.permutations(range(3)):
            assert self.replicated(order).snapshot() == reference

    def test_merged_postings_equal_single_store_postings(self):
        merged = self.replicated((2, 0, 1))
        single = self.sequential()
        tokens = {token for text, _, _ in SENTENCES for token in text.split()}
        for token in tokens:
            assert merged.token_positions(token) == single.token_positions(token), token
        for keyword in ("stack", "queue", "tree", "push", "pop", "enqueue"):
            assert merged.keyword_positions(keyword) == single.keyword_positions(keyword)
        for verdict in Correctness:
            assert [r.to_dict() for r in merged.by_verdict(verdict)] == [
                r.to_dict() for r in single.by_verdict(verdict)
            ]
        for position in range(len(single.records())):
            assert merged.token_set(position) == single.token_set(position)
            assert merged.keyword_set(position) == single.keyword_set(position)

    def test_record_ids_renumbered_to_final_positions(self):
        merged = self.replicated((1, 2, 0))
        assert [r.record_id for r in merged.records()] == list(range(len(merged)))

    def test_replica_reads_are_frozen_at_fork(self):
        corpus = self.seeded()
        replica = corpus.fork()
        replica.begin_origin(10)
        replica.add(make_record(replica.next_id(), "the queue holds data"))
        # Local appends are invisible to reads until the merge...
        assert len(corpus.records()) == 2
        assert replica.token_positions("queue") == ()
        # ...but provisional ids keep advancing.
        assert replica.next_id() == 3

    def test_rebase_resnapshots_for_the_next_barrier(self):
        corpus = self.seeded()
        replica_a, replica_b = corpus.fork(), corpus.fork()
        replica_a.begin_origin(5)
        replica_a.add(make_record(replica_a.next_id(), "push stores an element"))
        replica_b.begin_origin(4)
        replica_b.add(make_record(replica_b.next_id(), "the stack has pop"))
        corpus.merge(replica_a)
        corpus.merge(replica_b)
        replica_a.rebase()
        replica_b.rebase()
        # Seq 4 interleaved before seq 5 despite merging second.
        assert [r.text for r in corpus.records()[2:]] == [
            "the stack has pop",
            "push stores an element",
        ]
        # Next barrier: appends land after the merged records.
        replica_a.begin_origin(9)
        replica_a.add(make_record(replica_a.next_id(), "a queue supports enqueue"))
        corpus.merge(replica_a)
        replica_a.rebase()
        assert corpus.records()[-1].text == "a queue supports enqueue"
        assert [r.record_id for r in corpus.records()] == list(range(5))

    def test_stale_replica_rejected(self):
        corpus = self.seeded()
        replica = corpus.fork()
        smaller = LearnerCorpus()
        with pytest.raises(ValueError):
            smaller.merge(replica)


class TestProfileMerge:
    def activities(self):
        # (seq, user, kwargs) — two shards' worth of interleaved traffic.
        return [
            ("ann", dict(syntax_error=True, mistake_kinds=("style",), topics=("stack",))),
            ("bob", dict(question=True, topics=("queue",))),
            ("ann", dict(semantic_error=True, topics=("stack", "tree"))),
            ("cat", dict()),
            ("bob", dict(syntax_error=True, mistake_kinds=("no-parse",))),
        ]

    def sequential(self) -> UserProfileStore:
        store = UserProfileStore()
        for now, (user, kwargs) in enumerate(self.activities()):
            store.record_activity(user, float(now), **kwargs)
        return store

    def replicated(self, order) -> UserProfileStore:
        store = UserProfileStore()
        replicas = [store.fork() for _ in range(2)]
        for now, (user, kwargs) in enumerate(self.activities()):
            replica = replicas[now % 2]
            replica.begin_origin(now)
            replica.record_activity(user, float(now), **kwargs)
        for index in order:
            store.merge(replicas[index])
        for replica in replicas:
            replica.rebase()
        return store

    def test_merge_matches_sequential_any_order(self):
        reference = self.sequential().snapshot()
        assert self.replicated((0, 1)).snapshot() == reference
        assert self.replicated((1, 0)).snapshot() == reference

    def test_replica_activity_invisible_until_merge(self):
        store = UserProfileStore()
        replica = store.fork()
        replica.record_activity("ann", 1.0, question=True)
        assert store.get("ann") is None
        assert replica.get("ann") is None  # reads see the snapshot
        store.merge(replica)
        replica.rebase()
        assert store.get("ann").questions == 1


class TestFAQMerge:
    @pytest.fixture(scope="class")
    def qa(self):
        from repro.ontology.domains import default_ontology

        return QASystem(default_ontology())

    def matches(self, qa):
        return {
            "stack": qa.resolve("What is a stack?").match,
            "stack2": qa.resolve("what is Stack").match,
            "queue": qa.resolve("What is a queue?").match,
        }

    def test_counts_sum_and_earliest_origin_wins_representative(self, qa):
        matches = self.matches(qa)
        faq = FAQDatabase()
        late, early = faq.fork(), faq.fork()
        late.begin_origin(7)
        late.record(matches["stack"], "What is a stack?", "A stack is a LIFO.", now=7.0)
        late.record(matches["queue"], "What is a queue?", "A queue is a FIFO.", now=7.0)
        early.begin_origin(3)
        early.record(matches["stack2"], "what is Stack", "A stack is a LIFO.", now=3.0)
        # Merge the *late* replica first: the early replica must still
        # win the representative surface form and first_asked.
        faq.merge(late)
        faq.merge(early)
        late.rebase()
        early.rebase()
        stack_pair = faq.lookup(matches["stack"])
        assert stack_pair.count == 2
        assert stack_pair.question == "what is Stack"
        assert stack_pair.first_asked == 3.0
        assert stack_pair.last_asked == 7.0
        assert faq.lookup(matches["queue"]).count == 1

    def test_merge_order_invariance(self, qa):
        matches = self.matches(qa)

        def build(order):
            faq = FAQDatabase()
            replicas = [faq.fork() for _ in range(3)]
            for seq, key in enumerate(["stack", "queue", "stack2", "queue", "stack"]):
                replica = replicas[seq % 3]
                replica.begin_origin(seq)
                replica.record(matches[key], f"q{seq}", "answer", now=float(seq))
            for index in order:
                faq.merge(replicas[index])
            return faq.snapshot()

        reference = build((0, 1, 2))
        for order in itertools.permutations(range(3)):
            assert build(order) == reference

    def test_hit_corrections_count_cross_shard_duplicates(self, qa):
        matches = self.matches(qa)
        faq = FAQDatabase()
        replicas = [faq.fork() for _ in range(3)]
        for seq, replica in enumerate(replicas):
            replica.begin_origin(seq)
            replica.record(matches["stack"], "What is a stack?", "A stack is a LIFO.", now=1.0)
        # Three shards each missed the barrier-born question once; a
        # sequential run misses once and hits twice.
        corrections = [faq.merge(replica) for replica in replicas]
        assert corrections == [0, 1, 1]
        # A later barrier sees the pair in the base: no corrections.
        for replica in replicas:
            replica.rebase()
        replicas[0].begin_origin(10)
        replicas[0].record(matches["stack"], "What is a stack?", "A stack is a LIFO.", now=2.0)
        assert faq.merge(replicas[0]) == 0
        assert faq.lookup(matches["stack"]).count == 4

    def test_shard_local_lookup_sees_own_new_pairs_only(self, qa):
        matches = self.matches(qa)
        faq = FAQDatabase()
        mine, other = faq.fork(), faq.fork()
        mine.begin_origin(0)
        mine.record(matches["stack"], "What is a stack?", "A stack is a LIFO.", now=0.0)
        assert mine.lookup(matches["stack"]) is not None
        assert other.lookup(matches["stack"]) is None
        assert faq.lookup(matches["stack"]) is None


class TestProtocolDeclarationsAreInert:
    """The @runtime_checkable protocols declare shape only: invoking a
    declared body directly must be a behaviourless no-op.  (This also
    pins that no default implementation ever sneaks into the protocol —
    stores must own every merge semantic themselves.)"""

    def test_store_replica_declared_bodies(self):
        corpus = LearnerCorpus()
        replica = corpus.fork()
        from repro.state import StoreReplica

        assert StoreReplica.base_len.fget(replica) is None
        assert StoreReplica.begin_origin(replica, 1) is None
        assert StoreReplica.rebase(replica) is None
        # The protocol body ran, not the implementation: the replica's
        # own state is untouched.
        assert replica.base_len == 0
        assert replica.pending == []

    def test_mergeable_store_declared_bodies(self):
        corpus = LearnerCorpus()
        replica = corpus.fork()
        assert MergeableStore.fork(corpus) is None
        assert MergeableStore.merge(corpus, replica) is None
        assert MergeableStore.snapshot(corpus) is None
        assert len(corpus) == 0  # nothing actually merged
