"""Merge-determinism parity suite for the ``parallel`` runtime.

The acceptance gate of the shard-local-state PR:

* ``parallel`` (N workers on a thread pool, private corpus/profile/FAQ
  replicas, barrier merge) must produce merged corpus, profiles, FAQ
  and stats **bit-identical** to the ``queued`` deferred-drain pipeline
  on the same seeded workload and drain schedule — whatever the drain
  cadence or worker count;
* transcripts are bit-identical too, except for the one documented
  snapshot-isolation freedom: a faulty sentence's *suggestion reply
  text* may quote the barrier snapshot's best model sentence instead of
  one recorded earlier in the same batch (with single-item batches the
  transcripts are fully identical);
* results must be deterministic across repeated runs and worker counts
  (thread scheduling must not leak into outcomes);
* backpressure must shed oldest-first, count what it shed, and surface
  the counts through the runtime.
"""

from __future__ import annotations

import pytest

from repro.chatroom import DrainBudget, MessageKind, Role, SupervisionRuntime
from repro.core.system import ELearningSystem, SystemConfig
from repro.ontology.domains import default_ontology
from repro.simulation import ErrorInjector, SentenceGenerator

ROOMS = ("algebra", "data-structures", "queues-101", "trees-201", "lists-5")


def scripted_messages(count: int = 8) -> list[tuple[str, str, str]]:
    """Deterministic (room, user, text) traffic with every kind mixed in:
    fan-out duplicates (the dedup path), questions, syntax errors,
    semantic violations and seeded generator chatter."""
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
    for text in fixed:
        for room in ROOMS:
            messages.append((room, f"{room}-kid", text))
    generator = SentenceGenerator(default_ontology(), seed=13)
    injector = ErrorInjector(seed=13)
    for index in range(count):
        room = ROOMS[index % len(ROOMS)]
        correct = generator.correct_statement().text
        messages.append((room, f"{room}-kid", correct))
        messages.append((room, f"{room}-kid", injector.inject_random(correct).text))
        messages.append((room, f"{room}-kid", generator.question().text))
    return messages


def run_workload(config: SystemConfig, drain_every: int | None) -> ELearningSystem:
    system = ELearningSystem.with_defaults(config)
    for room in ROOMS:
        system.open_room(room, topic="t")
        system.join(room, f"{room}-kid")
        system.join(room, "prof", Role.TEACHER)
    for index, (room, user, text) in enumerate(scripted_messages()):
        system.say(room, user, text)
        if index % 11 == 0:
            system.say(room, "prof", "Good question.")
        if drain_every is not None and (index + 1) % drain_every == 0:
            system.drain()
    system.drain()
    return system


def full_state(system: ELearningSystem) -> dict:
    """Every durable surface, canonically ordered, bit-comparable."""
    return {
        "corpus": system.corpus.snapshot(),
        "profiles": system.profiles.snapshot(),
        "faq": system.faq.snapshot(),
        "stats": system.stats,
        "transcripts": {
            room: [
                (m.seq, m.sender, m.kind.value, m.text, m.timestamp, m.reply_to)
                for m in system.server.get_room(room).transcript
            ]
            for room in ROOMS
        },
    }


def parallel_config(workers: int) -> SystemConfig:
    return SystemConfig(runtime_mode="parallel", shards=workers)


SUGGESTION_PREFIX = "A similar correct sentence: "


def assert_transcripts_match(parallel: dict, queued: dict) -> None:
    """Transcripts must be bit-identical except suggestion reply text.

    Snapshot isolation lets a batched ``parallel`` drain quote a model
    sentence from the barrier snapshot where ``queued`` quotes one
    recorded earlier in the same batch; everything else — seqs, senders,
    kinds, timestamps, reply threading, every other reply text — must
    match exactly.
    """
    assert parallel.keys() == queued.keys()
    for room in queued:
        assert len(parallel[room]) == len(queued[room]), room
        for got, want in zip(parallel[room], queued[room]):
            if got == want:
                continue
            seq, sender, kind, got_text, timestamp, reply_to = got
            assert (seq, sender, kind, timestamp, reply_to) == (
                want[0], want[1], want[2], want[4], want[5]
            ), (got, want)
            assert got_text.startswith(SUGGESTION_PREFIX), (got, want)
            assert want[3].startswith(SUGGESTION_PREFIX), (got, want)


@pytest.fixture(scope="module")
def queued_states() -> dict:
    """Queued-runtime reference states, one per drain schedule."""
    return {
        drain_every: full_state(
            run_workload(SystemConfig(runtime_mode="queued", auto_drain=False), drain_every)
        )
        for drain_every in (1, 7, None)
    }


class TestMergedStateEqualsQueued:
    """parallel == queued, bit for bit, on every drain schedule."""

    @pytest.mark.parametrize("drain_every", [1, 7, None])
    def test_merged_stores_and_stats_bit_identical(self, queued_states, drain_every):
        parallel = full_state(run_workload(parallel_config(3), drain_every))
        reference = queued_states[drain_every]
        for surface in ("corpus", "profiles", "faq", "stats"):
            assert parallel[surface] == reference[surface], surface
        assert_transcripts_match(parallel["transcripts"], reference["transcripts"])

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("drain_every", [1, 7, None])
    def test_full_sweep_workers_and_cadences(self, queued_states, workers, drain_every):
        parallel = full_state(run_workload(parallel_config(workers), drain_every))
        reference = queued_states[drain_every]
        for surface in ("corpus", "profiles", "faq", "stats"):
            assert parallel[surface] == reference[surface], surface
        assert_transcripts_match(parallel["transcripts"], reference["transcripts"])

    def test_single_item_batches_are_fully_byte_identical(self, queued_states):
        parallel = full_state(run_workload(parallel_config(3), 1))
        assert parallel == queued_states[1]  # transcripts included

    def test_worker_count_does_not_change_merged_state(self, queued_states):
        reference = full_state(run_workload(parallel_config(1), 7))
        for surface in ("corpus", "profiles", "faq", "stats"):
            assert reference[surface] == queued_states[7][surface], surface
        for workers in (2, 5):
            parallel = full_state(run_workload(parallel_config(workers), 7))
            assert parallel == reference, f"workers={workers}"

    def test_deterministic_across_runs(self):
        first = full_state(run_workload(parallel_config(4), 9))
        second = full_state(run_workload(parallel_config(4), 9))
        assert first == second


class TestParallelScheduling:
    def test_posting_defers_supervision(self):
        system = ELearningSystem.with_defaults(parallel_config(2))
        system.open_room("r", topic="t")
        system.join("r", "kid")
        message = system.say("r", "kid", "I push the data into a tree.")
        assert system.pending_supervision == 1
        assert system.stats.messages == 0
        assert system.agent_replies_to(message) == []
        assert system.drain() == 1
        assert system.pending_supervision == 0
        assert system.stats.messages == 1
        assert system.agent_replies_to(message) != []
        assert system.drain() == 0

    def test_replies_flush_in_post_order(self):
        system = ELearningSystem.with_defaults(parallel_config(3))
        for room in ROOMS[:3]:
            system.open_room(room, topic="t")
            system.join(room, "kid")
        posted = [
            system.say(room, "kid", "stack the holds data quickly the.")
            for room in ROOMS[:3]
        ]
        system.drain()
        # Every user message got replies, and across rooms/shards the
        # replies were posted in the originating messages' seq order:
        # sorting all agent messages by their own seq must yield
        # non-decreasing reply_to targets.
        replies = sorted(
            (
                message
                for room in ROOMS[:3]
                for message in system.server.get_room(room).transcript
                if message.kind == MessageKind.AGENT
            ),
            key=lambda message: message.seq,
        )
        targets = [message.reply_to for message in replies]
        assert len({m.reply_to for m in replies}) == len(posted)  # all replied-to
        assert targets == sorted(targets)

    def test_worker_loads_cover_every_user_message(self):
        system = run_workload(parallel_config(4), 6)
        user_messages = sum(
            1
            for room in ROOMS
            for message in system.server.get_room(room).transcript
            if message.kind == MessageKind.USER
        )
        assert sum(system.runtime.worker_loads()) == user_messages

    def test_plain_observers_dispatched_at_barrier_in_post_order(self):
        class Spy:
            def __init__(self):
                self.seqs = []

            def on_message(self, server, message):
                self.seqs.append(message.seq)

        runtime = SupervisionRuntime(mode="parallel", shards=3)
        from repro.chatroom import ChatServer

        server = ChatServer(runtime=runtime)
        spy = Spy()
        server.add_supervisor(spy)
        for room in ("a", "b", "c", "d"):
            server.create_room(room)
            server.join(room, "u")
        expected = [server.post(room, "u", "hello").seq for room in ("a", "b", "c", "d")]
        assert spy.seqs == []  # deferred until the drain barrier
        server.drain_supervision()
        assert spy.seqs == expected


class TestBackpressure:
    def test_bounded_queue_sheds_oldest_first(self):
        system = ELearningSystem.with_defaults(
            SystemConfig(runtime_mode="queued", auto_drain=False, max_pending=2)
        )
        system.open_room("r", topic="t")
        system.join("r", "kid")
        texts = [f"What is a queue?", "What is a stack?", "We push an element onto the stack.",
                 "The stacks is full.", "I push the data into a tree."]
        for text in texts:
            system.say("r", "kid", text)
        assert system.pending_supervision == 2
        assert system.supervision_shed == 3
        system.drain()
        # Only the two *newest* messages were supervised.
        assert system.stats.messages == 2
        supervised = [r.text for r in system.corpus.records() if r.room == "r"]
        assert supervised == ["The stacks is full.", "I push the data into a tree."]

    def test_shed_counts_surface_per_shard_in_parallel_mode(self):
        config = SystemConfig(runtime_mode="parallel", shards=2, max_pending=3)
        system = ELearningSystem.with_defaults(config)
        system.open_room("r", topic="t")
        system.join("r", "kid")
        for _ in range(10):
            system.say("r", "kid", "What is a queue?")
        assert system.pending_supervision == 3
        assert system.supervision_shed == 7
        counts = system.runtime.shed_counts()
        assert sum(counts) == 7 and len(counts) == 2
        system.drain()
        assert system.stats.messages == 3
        assert system.supervision_shed == 7  # draining doesn't shed

    def test_unbounded_by_default(self):
        system = ELearningSystem.with_defaults(
            SystemConfig(runtime_mode="queued", auto_drain=False)
        )
        system.open_room("r", topic="t")
        system.join("r", "kid")
        for _ in range(100):
            system.say("r", "kid", "What is a queue?")
        assert system.pending_supervision == 100
        assert system.supervision_shed == 0

    def test_max_pending_validation(self):
        with pytest.raises(ValueError):
            SupervisionRuntime(mode="queued", max_pending=0)


class TestRuntimeConstruction:
    def test_parallel_keeps_requested_worker_count(self):
        assert SupervisionRuntime(mode="parallel", shards=6).shards == 6
        assert SupervisionRuntime(mode="queued", shards=6).shards == 1

    def test_parallel_defaults_to_deferred_drain(self):
        assert SupervisionRuntime(mode="parallel", shards=2).auto_drain is False
        assert SupervisionRuntime(mode="queued").auto_drain is True

    def test_close_is_idempotent(self):
        runtime = SupervisionRuntime(mode="parallel", shards=2)
        runtime.close()
        runtime.close()

    def test_system_close_releases_parallel_pool(self):
        with ELearningSystem.with_defaults(parallel_config(2)) as system:
            system.open_room("r", topic="t")
            system.join("r", "kid")
            system.say("r", "kid", "We push an element onto the stack.")
            system.drain()
        assert system.runtime._executor is None  # pool shut down on exit


class TestFailureIsolation:
    """A supervisor error mid-batch must cost exactly the failing item:
    it dead-letters into the quarantine store (with the captured error)
    and the rest of the batch is supervised in the same drain.  This is
    the regression test for the old behaviour, where the raising item
    itself was silently *lost* — the batch aborted, only the tail after
    it was requeued, and nothing recorded which message went down."""

    class _FailingSupervisor:
        def __init__(self):
            self.seen: list[str] = []

        def fork_shard(self):
            outer = self

            class Stores:
                def merge(self):
                    pass

                def rebase(self):
                    pass

                def take_replies(self):
                    return []

            class Fork:
                def on_item(self, server, item, memo=None):
                    if "boom" in item.message.text:
                        raise RuntimeError("supervisor blew up")
                    outer.seen.append(item.message.text)

            return Fork(), Stores()

    def test_failed_item_dead_letters_and_batch_continues(self):
        from repro.chatroom import ChatServer

        runtime = SupervisionRuntime(mode="parallel", shards=1)
        server = ChatServer(runtime=runtime)
        supervisor = self._FailingSupervisor()
        server.add_supervisor(supervisor)
        server.create_room("r")
        server.join("r", "u")
        posted = {}
        for text in ("alpha", "boom", "gamma", "delta"):
            posted[text] = server.post("r", "u", text)
        server.drain_supervision()  # no raise: the drain survives
        # boom dead-lettered, every other item supervised this drain.
        assert supervisor.seen == ["alpha", "gamma", "delta"]
        assert runtime.pending == 0
        quarantine = runtime.resilience.quarantine
        assert len(quarantine) == 1
        row = quarantine.get(posted["boom"].seq)
        assert row is not None
        assert row.text == "boom"
        assert "supervisor blew up" in row.error
        runtime.close()


class TestDrainBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            DrainBudget(max_pending_posts=0)
        with pytest.raises(ValueError):
            DrainBudget(max_interval=0.0)

    def test_due_triggers(self):
        budget = DrainBudget(max_pending_posts=3, max_interval=10.0)
        assert not budget.due(2, 9.0)
        assert budget.due(3, 0.0)   # post-count trigger
        assert budget.due(0, 10.0)  # interval trigger
        assert not DrainBudget().due(10_000, 10_000.0)  # no trigger armed

    @pytest.mark.parametrize(
        "budget",
        [DrainBudget(max_pending_posts=5), DrainBudget(max_interval=4.0)],
        ids=["post-count", "interval"],
    )
    def test_budget_reaches_explicit_drain_state_with_zero_drain_calls(
        self, budget
    ):
        """A deferred system with a budget converges to the same final
        snapshot as an explicit-drain run — without the caller ever
        calling drain() (close() flushes the final partial batch)."""
        reference = full_state(
            run_workload(SystemConfig(runtime_mode="queued", auto_drain=False), 5)
        )

        config = SystemConfig(runtime_mode="parallel", shards=2, drain_budget=budget)
        system = ELearningSystem.with_defaults(config)
        drains = {"n": 0}
        inner_drain = system.server.drain_supervision

        def counting_drain():
            drains["n"] += 1
            return inner_drain()

        system.server.drain_supervision = counting_drain
        for room in ROOMS:
            system.open_room(room, topic="t")
            system.join(room, f"{room}-kid")
            system.join(room, "prof", Role.TEACHER)
        for index, (room, user, text) in enumerate(scripted_messages()):
            system.say(room, user, text)
            if index % 11 == 0:
                system.say(room, "prof", "Good question.")
        assert drains["n"] > 0  # the budget fired mid-traffic on its own
        system.close()  # flushes the tail unconditionally
        assert system.supervision_backlog == 0
        state = full_state(system)
        for surface in ("corpus", "profiles", "faq", "stats"):
            assert state[surface] == reference[surface], surface

    def test_budget_ignored_by_auto_drain_modes(self):
        config = SystemConfig(
            runtime_mode="queued", drain_budget=DrainBudget(max_pending_posts=1)
        )
        system = ELearningSystem.with_defaults(config)
        system.open_room("r", topic="t")
        system.join("r", "kid")
        system.say("r", "kid", "What is a queue?")  # would recurse otherwise
        assert system.stats.messages == 1
        system.close()


class TestLifecycle:
    def test_system_close_drains_backlog_and_is_idempotent(self):
        system = ELearningSystem.with_defaults(parallel_config(2))
        system.open_room("r", topic="t")
        system.join("r", "kid")
        system.say("r", "kid", "I push the data into a tree.")
        assert system.pending_supervision == 1
        system.close()  # in-memory system: the backlog still drains
        assert system.supervision_backlog == 0
        assert system.stats.messages == 1
        assert system.runtime._executor is None  # thread pool released
        system.close()  # idempotent
