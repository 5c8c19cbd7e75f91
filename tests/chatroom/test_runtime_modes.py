"""Contracts every runtime mode keeps, whatever it schedules.

``inline``, ``queued``, ``sharded`` and ``parallel`` run the same
supervision pipeline on different schedules.  What must not depend on
that choice:

* the durable outcome — stats, profiles and FAQ are identical to the
  ``queued`` reference for any drain cadence, and the corpus holds the
  same records (``sharded`` may number them in per-shard order);
* every user message is supervised exactly once and nothing stays owed;
* agent replies thread in post order within each room;
* a raising supervisor costs exactly its own item, which dead-letters;
* ``close()`` flushes the backlog and is idempotent;
* a :class:`DrainBudget` drains every deferred mode from ``say()`` alone.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.chatroom import (
    RUNTIME_MODES,
    ChatServer,
    DrainBudget,
    MessageKind,
    Role,
    SupervisionRuntime,
)
from repro.core.system import ELearningSystem, SystemConfig

from test_parallel_runtime import ROOMS, run_workload, scripted_messages

CADENCES = (1, 7, None)


def mode_config(mode: str, **overrides) -> SystemConfig:
    return SystemConfig(runtime_mode=mode, shards=3, **overrides)


def corpus_records(system: ELearningSystem) -> list[str]:
    """The corpus as a multiset of records, ids dropped."""
    return sorted(
        json.dumps(
            {key: value for key, value in record.items() if key != "record_id"},
            sort_keys=True,
        )
        for record in system.corpus.snapshot()
    )


def outcome(system: ELearningSystem) -> dict:
    return {
        "stats": system.stats,
        "profiles": system.profiles.snapshot(),
        "faq": system.faq.snapshot(),
        "corpus": corpus_records(system),
    }


@pytest.fixture(scope="module")
def queued_outcomes() -> dict:
    """Queued deferred-drain reference outcomes, one per cadence."""
    return {
        drain_every: outcome(
            run_workload(SystemConfig(runtime_mode="queued", auto_drain=False), drain_every)
        )
        for drain_every in CADENCES
    }


def user_messages(system: ELearningSystem) -> int:
    return sum(
        1
        for room in ROOMS
        for message in system.server.get_room(room).transcript
        if message.kind == MessageKind.USER
    )


@pytest.mark.parametrize("mode", RUNTIME_MODES)
class TestOutcome:
    @pytest.mark.parametrize("drain_every", CADENCES)
    def test_outcome_matches_queued(self, queued_outcomes, mode, drain_every):
        system = run_workload(mode_config(mode), drain_every)
        try:
            got = outcome(system)
        finally:
            system.close()
        want = queued_outcomes[drain_every]
        for surface in ("stats", "profiles", "faq", "corpus"):
            assert got[surface] == want[surface], surface

    def test_every_user_message_supervised_once(self, mode):
        system = run_workload(mode_config(mode), 7)
        try:
            assert sum(system.runtime.worker_loads()) == user_messages(system)
            assert system.runtime.pending == 0
            assert system.supervision_backlog == 0
            assert system.quarantined == 0
        finally:
            system.close()

    def test_replies_thread_in_post_order_within_each_room(self, mode):
        system = run_workload(mode_config(mode), 7)
        try:
            replies = 0
            for room in ROOMS:
                transcript = system.server.get_room(room).transcript
                threaded = [m.reply_to for m in transcript if m.kind == MessageKind.AGENT]
                assert threaded == sorted(threaded), room
                for message in transcript:
                    if message.kind == MessageKind.AGENT:
                        assert message.reply_to < message.seq
                replies += len(threaded)
            assert replies > 0
        finally:
            system.close()


class _RaisingSupervisor:
    """Raises on ``boom`` and records every other text it supervises.

    Speaks both protocols: ``on_item`` for the cooperative modes, and
    ``fork_shard`` for ``parallel`` (its forks share ``seen``).
    """

    def __init__(self):
        self.seen: list[str] = []

    def on_item(self, server, item, memo=None):
        if "boom" in item.message.text:
            raise RuntimeError("supervisor blew up")
        self.seen.append(item.message.text)

    def fork_shard(self):
        outer = self

        class Stores:
            def merge(self):
                pass

            def rebase(self):
                pass

            def take_replies(self):
                return []

        return outer, Stores()


def raising_server(mode: str):
    runtime = SupervisionRuntime(mode=mode, shards=2)
    server = ChatServer(runtime=runtime)
    supervisor = _RaisingSupervisor()
    server.add_supervisor(supervisor)
    server.create_room("r")
    server.join("r", "u")
    return runtime, server, supervisor


@pytest.mark.parametrize("mode", RUNTIME_MODES)
class TestFailureAndLifecycle:
    def test_raising_item_dead_letters_and_the_rest_are_supervised(self, mode):
        runtime, server, supervisor = raising_server(mode)
        posted = {}
        try:
            for text in ("alpha", "boom", "gamma", "delta"):
                posted[text] = server.post("r", "u", text)
            server.drain_supervision()  # no raise: the drain survives
            assert supervisor.seen == ["alpha", "gamma", "delta"]
            assert runtime.pending == 0
            quarantine = runtime.resilience.quarantine
            assert len(quarantine) == 1
            row = quarantine.get(posted["boom"].seq)
            assert row is not None
            assert row.text == "boom"
            assert "supervisor blew up" in row.error
        finally:
            runtime.close()

    def test_runtime_close_is_idempotent_after_traffic(self, mode):
        runtime, server, supervisor = raising_server(mode)
        server.post("r", "u", "alpha")
        server.drain_supervision()
        runtime.close()
        runtime.close()
        assert supervisor.seen == ["alpha"]

    def test_system_close_flushes_backlog_and_is_idempotent(self, mode):
        system = ELearningSystem.with_defaults(mode_config(mode, auto_drain=False))
        system.open_room("r", topic="t")
        system.join("r", "kid")
        system.say("r", "kid", "I push the data into a tree.")
        deferred = mode != "inline"  # inline supervises inside say()
        assert system.pending_supervision == (1 if deferred else 0)
        system.close()
        assert system.supervision_backlog == 0
        assert system.stats.messages == 1
        system.close()
        assert system.stats.messages == 1


@pytest.mark.parametrize(
    "budget",
    [DrainBudget(max_pending_posts=5), DrainBudget(max_interval=4.0)],
    ids=["post-count", "interval"],
)
@pytest.mark.parametrize(
    "config",
    [
        SystemConfig(runtime_mode="queued", auto_drain=False),
        SystemConfig(runtime_mode="sharded", shards=3),
    ],
    ids=["queued-deferred", "sharded"],
)
def test_drain_budget_drives_deferred_modes(queued_outcomes, config, budget):
    """The budget fires from say() alone and the final outcome equals an
    explicitly drained run (close() flushes the last partial batch)."""
    system = ELearningSystem.with_defaults(replace(config, drain_budget=budget))
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
    assert drains["n"] > 0
    system.close()
    assert system.supervision_backlog == 0
    got = outcome(system)
    want = queued_outcomes[None]
    for surface in ("stats", "profiles", "faq", "corpus"):
        assert got[surface] == want[surface], surface
