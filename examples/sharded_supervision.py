#!/usr/bin/env python3
"""The sharded supervision runtime: O(1) posting, batched agent work.

Posts the same classroom traffic to 16 rooms under two runtimes:

* the synchronous pipeline (``inline``) — every ``say`` runs the full
  Figure-3 agent flow before returning;
* the sharded runtime — ``say`` just delivers and enqueues; rooms are
  sharded across 4 workers and one ``drain()`` per round batches the
  queued work.

Both share the pipeline's sentence-analysis cache, so each distinct
sentence is analysed once in either runtime.

Run:  python examples/sharded_supervision.py [rounds]
"""

from __future__ import annotations

import sys
import time

from repro.core.system import ELearningSystem, SystemConfig

MESSAGES = [
    "We push an element onto the stack.",
    "What is a queue?",
    "The tree doesn't have pop method.",
    "I push the data into a tree.",
]
ROOMS = 16


def build(config: SystemConfig) -> ELearningSystem:
    system = ELearningSystem.with_defaults(config)
    for index in range(ROOMS):
        room = f"section-{index:02d}"
        system.open_room(room, topic="data structures")
        system.join(room, f"student-{index}")
    # Untimed warmup of every message template so both runtimes measure
    # steady state (the parse caches are process-wide; whoever runs
    # first would otherwise pay the cold parses and the repair search
    # for both).
    for text in MESSAGES:
        for index in range(ROOMS):
            system.say(f"section-{index:02d}", f"student-{index}", text)
    system.drain()
    return system


def run(system: ELearningSystem, rounds: int, drain_per_round: bool) -> float:
    posted = 0
    start = time.perf_counter()
    for i in range(rounds):
        text = MESSAGES[i % len(MESSAGES)]
        for index in range(ROOMS):
            system.say(f"section-{index:02d}", f"student-{index}", text)
            posted += 1
        if drain_per_round:
            system.drain()
    system.drain()
    return posted / (time.perf_counter() - start)


def main() -> None:
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 12

    sync = build(SystemConfig(runtime_mode="inline"))
    sync_rate = run(sync, rounds, drain_per_round=False)
    print(f"inline  runtime: {sync_rate:8.0f} msg/s  "
          f"(agents run on the posting path)")

    sharded = build(SystemConfig(runtime_mode="sharded", shards=4))
    sharded_rate = run(sharded, rounds, drain_per_round=True)
    print(f"sharded runtime: {sharded_rate:8.0f} msg/s  "
          f"({sharded_rate / sync_rate:.1f}x, workers drain batched work)")

    print(f"\nper-worker messages: {sharded.runtime.worker_loads()}")
    print(f"merged stats equal per-worker sum: "
          f"{sharded.stats.messages} messages, "
          f"{sharded.stats.sentences} sentences, "
          f"{sharded.stats.agent_replies} agent replies")
    for worker_index, stats in enumerate(sharded.pipeline.worker_stats()):
        print(f"  worker {worker_index}: {stats.messages} messages, "
              f"{stats.agent_replies} replies")

    # Identical supervision outcomes, radically different scheduling.
    assert sync.stats == sharded.stats
    print("\nsync and sharded runs agree on every supervision counter.")


if __name__ == "__main__":
    main()
