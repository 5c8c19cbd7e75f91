"""In-process workloads (``classroom``, ``template_cohort``).

One fresh process per invocation: ``default_dictionary()`` is cached per
process, so a reused process would under-report set-up and share parse
caches across workloads.  The process builds the system in memory with
the default ``queued`` runtime, opens the rooms, joins every learner,
prints ``READY`` (the parent times set-up up to that line) and, unless
``--setup-only``, drives a closed loop: one caller, next post only
after ``say()`` returned.  It prints one ``RESULT <json>`` line.

    python3 bench/inproc.py --workload classroom --seed 1 --seconds 5 [--trace]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import traffic  # noqa: E402
from spans import SpanRecorder, layer_values, now_ns, percentile  # noqa: E402
from speed import SpeedProbe  # noqa: E402

#: Posts sent before the timed window so lazy set-up (connector tables,
#: first-parse paths) and the template set's parse-cache fill are done.
WARMUP_POSTS = {"classroom": 200, "template_cohort": 96}
#: flag_accuracy is scored on this many timed posts (or all, if fewer),
#: so it is a function of the seed alone, not of how fast the run went.
ACCURACY_POSTS = 2000
#: peak_rss_mb is read after this many timed posts (or at the end, if
#: fewer): the state grows with every post, so a peak taken at the end of
#: a closed loop would measure how fast the run went.
RSS_POSTS = {"classroom": 8000, "template_cohort": 20000}
SLO_MS = 250.0

#: Which agent's reply decides an utterance's verdict (first match wins).
VERDICT_OF = (("Learning_Angel", "syntax"), ("Semantic_Agent", "semantic"), ("QA_System", "question"))


def verdict(senders) -> str:
    for agent, label in VERDICT_OF:
        if agent in senders:
            return label
    return "clean"


def flag_accuracy(pairs) -> float:
    """Share of (label, verdict) pairs that agree, questions excluded
    (they are checked separately: each must draw a QA reply)."""
    scored = [(label, seen) for label, seen in pairs if label != "question"]
    return sum(label == seen for label, seen in scored) / len(scored) if scored else 0.0


def latencies(durations, stamps, replied, at=lambda stamp: 1.0) -> dict:
    """The latency metrics of ``say()`` durations (ns) started at
    ``stamps``, each scaled by ``at(stamp)`` (see speed.py); ``replied``
    flags the posts that drew an agent reply."""
    ms = [d * at(t) / 1e6 for d, t in zip(durations, stamps)]
    reply_ms = [m for m, r in zip(ms, replied) if r]
    return {
        "post_p50_ms": percentile(ms, 0.5),
        "post_p99_ms": percentile(ms, 0.99),
        "reply_p50_ms": percentile(reply_ms, 0.5),
        "reply_p99_ms": percentile(reply_ms, 0.99),
        # The ack of an in-process post is say() returning.
        "ack_p99_ms": percentile(ms, 0.99),
    }


def build(workload: str, seed: int):
    from repro.core.system import ELearningSystem

    load = traffic.WORKLOAD_TRAFFIC[workload](seed)
    system = ELearningSystem.with_defaults()
    for room in load.rooms:
        system.open_room(room)
    for room, user in load.members:
        system.join(room, user)
    return system, load


def post(system, item) -> tuple[int, list[str]]:
    """One ``say``: its duration and the senders of the agent replies
    it drew (in the queued runtime they are in the transcript on return)."""
    transcript = system.server.rooms[item.room].transcript
    before = len(transcript)
    start = now_ns()
    message = system.say(item.room, item.user, item.text)
    took = now_ns() - start
    senders = [
        m.sender for m in transcript[before:]
        if m.reply_to == message.seq and m.kind.value == "agent"
    ]
    return took, senders


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    system, load = build(workload, seed)
    print("READY", flush=True)
    posts = iter(load)
    for _ in range(WARMUP_POSTS[workload]):
        post(system, next(posts))
    recorder = SpanRecorder()
    if traced:
        recorder.install()
    cache = system.learning_angel.cache_store
    cache0 = dict(cache.info())
    stats0 = system.stats
    faq0 = (stats0.faq_hits, stats0.questions_answered)

    # Flat arrays: the run's own bookkeeping stays out of peak_rss_mb.
    durations, stamps, replied = array("q"), array("q"), array("b")
    pairs, failures = [], []
    attempted = slo_met = 0
    peak_rss_kb = None
    probe = SpeedProbe()
    t0 = now_ns()
    deadline = t0 + int(seconds * 1e9)
    while (now := now_ns()) < deadline:
        probe.tick(now)
        item = next(posts)
        attempted += 1
        try:
            took, senders = post(system, item)
        except Exception as exc:  # a failed post is counted, never dropped
            failures.append(f"post {attempted}: {type(exc).__name__}: {exc}")
            continue
        durations.append(took)
        stamps.append(now)
        replied.append(bool(senders))
        if took <= SLO_MS * 1e6:
            slo_met += 1
        if item.label == "question" and "QA_System" not in senders:
            failures.append(f"question without a QA reply: {item.text!r}")
        if len(pairs) < ACCURACY_POSTS:
            pairs.append((item.label, verdict(senders)))
        if len(durations) == RSS_POSTS[workload]:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t1 = now_ns()
    if traced:
        recorder.uninstall()

    quarantined, shed = system.quarantined, system.supervision_shed
    failed = len(failures) + quarantined + shed
    if quarantined or shed:
        failures.append(f"health: {quarantined} quarantined, {shed} shed")
    # The probe's samples are not the workload's time.
    window_s = (t1 - t0 - probe.spent_ns) / 1e9
    # Timings at the reference speed (see speed.py): each duration by the
    # speed around it, the throughput by the run's.  Shares and memory are
    # reported as measured.
    measured = {
        "slo_share": slo_met / attempted if attempted else 0.0,
        "flag_accuracy": flag_accuracy(pairs),
        "peak_rss_mb": (peak_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024,
    }
    throughput = len(durations) / window_s
    result = {
        "metrics": dict(measured, throughput_msg_s=throughput / probe.factor(),
                        **latencies(durations, stamps, replied, probe.local())),
        "unscaled": dict(measured, throughput_msg_s=throughput,
                         **latencies(durations, stamps, replied)),
        "speed_factor": probe.factor(),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "posts": len(durations),
    }
    if traced:
        values, agg = layer_values(recorder.rows(), t0, t1)
        info = cache.info()
        lookups = info["hits"] + info["misses"] - cache0["hits"] - cache0["misses"]
        stats = system.stats
        answered = stats.questions_answered - faq0[1]
        counters = system.resilience.counters
        values.update({
            # One on_item per drained item in the queued runtime.
            "chatroom.runtime.drain.items": values.get("chatroom.supervisor.on_item.calls", 0),
            "linkgrammar.cache.hit_ratio": (info["hits"] - cache0["hits"]) / lookups if lookups else 0.0,
            "corpus.records": len(system.corpus),
            "qa.faq.hit_ratio": (stats.faq_hits - faq0[0]) / answered if answered else 0.0,
            "resilience.retries": counters.retries,
            "resilience.quarantined": quarantined,
            "resilience.shed": shed,
            "python.gc.gen2": sum(t0 <= t <= t1 for t in recorder.gen2),
            "trace.coverage": sum(l["self_ms"] for l in agg["layers"].values()) / (window_s * 1e3),
        })
        result["layers"] = values
        result["shares"] = {name: l["self_ms"] for name, l in agg["layers"].items()}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WARMUP_POSTS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        build(args.workload, args.seed)
        print("READY", flush=True)
        return 0
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
