"""The benchmark's metric catalogue: names, units and directions.

``BENCHMARK.json`` at the repository root lists the same metrics;
``run.py`` refuses to run when the two disagree, so the file and the
program that fills it cannot drift apart.
"""

from __future__ import annotations

from spans import SPAN_NAMES

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_msg_s", "msg/s", "higher", 0.25),
    ("post_p50_ms", "ms", "lower", 0.25),
    ("post_p99_ms", "ms", "lower", 0.25),
    ("reply_p50_ms", "ms", "lower", 0.25),
    ("slo_share", "ratio", "higher", 0.05),
    ("flag_accuracy", "ratio", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

#: End-to-end metrics reported at the reference speed (see speed.py).
#: Serving's throughput is the offered rate and is not scaled.
SCALED_BY_PROBE = (
    "setup_s", "throughput_msg_s", "post_p50_ms", "post_p99_ms", "reply_p50_ms",
    "reply_p99_ms", "ack_p99_ms",
)

#: Quantities paired across spans (and, for serving, across processes)
#: rather than recorded by one wrapper.
DERIVED = (
    "serving.post_rtt",
    "serving.admission_wait",
    "serving.http_self",
    "serving.fanout_delay",
    "chatroom.queue_wait",
)

# name, unit, better
COUNTERS = (
    ("chatroom.runtime.drain.items", "count", "higher"),
    ("linkgrammar.cache.hit_ratio", "ratio", "higher"),
    ("corpus.records", "count", "higher"),
    ("qa.faq.hit_ratio", "ratio", "higher"),
    ("durability.snapshot.bytes", "bytes", "lower"),
    ("durability.snapshot.q1_ms", "ms", "lower"),
    ("durability.snapshot.q4_ms", "ms", "lower"),
    ("durability.wal.bytes", "bytes", "lower"),
    ("resilience.retries", "count", "lower"),
    ("resilience.quarantined", "count", "lower"),
    ("resilience.shed", "count", "lower"),
    ("python.gc.gen2", "count", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("fail_ratio", "ratio", "lower"),
    # Serving's tails, timed from the scheduled send, grow faster than
    # linearly when the host slows (queueing), so neither speed scaling
    # nor a bound holds for them (see NOTES.md).  Reported from the
    # untraced half of a traced run.
    ("reply_p99_ms", "ms", "lower"),
    ("ack_p99_ms", "ms", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)


def per_layer() -> list[tuple[str, str, str]]:
    rows = []
    for name in SPAN_NAMES + DERIVED:
        rows.append((f"{name}.calls", "count", "higher"))
        rows.append((f"{name}.self_ms", "ms", "lower"))
        rows.append((f"{name}.p95_ms", "ms", "lower"))
    return rows + list(COUNTERS)


def check_manifest(manifest: dict) -> list[str]:
    """Differences between ``BENCHMARK.json`` and this catalogue."""
    problems = []
    want_e2e = [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
    ]
    want_layer = [{"name": n, "unit": u, "better": b} for n, u, b in per_layer()]
    if manifest.get("end_to_end") != want_e2e:
        problems.append("end_to_end metrics differ from bench/metrics.py")
    if manifest.get("per_layer") != want_layer:
        problems.append("per_layer metrics differ from bench/metrics.py")
    return problems


def emit(values: dict, catalogue) -> dict:
    """``{name: {"value", "unit"}}`` for every catalogued metric."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit, *_ in catalogue
    }
