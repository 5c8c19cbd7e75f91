"""The committed BENCH_parse.json must match the repro-bench/1 schema.

Perf PRs extend the report; this tier-1 gate fails fast when a workload
or metric silently disappears, the seed baseline gets clobbered, or the
speedup section stops being numeric."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.evaluation.perfbench import REQUIRED_WORKLOAD_METRICS, validate_report

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_PATH = REPO_ROOT / "BENCH_parse.json"


@pytest.fixture(scope="module")
def report() -> dict:
    return json.loads(BENCH_PATH.read_text(encoding="utf-8"))


class TestCommittedReport:
    def test_file_exists(self):
        assert BENCH_PATH.exists(), "BENCH_parse.json missing at repo root"

    def test_validates_against_schema(self, report):
        validate_report(report)  # raises on shape regressions

    def test_seed_baseline_pinned(self, report):
        assert "seed_baseline" in report, "seed baseline was dropped"
        assert report["seed_baseline"]["supervision_throughput"]["messages_per_sec"] > 0

    def test_runtime_workloads_present(self, report):
        workloads = report["workloads"]
        assert workloads["post_latency"]["pending_after"] > 0  # drain deferred
        scale = workloads["multi_room_scale"]
        assert scale["rooms"] >= 16
        assert scale["sharded_speedup_vs_sync"] >= 2.0
        # Posting must be far cheaper than synchronous supervision.
        sync_ms = 1000.0 / report["workloads"]["supervision_throughput"]["messages_per_sec"]
        assert workloads["post_latency"]["ms_per_post"] < sync_ms / 5

    def test_parallel_drain_workload(self, report):
        drain = report["workloads"]["parallel_drain"]
        assert drain["rooms"] >= 16
        assert drain["workers"] >= 4
        assert drain["parallel_speedup_vs_sharded"] >= 1.5

    def test_corpus_scale_workload(self, report):
        # The flat-retrieval claim (docs/corpus.md): stopword-heavy
        # suggestion search over 250k records stays within 3x of 10k.
        scale = report["workloads"]["corpus_scale"]
        assert scale["records_small"] >= 10_000
        assert scale["records_large"] >= 250_000
        assert scale["ms_per_query_small"] > 0
        assert scale["latency_ratio_large_vs_small"] <= 3.0

    def test_corpus_memory_workload(self, report):
        # The columnar-record claim (docs/corpus.md): at 250k synthetic
        # records, the columnar layout costs >= 3x fewer bytes/record
        # than object records, and the streaming suggestion search stays
        # within 1.2x of the tuple-decoding reference path's latency.
        memory = report["workloads"]["corpus_memory"]
        assert memory["records"] >= 250_000
        assert memory["bytes_per_record_columnar"] > 0
        assert memory["memory_ratio_objects_vs_columnar"] >= 3.0
        assert memory["latency_ratio_columnar_vs_reference"] <= 1.2

    def test_corpus_segment_tier_residency(self, report):
        # The disk-tier claim (docs/corpus.md): at 10^6 records fully
        # frozen into mmap-backed segments, a frozen record's heap
        # footprint is at most 0.2x its in-RAM columnar cost, total
        # resident bytes grow sublinearly in frozen records, and the
        # cross-tier suggestion search stays within 1.5x of the in-RAM
        # columnar search at a quarter the corpus.
        memory = report["workloads"]["corpus_memory"]
        assert memory["records_segmented"] >= 1_000_000
        assert memory["records_frozen"] == memory["records_segmented"]
        assert memory["segments"] >= 2
        assert memory["bytes_resident_per_frozen_record"] > 0
        assert memory["resident_ratio_vs_columnar"] <= 0.2
        assert memory["residency_growth_ratio"] < 1.0
        assert memory["latency_ratio_segmented_vs_columnar"] <= 1.5


    def test_resilience_workload(self, report):
        # The fault-tolerance claim (docs/resilience.md): retries and
        # guards must not gut throughput at realistic fault rates, and a
        # post under an open breaker (deliver + defer, no analysis) must
        # be cheaper than a fully supervised fault-free message.
        resilience = report["workloads"]["resilience"]
        assert resilience["messages"] >= 240
        assert resilience["fault_free_messages_per_sec"] > 0
        assert resilience["throughput_ratio_1pct"] >= 0.8
        assert resilience["throughput_ratio_5pct"] > 0
        assert (
            resilience["degraded_ms_per_post"]
            < resilience["fault_free_ms_per_message"]
        )

    def test_serving_workload(self, report):
        # The front-door claim (docs/serving.md): the HTTP serving layer
        # sustains concurrent clients (>= 4, the acceptance floor) with
        # every question drawing an observable QA reply, and the reply
        # percentiles are sane (p95 >= p50 > 0).
        serving = report["workloads"]["serving"]
        assert serving["clients"] >= 4
        assert serving["messages"] >= serving["clients"]
        assert serving["posts_per_sec"] > 0
        assert serving["replies_observed"] == serving["messages"]
        assert 0 < serving["reply_p50_ms"] <= serving["reply_p95_ms"]

    def test_recovery_workload(self, report):
        # The durability claim (docs/durability.md): snapshot-based
        # restart must be much cheaper than a full-replay rebuild, which
        # re-runs the supervision pipeline over every logged message.
        recovery = report["workloads"]["recovery"]
        assert recovery["messages"] >= 240
        assert recovery["events_replayed"] >= recovery["messages"]
        assert recovery["replay_messages_per_sec"] > 0
        assert recovery["wal_bytes"] > 0
        assert recovery["snapshot_bytes"] > 0
        replay_seconds = recovery["messages"] / recovery["replay_messages_per_sec"]
        assert recovery["snapshot_recover_seconds"] < replay_seconds / 2


class TestValidator:
    def test_rejects_wrong_schema_id(self, report):
        broken = {**report, "schema": "repro-bench/2"}
        with pytest.raises(ValueError, match="schema"):
            validate_report(broken)

    def test_rejects_missing_workload(self, report):
        broken = {**report, "workloads": {
            k: v for k, v in report["workloads"].items() if k != "cold_parse"
        }}
        with pytest.raises(ValueError, match="cold_parse"):
            validate_report(broken)

    def test_rejects_renamed_metric(self, report):
        workloads = dict(report["workloads"])
        workloads["warm_parse"] = {
            k: v for k, v in workloads["warm_parse"].items() if k != "cache_hit_rate"
        }
        with pytest.raises(ValueError, match="cache_hit_rate"):
            validate_report({**report, "workloads": workloads})

    def test_rejects_clobbered_baseline(self, report):
        with pytest.raises(ValueError, match="seed_baseline"):
            validate_report({**report, "seed_baseline": {"oops": True}})

    def test_baseline_not_required_to_carry_new_workloads(self, report):
        # The seed predates post_latency/multi_room_scale: the pinned
        # baseline without them must stay valid.
        assert "post_latency" not in report["seed_baseline"]
        validate_report(report)

    def test_covers_every_workload_we_ship(self, report):
        assert set(REQUIRED_WORKLOAD_METRICS) == set(report["workloads"])
