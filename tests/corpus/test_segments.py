"""Unit tests for the corpus disk segment tier: file format hardening,
writer atomicity, the frozen-prefix immutability contract (satellite
fix + regression), pickling, compaction and persistence round-trips.

The differential sweeps live elsewhere (3-way parity in
``test_columnar_parity.py``, cross-tier iterators in
``test_streaming_oracle.py``, crash boundaries in
``tests/durability/test_segment_freeze.py``); this module pins the
mechanisms those sweeps rely on.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.corpus.index import IndexConfig
from repro.corpus.records import Correctness, CorpusRecord
from repro.corpus.segments import (
    SEGMENT_SUFFIX,
    TMP_SUFFIX,
    FrozenSegment,
    FrozenTailError,
    SegmentLoadError,
    SegmentWriter,
    SegmentedCorpus,
    validate_segment_file,
)
from repro.corpus.store import LearnerCorpus

CONFIG = IndexConfig(stopword_df_cap=3)
WORDS = ["the", "data", "stack", "queue", "push", "pop", "holds", "node", "top"]
VERDICTS = [
    Correctness.CORRECT,
    Correctness.CORRECT,
    Correctness.SYNTAX_ERROR,
    Correctness.SEMANTIC_ERROR,
    Correctness.QUESTION,
]


def add_random(corpus, rng: Random, n: int) -> None:
    for _ in range(n):
        verdict = rng.choice(VERDICTS)
        corpus.add(
            CorpusRecord(
                record_id=corpus.next_id(),
                user=rng.choice(["ann", "bob", "cat"]),
                room="r1",
                text=" ".join(rng.choice(WORDS) for _ in range(rng.randrange(2, 6))),
                timestamp=float(corpus.next_id()),
                pattern="simple",
                verdict=verdict,
                syntax_issues=(
                    [("agreement", "the")] if verdict is Correctness.SYNTAX_ERROR else []
                ),
                semantic_issues=(
                    ["wrong container"] if verdict is Correctness.SEMANTIC_ERROR else []
                ),
                keywords=[w for w in ("stack", "queue") if rng.random() < 0.5],
                cost=rng.randrange(0, 3),
            )
        )


def segmented_pair(seed=1, n=40, cadence=7):
    """A frozen segmented corpus plus a plain twin fed the same records."""
    rng = Random(seed)
    segmented = SegmentedCorpus(CONFIG, segment_records=cadence, auto_freeze=True)
    add_random(segmented, rng, n)
    rng = Random(seed)
    plain = LearnerCorpus(CONFIG)
    add_random(plain, rng, n)
    return segmented, plain


class TestSegmentFileHardening:
    """A committed file round-trips; any damaged byte refuses to load."""

    def build_file(self, tmp_path):
        segmented, _ = segmented_pair(n=25, cadence=1 << 30)
        segmented.freeze()
        source = segmented.segments[0].path
        target = tmp_path / source.name
        target.write_bytes(source.read_bytes())
        segmented.close()
        return target

    def test_committed_file_validates(self, tmp_path):
        path = self.build_file(tmp_path)
        info = validate_segment_file(path)
        assert info == {"base": 0, "count": 25}

    def test_every_truncation_refuses_to_load(self, tmp_path):
        path = self.build_file(tmp_path)
        payload = path.read_bytes()
        torn = tmp_path / "torn.seg"
        # Sample prefixes across the whole file, including frame edges.
        for cut in list(range(0, 40)) + list(range(40, len(payload), 97)):
            torn.write_bytes(payload[:cut])
            with pytest.raises(SegmentLoadError):
                validate_segment_file(torn)

    def test_single_byte_corruption_refuses_to_load(self, tmp_path):
        path = self.build_file(tmp_path)
        payload = bytearray(path.read_bytes())
        flipped = tmp_path / "flipped.seg"
        for offset in range(0, len(payload), 131):
            corrupted = bytearray(payload)
            corrupted[offset] ^= 0x41
            flipped.write_bytes(bytes(corrupted))
            with pytest.raises(SegmentLoadError):
                validate_segment_file(flipped)

    def test_wrong_format_and_missing_file(self, tmp_path):
        with pytest.raises(SegmentLoadError):
            validate_segment_file(tmp_path / "nope.seg")
        junk = tmp_path / "junk.seg"
        junk.write_bytes(b"this is not a segment at all\n")
        with pytest.raises(SegmentLoadError):
            validate_segment_file(junk)
        empty = tmp_path / "empty.seg"
        empty.write_bytes(b"")
        with pytest.raises(SegmentLoadError):
            validate_segment_file(empty)


class TestSegmentWriter:
    def test_stale_tmp_files_swept_on_construction(self, tmp_path):
        stale = tmp_path / f"segment-000000000000-000000000004{TMP_SUFFIX}"
        stale.write_bytes(b"half a segment")
        SegmentWriter(tmp_path)
        assert not stale.exists()

    def test_deterministic_refreeze_overwrites_identically(self, tmp_path):
        rng = Random(5)
        a = SegmentedCorpus(CONFIG, segment_records=1 << 30, directory=tmp_path / "a")
        b = SegmentedCorpus(CONFIG, segment_records=1 << 30, directory=tmp_path / "b")
        for corpus in (a, b):
            add_random(corpus, Random(5), 20)
            corpus.freeze()
        pa, pb = a.segments[0].path, b.segments[0].path
        assert pa.name == pb.name
        assert pa.read_bytes() == pb.read_bytes()
        a.close(), b.close()


class TestFrozenTailImmutability:
    """Satellite fix: eviction/merge paths must refuse to rewrite rows
    already sealed on disk — cleanly, with a diagnostic counter, and
    with zero state mutated by the refused call."""

    def test_evict_below_boundary_refuses_and_counts(self):
        segmented, _ = segmented_pair(n=20, cadence=1 << 30)
        segmented.freeze()
        before = segmented.snapshot()
        assert segmented.evictions_refused == 0
        with pytest.raises(FrozenTailError):
            segmented._evict_tail(segmented.frozen_records - 1)
        assert segmented.evictions_refused == 1
        assert segmented.snapshot() == before
        segmented.close()

    def test_merge_of_replica_forked_below_boundary_refuses(self):
        segmented, _ = segmented_pair(n=12, cadence=1 << 30)
        replica = segmented.fork()  # fork floor at record 12, all in RAM
        replica.begin_origin(10_000)
        add_random(replica, Random(9), 1)
        add_random(segmented, Random(10), 4)
        segmented.freeze()  # seals 16 rows — past the fork floor
        before = segmented.snapshot()
        with pytest.raises(FrozenTailError):
            segmented.merge(replica)
        assert segmented.snapshot() == before
        assert segmented.evictions_refused == 1
        segmented.close()

    def test_merge_at_boundary_still_works(self):
        segmented, _ = segmented_pair(n=12, cadence=1 << 30)
        segmented.freeze()
        replica = segmented.fork()  # fork floor == freeze boundary
        replica.begin_origin(10_000)
        add_random(replica, Random(9), 2)
        assert segmented.merge(replica) == 2
        replica.rebase()
        assert len(segmented) == 14
        assert segmented.evictions_refused == 0
        segmented.close()

    def test_evict_within_tail_delegates(self):
        segmented, _ = segmented_pair(n=12, cadence=1 << 30)
        segmented.freeze()
        add_random(segmented, Random(11), 3)
        segmented._evict_tail(segmented.frozen_records + 1)
        assert len(segmented) == 13
        assert segmented.evictions_refused == 0
        segmented.close()


class TestCompaction:
    def test_compact_merges_all_segments_equal_state(self):
        segmented, plain = segmented_pair(n=40, cadence=7)
        segmented.freeze()
        assert len(segmented.segments) > 1
        before = segmented.snapshot()
        segmented.compact()
        assert len(segmented.segments) == 1
        assert segmented.segments[0].base == 0
        assert segmented.frozen_records == segmented.segments[0].count
        assert segmented.snapshot() == before == plain.snapshot()
        assert segmented.verdict_counts() == plain.verdict_counts()
        for word in WORDS:
            assert segmented.token_positions(word) == plain.token_positions(word)
        segmented.close()

    def test_compact_prune_unlinks_sources(self):
        segmented, _ = segmented_pair(n=30, cadence=6)
        segmented.freeze()
        old_paths = [segment.path for segment in segmented.segments]
        segmented.compact(prune=True)
        assert all(not path.exists() for path in old_paths)
        assert segmented.segments[0].path.exists()
        segmented.close()

    def test_compact_default_keeps_sources_for_old_snapshots(self):
        segmented, _ = segmented_pair(n=30, cadence=6)
        segmented.freeze()
        old_paths = [segment.path for segment in segmented.segments]
        segmented.compact()
        assert all(path.exists() for path in old_paths)
        segmented.close()

    def test_compact_noop_with_single_segment(self):
        segmented, _ = segmented_pair(n=10, cadence=1 << 30)
        segmented.freeze()
        assert segmented.compact() is None
        segmented.close()


class TestPersistence:
    def test_columnar_round_trip_between_segmented_corpora(self, tmp_path):
        segmented, plain = segmented_pair(n=30, cadence=6)
        document = segmented.to_columnar()
        segmented.validate_columnar(document)
        other = SegmentedCorpus(
            CONFIG, segment_records=1 << 30, directory=segmented.directory
        )
        other.restore_columnar(document)
        assert other.snapshot() == plain.snapshot()
        assert other.frozen_records == segmented.frozen_records
        other.close()
        segmented.close()

    def test_validate_columnar_rejects_missing_segment(self, tmp_path):
        segmented, _ = segmented_pair(n=30, cadence=6)
        document = segmented.to_columnar()
        document["segments"][0]["file"] = "segment-gone.seg"
        with pytest.raises(SegmentLoadError):
            segmented.validate_columnar(document)
        segmented.close()

    def test_plain_corpus_rejects_segmented_document_with_hint(self):
        segmented, plain = segmented_pair(n=20, cadence=5)
        document = segmented.to_columnar()
        with pytest.raises(ValueError, match="corpus_segment_records"):
            plain.validate_columnar(document)
        with pytest.raises(ValueError, match="corpus_segment_records"):
            plain.restore_columnar(document)
        segmented.close()

    def test_validate_columnar_accepts_plain_document(self):
        segmented, plain = segmented_pair(n=10, cadence=4)
        segmented.validate_columnar(plain.to_columnar())  # no-op, no raise
        segmented.close()

    def test_validate_and_restore_reject_unknown_format(self):
        segmented, _ = segmented_pair(n=10, cadence=4)
        with pytest.raises(ValueError, match="not a"):
            segmented.validate_columnar({"format": "nope/9"})
        with pytest.raises(ValueError, match="not a"):
            segmented.restore_columnar({"format": "nope/9"})
        segmented.close()

    def test_validate_columnar_rejects_mismatched_reference(self):
        segmented, _ = segmented_pair(n=30, cadence=6)
        document = segmented.to_columnar()
        document["segments"][0]["count"] += 1
        with pytest.raises(SegmentLoadError, match="does not match"):
            segmented.validate_columnar(document)
        segmented.close()

    def test_validate_columnar_rejects_broken_contiguity(self):
        segmented, _ = segmented_pair(n=30, cadence=6)
        document = segmented.to_columnar()
        assert len(document["segments"]) >= 2
        del document["segments"][0]  # second segment's base is no longer 0
        with pytest.raises(SegmentLoadError, match="contiguity"):
            segmented.validate_columnar(document)
        segmented.close()

    def test_restore_rejects_mismatched_reference_and_keeps_state(self):
        segmented, plain = segmented_pair(n=30, cadence=6)
        document = segmented.to_columnar()
        document["segments"][-1]["count"] += 1
        other = SegmentedCorpus(
            CONFIG, segment_records=1 << 30, directory=segmented.directory
        )
        with pytest.raises(SegmentLoadError, match="does not match"):
            other.restore_columnar(document)
        # All-or-nothing: the failed restore left the target untouched
        # (and closed every segment it had provisionally opened).
        assert len(other) == 0
        assert other.frozen_records == 0
        other.close()
        assert segmented.snapshot() == plain.snapshot()
        segmented.close()

    def test_restore_plain_document_resets_the_tier(self):
        segmented, _ = segmented_pair(seed=2, n=30, cadence=6)
        assert segmented.frozen_records > 0
        replacement = LearnerCorpus(CONFIG)
        add_random(replacement, Random(11), 8)
        segmented.restore_columnar(replacement.to_columnar())
        assert segmented.frozen_records == 0
        assert len(segmented.segments) == 0
        assert segmented.snapshot() == replacement.snapshot()
        segmented.close()

    def test_save_writes_portable_plain_document(self, tmp_path):
        segmented, plain = segmented_pair(n=30, cadence=6)
        path = tmp_path / "corpus.json"
        segmented.save(path)
        loaded = LearnerCorpus.load(path, CONFIG)
        assert loaded.snapshot() == plain.snapshot()
        segmented.close()


class TestDiagnosticsAndLifecycle:
    def test_memory_stats_show_sublinear_residency(self):
        segmented, plain = segmented_pair(n=60, cadence=8)
        segmented.freeze()
        stats = segmented.memory_stats()
        assert stats["records"] == 60
        assert stats["frozen_records"] == 60
        assert stats["tail_records"] == 0
        assert stats["segments"] == len(segmented.segments)
        assert stats["disk_bytes"] > 0
        # The whole point of the tier: frozen rows cost disk, not heap.
        assert stats["resident_bytes"] < plain.memory_stats()["total_bytes"]
        segmented.close()

    def test_close_is_idempotent_and_releases_segments(self):
        segmented, _ = segmented_pair(n=20, cadence=5)
        paths = [segment.path for segment in segmented.segments]
        assert all(path.suffix == SEGMENT_SUFFIX for path in paths)
        segmented.close()
        segmented.close()
        assert len(segmented.segments) == 0

    def test_frozen_segment_reopen_by_path(self):
        segmented, plain = segmented_pair(n=20, cadence=1 << 30)
        segmented.freeze()
        reopened = FrozenSegment(segmented.segments[0].path)
        try:
            assert len(reopened) == 20
            assert [reopened.text_at(i) for i in range(20)] == [
                plain.text_at(i) for i in range(20)
            ]
        finally:
            reopened.close()
            segmented.close()

    def test_segment_records_must_be_positive(self):
        with pytest.raises(ValueError):
            SegmentedCorpus(CONFIG, segment_records=0)


class TestTieredReadSurfaceParity:
    """Every read accessor the rest of the system may call — columns,
    index point reads, posting queries, DFs, aggregations — must answer
    identically whichever side of the disk seam holds the row."""

    def test_column_accessors_match_plain_twin(self):
        segmented, plain = segmented_pair(seed=3, n=45)
        try:
            tiered, flat = segmented.columns, plain.columns
            assert len(tiered) == len(flat) == 45
            vocabs = tiered.vocabs
            for position in range(len(flat)):
                assert tiered.materialize(position) == flat.materialize(position)
                assert tiered.to_dict(position) == flat.to_dict(position)
                assert tiered.view(position).text == flat.view(position).text
                assert tiered.text_at(position) == flat.text_at(position)
                assert tiered.record_id_at(position) == flat.record_id_at(position)
                assert tiered.verdict_code_at(position) == flat.verdict_code_at(
                    position
                )
                assert tiered.pattern_id_at(position) == flat.pattern_id_at(position)
                assert tiered.user_id_at(position) == flat.user_id_at(position)
                assert tiered.note_count(position) == flat.note_count(position)
                assert tiered.token_set(position) == flat.token_set(position)
                assert tiered.keyword_set(position) == flat.keyword_set(position)
                assert tiered.keywords_at(position) == flat.keywords_at(position)
                assert tiered.syntax_issues_at(position) == flat.syntax_issues_at(
                    position
                )
                assert tiered.semantic_issues_at(position) == flat.semantic_issues_at(
                    position
                )
                for run in (
                    "token_id_run",
                    "keyword_id_run",
                    "raw_keyword_id_run",
                    "issue_kind_id_run",
                ):
                    assert list(getattr(tiered, run)(position)) == list(
                        getattr(flat, run)(position)
                    ), run
            del vocabs
        finally:
            segmented.close()

    def test_frozen_row_memo_survives_freeze_and_compact(self):
        segmented, plain = segmented_pair(seed=4, n=30, cadence=8)
        try:

            def snapshot_reads():
                return [
                    (
                        segmented.columns.text_at(position),
                        segmented.columns.record_id_at(position),
                        segmented.columns.token_set(position),
                        segmented.columns.keyword_set(position),
                    )
                    for position in range(len(plain))
                ]

            before = snapshot_reads()  # fills the facade memo
            segmented.freeze()  # epoch bump: memo must invalidate
            assert snapshot_reads() == before
            segmented.compact()  # another tier-layout change
            assert snapshot_reads() == before
            assert before[0][0] == plain.text_at(0)
        finally:
            segmented.close()

    def test_index_query_surface_matches_plain_twin(self):
        segmented, plain = segmented_pair(seed=5, n=50)
        try:
            tiered, flat = segmented.index, plain.index
            assert len(tiered) == len(flat) == 50
            assert tiered.config == flat.config
            assert tiered.vocabularies is segmented.columns.vocabs
            for position in range(len(flat)):
                assert tiered.verdict_at(position) == flat.verdict_at(position)
                assert tiered.is_correct(position) == flat.is_correct(position)
            assert tiered.verdict_counts() == flat.verdict_counts()
            for verdict in VERDICTS:
                assert tiered.verdict_positions(verdict) == flat.verdict_positions(
                    verdict
                )
                assert list(tiered.iter_verdict_positions(verdict)) == list(
                    flat.iter_verdict_positions(verdict)
                )
            for keyword in ("stack", "queue", "missing"):
                assert tiered.keyword_positions(keyword) == flat.keyword_positions(
                    keyword
                )
                assert list(tiered.iter_keyword_positions(keyword)) == list(
                    flat.iter_keyword_positions(keyword)
                )
                assert tiered.keyword_df(keyword) == flat.keyword_df(keyword)
            for token in WORDS + ["missing"]:
                assert tiered.token_positions(token) == flat.token_positions(token)
                assert list(tiered.iter_token_positions(token)) == list(
                    flat.iter_token_positions(token)
                )
                assert tiered.token_df(token) == flat.token_df(token)
                assert tiered.is_capped_token(token) == flat.is_capped_token(token)
            for user in ("ann", "bob", "cat", "zoe"):
                assert tiered.user_positions(user) == flat.user_positions(user)
                assert list(tiered.iter_user_positions(user)) == list(
                    flat.iter_user_positions(user)
                )
                assert tiered.user_df(user) == flat.user_df(user)
                for verdict in VERDICTS:
                    assert tiered.user_verdict_count(user, verdict) == (
                        flat.user_verdict_count(user, verdict)
                    )
            assert sorted(tiered.users()) == sorted(flat.users())
            assert tiered.split_tokens(WORDS) == flat.split_tokens(WORDS)
        finally:
            segmented.close()

    def test_correct_keyword_accumulation_matches_plain_twin(self):
        segmented, plain = segmented_pair(seed=6, n=60)
        try:
            for keyword in ("stack", "queue", "missing"):
                tiered_counts: dict[int, int] = {}
                flat_counts: dict[int, int] = {}
                segmented.index.accumulate_correct_keyword_positions(
                    keyword, tiered_counts
                )
                plain.index.accumulate_correct_keyword_positions(keyword, flat_counts)
                assert tiered_counts == flat_counts, keyword
        finally:
            segmented.close()

    def test_index_stats_account_for_every_tier(self):
        segmented, plain = segmented_pair(seed=7, n=50)
        try:
            tiered, flat = segmented.index.stats(), plain.index.stats()
            assert tiered["records"] == flat["records"] == 50
            # Tiers partition the records, so per-record contributions
            # (postings, capped DFs) are exactly the flat store's; term
            # entries may be duplicated across segments.
            assert tiered["postings"] == flat["postings"]
            assert tiered["capped_tokens"] == flat["capped_tokens"]
            assert tiered["terms"] >= flat["terms"]
            assert tiered["payload_bytes"] > 0
        finally:
            segmented.close()

    # The posting-protocol checks run inside helper frames so every
    # memoryview-backed posting object dies with the frame before the
    # corpus (and its mmaps) is closed.

    def test_tiered_postings_protocol(self):
        segmented, plain = segmented_pair(seed=8, n=40)
        try:
            self._check_tiered_postings(segmented, plain)
        finally:
            segmented.close()

    @staticmethod
    def _check_tiered_postings(segmented, plain):
        run = segmented.index.token_postings("data")
        flat = plain.index.token_postings("data")
        assert run is not None and flat is not None
        assert bool(run) and len(run) == len(flat)
        assert run.positions() == flat.positions()
        assert run.last == flat.last
        assert run.nbytes() > 0
        # The global gaps stream decodes across tier boundaries.
        decoded, position = [], 0
        for gap in run.gaps:
            position += gap
            decoded.append(position)
        assert tuple(decoded) == flat.positions()
        counts: dict[int, int] = {}
        run.accumulate_into(counts)
        assert set(counts) == set(flat.positions())
        assert all(count == 1 for count in counts.values())

    def test_frozen_postings_protocol(self):
        segmented, plain = segmented_pair(seed=9, n=25, cadence=1 << 30)
        try:
            segmented.freeze()
            self._check_frozen_postings(segmented, plain)
        finally:
            segmented.close()

    @staticmethod
    def _check_frozen_postings(segmented, plain):
        (segment,) = segmented.segments
        token_id = segmented.columns.vocabs.tokens.id_of("data")
        frozen = segment.postings("tokens", token_id)
        reference = plain.index.token_positions("data")
        assert frozen is not None
        assert frozen.positions() == reference
        assert frozen.last == reference[-1]
        assert frozen.nbytes() > 0
        counts: dict[int, int] = {}
        frozen.accumulate_into(counts)
        assert tuple(sorted(counts)) == reference
