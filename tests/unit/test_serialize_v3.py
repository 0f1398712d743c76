"""The v3 mmap index format: laziness, delta overlay, migration, crash
safety.

v3 lays every posting/bound column out as flat fixed-width arrays behind
an offset table (``docs/index-format.md``); ``load_indexes`` maps the
file and returns a :class:`~repro.index.mmapstore.MappedPostingStore`
whose views deserialize one word at a time.  These tests pin the three
contracts the format exists for:

* **bit-identity** — all four algorithms agree with the in-memory build
  through every migration chain (build→v3, v1→v3, v2→v3, sharded v3);
* **laziness** — cold open + first query never thaws the store and only
  materializes the queried words (class counters assert it);
* **O(delta) mutation** — mutation lands in the heap delta overlay (no
  wholesale thaw, only the touched word's columns leave the mapping),
  bumps the version, pre-mutation snapshots keep serving the old bytes,
  and post-mutation / post-compaction answers are bit-identical to a
  heap engine that applied the same updates.
"""

import os
import pickle

import pytest

from repro.core.errors import PathIndexError
from repro.datasets.wiki import WikiConfig, generate_wiki_graph
from repro.index.builder import ResolvedQuery, build_indexes
from repro.index.incremental import add_entity, add_relationship
from repro.index.mmapstore import MappedPostingStore
from repro.index.serialize import (
    FORMAT_NAME,
    compact_indexes,
    describe_index_file,
    load_indexes,
    load_sharded_indexes,
    save_indexes,
    save_sharded_indexes,
)
from repro.index.shards import partition_indexes
from repro.search.baseline import baseline_search
from repro.search.linear_topk import linear_topk_search
from repro.search.pattern_enum import pattern_enum_search
from test_serialize_v2 import make_legacy_v1_bytes

WIKI_CONFIG = WikiConfig(
    num_entities=400, num_types=16, num_attrs=24, vocabulary_size=160, seed=31
)


@pytest.fixture(scope="module")
def wiki_indexes():
    graph = generate_wiki_graph(WIKI_CONFIG)
    return build_indexes(graph, d=3)


def _query_for(indexes, num_words=2):
    words = sorted(
        indexes.store.words(),
        key=lambda w: (-indexes.store.num_postings(w), w),
    )[:num_words]
    return ResolvedQuery(tuple(words))


def _all_algorithms(indexes, query, k=10):
    """Four-algorithm top-k with full subtree rows, normalized."""
    results = {
        "pattern_enum": pattern_enum_search(indexes, query, k=k),
        "linear": linear_topk_search(indexes, query, k=k),
        "linear_topk": linear_topk_search(
            indexes, query, k=k, sampling_threshold=0, sampling_rate=0.5,
            seed=7,
        ),
        "baseline": baseline_search(indexes, query, k=k),
    }
    return {
        name: [
            (
                answer.pattern_key,
                answer.score,
                [tuple(combo) for combo in answer.subtrees],
            )
            for answer in result.answers
        ]
        for name, result in results.items()
    }


class TestV3RoundTrip:
    def test_loads_backed(self, wiki_indexes, tmp_path):
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        loaded = load_indexes(path)
        assert isinstance(loaded.store, MappedPostingStore)
        assert loaded.store._backed
        assert loaded.d == wiki_indexes.d
        assert loaded.num_entries == wiki_indexes.num_entries
        assert loaded.store.num_paths == wiki_indexes.store.num_paths

    def test_search_identical_after_roundtrip(self, wiki_indexes, tmp_path):
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        loaded = load_indexes(path)
        query = _query_for(wiki_indexes)
        assert _all_algorithms(loaded, query) == _all_algorithms(
            wiki_indexes, query
        )

    def test_default_save_is_v3(self, wiki_indexes, tmp_path):
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path)
        assert isinstance(load_indexes(path).store, MappedPostingStore)

    def test_unknown_version_rejected(self, wiki_indexes, tmp_path):
        with pytest.raises(PathIndexError):
            save_indexes(wiki_indexes, tmp_path / "wiki.idx", version=9)

    def test_load_seconds_recorded(self, wiki_indexes, tmp_path):
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path)
        loaded = load_indexes(path)
        assert loaded.load_seconds > 0.0
        from repro.search.service import SearchService

        service = SearchService(loaded)
        assert service.stats.load_seconds == loaded.load_seconds
        assert "cold start" in service.stats.format()


class TestLaziness:
    def test_cold_open_and_first_query_stay_lazy(
        self, wiki_indexes, tmp_path
    ):
        """The O(1)-cold-start claim: no thaw, only queried words built."""
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        query = _query_for(wiki_indexes, num_words=2)
        thawed = MappedPostingStore.backed_stores_thawed
        words = MappedPostingStore.words_materialized
        loaded = load_indexes(path)
        assert MappedPostingStore.words_materialized == words, (
            "opening the file materialized posting columns"
        )
        pattern_enum_search(loaded, query, k=10)
        assert MappedPostingStore.backed_stores_thawed == thawed
        built = MappedPostingStore.words_materialized - words
        assert 0 < built <= 4 * len(query)

    def test_posting_columns_are_views(self, wiki_indexes, tmp_path):
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        loaded = load_indexes(path)
        ids = next(iter(loaded.store._posting_ids.values()))
        assert isinstance(ids, memoryview)

    def test_snapshot_protocol_stays_lazy(self, wiki_indexes, tmp_path):
        """SearchService snapshots over a backed store must not force the
        vocabulary: the pre-seeded lazy bound columns are adopted as-is."""
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        loaded = load_indexes(path)
        words = MappedPostingStore.words_materialized
        snapshot = loaded.snapshot()
        assert MappedPostingStore.words_materialized == words
        query = _query_for(wiki_indexes)
        assert _all_algorithms(snapshot, query) == _all_algorithms(
            wiki_indexes, query
        )


def _apply_updates(bundle):
    """The shared mutation script for the differential tests.

    Deterministic: applied to a mapped bundle and to a heap oracle, it
    produces identical node/path/posting ids in both.
    """
    a = add_entity(bundle, "city", "overlayton riverbed", pagerank=0.004)
    b = add_entity(bundle, "person", "quanta overlayton", pagerank=0.003)
    add_relationship(bundle, a, "mayor", b)
    return (a, b)


class TestDeltaOverlay:
    def _loaded(self, indexes, tmp_path):
        path = tmp_path / "wiki.idx"
        save_indexes(indexes, path, version=3)
        return load_indexes(path)

    def test_mutation_stays_backed_and_bumps_version(
        self, wiki_indexes, tmp_path
    ):
        """O(delta): a posting append must not thaw — only the touched
        word's columns leave the mapping."""
        loaded = self._loaded(wiki_indexes, tmp_path)
        store = loaded.store
        words = iter(store.words())
        word = next(words)
        untouched = next(words)
        before_version = store.version
        thawed = MappedPostingStore.backed_stores_thawed
        store.add_posting(word, 0, 0.5)
        assert MappedPostingStore.backed_stores_thawed == thawed
        assert store._backed
        assert store.version > before_version
        assert not isinstance(store._posting_ids[word], memoryview)
        assert isinstance(store._posting_ids[untouched], memoryview)
        assert store.num_postings(word) == (
            wiki_indexes.store.num_postings(word) + 1
        )
        assert store.overlay_words == 1
        assert store.overlay_postings == 1

    def test_snapshot_survives_mutation(self, wiki_indexes, tmp_path):
        """A snapshot pinned before the overlay keeps the mapped bytes."""
        loaded = self._loaded(wiki_indexes, tmp_path)
        query = _query_for(wiki_indexes)
        expected = _all_algorithms(wiki_indexes, query)
        snapshot = loaded.snapshot()
        loaded.store.add_posting(query[0], 0, 0.125)
        assert _all_algorithms(snapshot, query) == expected

    def test_incremental_update_answers_change(self, wiki_indexes, tmp_path):
        """The overlay posting is searchable after the views refresh."""
        loaded = self._loaded(wiki_indexes, tmp_path)
        query = _query_for(wiki_indexes, num_words=1)
        word = query[0]
        before = loaded.store.num_postings(word)
        loaded.store.add_posting(word, 0, 1.0)
        loaded.pattern_first.finalize()
        loaded.root_first.finalize()
        assert loaded.store.num_postings(word) == before + 1
        assert loaded.store._backed
        result = pattern_enum_search(loaded, query, k=10)
        assert result.num_answers >= 1

    def test_explicit_thaw_is_the_only_thaw(self, wiki_indexes, tmp_path):
        """thaw() is an opt-in escape hatch, counted by the class
        counter; afterwards the store behaves like a heap store."""
        loaded = self._loaded(wiki_indexes, tmp_path)
        store = loaded.store
        _apply_updates(loaded)  # overlay first, to cover the mixed path
        thawed = MappedPostingStore.backed_stores_thawed
        store.thaw()
        assert MappedPostingStore.backed_stores_thawed == thawed + 1
        assert not store._backed
        assert store.overlay_words == 0
        store.thaw()  # idempotent
        assert MappedPostingStore.backed_stores_thawed == thawed + 1
        query = _query_for(wiki_indexes, num_words=1)
        result = pattern_enum_search(loaded, query, k=10)
        assert result.num_answers >= 1

    def test_post_mutation_identical_to_heap_oracle(
        self, wiki_indexes, tmp_path
    ):
        """All four algorithms agree with a heap engine that applied the
        same updates — the no-thaw acceptance gate at unit scale."""
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        mapped = load_indexes(path)
        oracle = load_indexes(
            tmp_path / "wiki.idx"
        )  # second mapping, thawed into a heap oracle
        oracle.store.thaw()
        assert _apply_updates(mapped) == _apply_updates(oracle)
        thawed = MappedPostingStore.backed_stores_thawed
        for query in (
            _query_for(wiki_indexes),
            ResolvedQuery(("overlayton",)),
            ResolvedQuery(("overlayton", "riverbed")),
        ):
            assert _all_algorithms(mapped, query) == _all_algorithms(
                oracle, query
            )
        assert MappedPostingStore.backed_stores_thawed == thawed
        assert mapped.store._backed


class TestCompaction:
    def test_compact_remaps_in_place(self, wiki_indexes, tmp_path):
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        mapped = load_indexes(path)
        oracle = load_indexes(path)
        oracle.store.thaw()
        assert _apply_updates(mapped) == _apply_updates(oracle)
        store = mapped.store
        version_before = store.version
        result = compact_indexes(mapped, path)
        assert result["generation"] == 1
        assert result["sharded"] is None
        assert store.generation == 1
        assert store.version == version_before + 1
        assert store._backed
        assert store.overlay_words == 0
        assert isinstance(
            next(iter(store._posting_ids.values())), memoryview
        )
        for query in (
            _query_for(wiki_indexes),
            ResolvedQuery(("overlayton",)),
        ):
            assert _all_algorithms(mapped, query) == _all_algorithms(
                oracle, query
            )

    def test_compacted_file_reloads_identically(self, wiki_indexes, tmp_path):
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        mapped = load_indexes(path)
        oracle = load_indexes(path)
        oracle.store.thaw()
        assert _apply_updates(mapped) == _apply_updates(oracle)
        compact_indexes(mapped, path)
        fresh = load_indexes(path)
        assert fresh.store.generation == 1
        assert describe_index_file(path)["generation"] == 1
        for query in (
            _query_for(wiki_indexes),
            ResolvedQuery(("overlayton",)),
        ):
            assert _all_algorithms(fresh, query) == _all_algorithms(
                oracle, query
            )

    def test_snapshot_pinned_across_compaction(self, wiki_indexes, tmp_path):
        """A snapshot taken before compaction keeps serving the old
        generation's answers after the re-map."""
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        mapped = load_indexes(path)
        query = _query_for(wiki_indexes)
        expected = _all_algorithms(wiki_indexes, query)
        snapshot = mapped.snapshot()
        _apply_updates(mapped)
        compact_indexes(mapped, path)
        assert _all_algorithms(snapshot, query) == expected

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_sharded_compaction_identical(
        self, wiki_indexes, tmp_path, num_shards
    ):
        """Sharded compaction preserves per-shard extents: the written
        file restores a partition whose coordinator answers match the
        heap oracle for the updated content."""
        from repro.search.engine import TableAnswerEngine
        from repro.search.service import SearchService

        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        mapped = load_indexes(path)
        oracle = load_indexes(path)
        oracle.store.thaw()
        assert _apply_updates(mapped) == _apply_updates(oracle)
        result = compact_indexes(mapped, path, num_shards=num_shards)
        sharded = result["sharded"]
        assert sharded is not None
        assert sharded.num_shards == num_shards
        assert sharded.store_version == mapped.store.version
        assert all(
            isinstance(shard.store, MappedPostingStore)
            for shard in sharded.shards
        )
        restored = load_sharded_indexes(path)
        assert restored.num_shards == num_shards
        engine = TableAnswerEngine(oracle.graph, indexes=oracle)
        service = SearchService(
            mapped, num_shards=num_shards, sharded=sharded
        )
        try:
            for terms in (
                list(_query_for(wiki_indexes)),
                ["overlayton"],
            ):
                for algorithm in ("pattern_enum", "linear"):
                    expected = engine.search(
                        terms, k=10, algorithm=algorithm
                    )
                    got = service.search(terms, k=10, algorithm=algorithm)
                    assert got.scores() == expected.scores()
                    assert got.pattern_keys() == expected.pattern_keys()
        finally:
            service.close()


class TestMigrationChains:
    def test_v1_to_v3(self, wiki_indexes, tmp_path):
        legacy = tmp_path / "legacy.idx"
        legacy.write_bytes(make_legacy_v1_bytes(wiki_indexes))
        migrated = load_indexes(legacy)
        fresh = tmp_path / "fresh.idx"
        save_indexes(migrated, fresh, version=3)
        reloaded = load_indexes(fresh)
        assert isinstance(reloaded.store, MappedPostingStore)
        query = _query_for(wiki_indexes)
        assert _all_algorithms(reloaded, query) == _all_algorithms(
            wiki_indexes, query
        )

    def test_v2_to_v3(self, wiki_indexes, tmp_path):
        v2 = tmp_path / "v2.idx"
        save_indexes(wiki_indexes, v2, version=2)
        migrated = load_indexes(v2)
        v3 = tmp_path / "v3.idx"
        save_indexes(migrated, v3, version=3)
        reloaded = load_indexes(v3)
        query = _query_for(wiki_indexes)
        assert _all_algorithms(reloaded, query) == _all_algorithms(
            wiki_indexes, query
        )

    def test_v3_to_v2(self, wiki_indexes, tmp_path):
        """Downgrade path: a mapped bundle re-serializes as v2 (lazy
        graph/lexicon/interner all materialize through their reducers)."""
        v3 = tmp_path / "v3.idx"
        save_indexes(wiki_indexes, v3, version=3)
        mapped = load_indexes(v3)
        v2 = tmp_path / "v2.idx"
        save_indexes(mapped, v2, version=2)
        reloaded = load_indexes(v2)
        assert not isinstance(reloaded.store, MappedPostingStore)
        query = _query_for(wiki_indexes)
        assert _all_algorithms(reloaded, query) == _all_algorithms(
            wiki_indexes, query
        )

    def test_sharded_v2_to_v3(self, wiki_indexes, tmp_path):
        sharded = partition_indexes(wiki_indexes, 2)
        v2 = tmp_path / "s2.idx"
        save_sharded_indexes(sharded, v2, version=2)
        restored = load_sharded_indexes(v2)
        v3 = tmp_path / "s3.idx"
        save_sharded_indexes(restored, v3, version=3)
        back = load_sharded_indexes(v3)
        assert back.num_shards == 2
        assert all(
            isinstance(shard.store, MappedPostingStore)
            for shard in back.shards
        )
        query = _query_for(wiki_indexes)
        assert _all_algorithms(back.base, query) == _all_algorithms(
            wiki_indexes, query
        )


class TestShardedV3:
    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_sharded_service_identical(
        self, wiki_indexes, tmp_path, num_shards
    ):
        """v3 sharded file through the sharded service == unsharded."""
        from repro.search.engine import TableAnswerEngine
        from repro.search.service import SearchService

        path = tmp_path / f"s{num_shards}.idx"
        save_sharded_indexes(
            partition_indexes(wiki_indexes, num_shards), path, version=3
        )
        oracle = TableAnswerEngine(wiki_indexes.graph, indexes=wiki_indexes)
        service = SearchService.from_file(path)
        try:
            query = list(_query_for(wiki_indexes))
            for algorithm in ("pattern_enum", "linear"):
                expected = oracle.search(query, k=10, algorithm=algorithm)
                got = service.search(query, k=10, algorithm=algorithm)
                assert got.scores() == expected.scores()
                assert got.pattern_keys() == expected.pattern_keys()
                assert [
                    [tuple(c) for c in a.subtrees] for a in got.answers
                ] == [
                    [tuple(c) for c in a.subtrees]
                    for a in expected.answers
                ]
        finally:
            service.close()

    def test_sharded_file_loads_as_base(self, wiki_indexes, tmp_path):
        path = tmp_path / "s2.idx"
        save_sharded_indexes(partition_indexes(wiki_indexes, 2), path)
        base = load_indexes(path)
        assert base.num_entries == wiki_indexes.num_entries
        query = _query_for(wiki_indexes)
        assert _all_algorithms(base, query) == _all_algorithms(
            wiki_indexes, query
        )

    def test_single_file_rejected_by_sharded_loader(
        self, wiki_indexes, tmp_path
    ):
        path = tmp_path / "single.idx"
        save_indexes(wiki_indexes, path, version=3)
        with pytest.raises(PathIndexError, match="not a sharded index"):
            load_sharded_indexes(path)


class TestSnapshotSaveRejected:
    def test_save_through_snapshot_raises(self, wiki_indexes, tmp_path):
        snapshot = wiki_indexes.snapshot()
        with pytest.raises(PathIndexError, match="StoreSnapshot"):
            save_indexes(snapshot, tmp_path / "snap.idx", version=3)


class TestDescribeIndexFile:
    def test_v3_single(self, wiki_indexes, tmp_path):
        path = tmp_path / "wiki.idx"
        nbytes = save_indexes(wiki_indexes, path, version=3)
        info = describe_index_file(path)
        assert info["version"] == 3
        assert info["kind"] == "single"
        assert info["file_bytes"] == nbytes == os.path.getsize(path)
        assert info["num_entries"] == wiki_indexes.num_entries
        (base,) = info["stores"]
        assert base["name"] == "base"
        assert base["num_paths"] == wiki_indexes.store.num_paths
        assert base["num_postings"] == wiki_indexes.num_entries
        assert 0 < base["store_bytes"] <= info["file_bytes"]

    def test_v3_sharded(self, wiki_indexes, tmp_path):
        path = tmp_path / "s2.idx"
        save_sharded_indexes(partition_indexes(wiki_indexes, 2), path)
        info = describe_index_file(path)
        assert info["kind"] == "sharded"
        assert info["num_shards"] == 2
        names = [entry["name"] for entry in info["stores"]]
        assert names == ["base", "shard 0", "shard 1"]
        base, *shards = info["stores"]
        assert sum(s["num_postings"] for s in shards) == base["num_postings"]

    def test_v2_sharded(self, wiki_indexes, tmp_path):
        path = tmp_path / "s2v2.idx"
        save_sharded_indexes(
            partition_indexes(wiki_indexes, 2), path, version=2
        )
        info = describe_index_file(path)
        assert info["version"] == 2
        assert info["kind"] == "sharded"
        assert len(info["stores"]) == 3
        assert all(s["store_bytes"] > 0 for s in info["stores"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(PathIndexError, match="no such index file"):
            describe_index_file(tmp_path / "absent.idx")


class TestV3CrashSafety:
    def test_failed_save_preserves_existing(
        self, wiki_indexes, tmp_path, monkeypatch
    ):
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        good = path.read_bytes()

        def boom(src, dst):
            raise OSError("disk detached mid-rename")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(PathIndexError, match="cannot write index"):
            save_indexes(wiki_indexes, path, version=3)
        monkeypatch.undo()
        assert path.read_bytes() == good
        assert [p for p in tmp_path.iterdir() if p.name != "wiki.idx"] == []


class TestCorruptV3Files:
    def test_truncated_after_magic(self, tmp_path):
        path = tmp_path / "trunc.idx"
        path.write_bytes(b"RPIXv3\x00\x00\x10")
        with pytest.raises(PathIndexError):
            load_indexes(path)

    def test_magic_with_garbage_header(self, tmp_path):
        path = tmp_path / "garbage.idx"
        path.write_bytes(b"RPIXv3\x00\x00" + b"\xff" * 64)
        with pytest.raises(PathIndexError):
            load_indexes(path)

    def test_wrong_format_name_in_header(self, wiki_indexes, tmp_path):
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        raw = bytearray(path.read_bytes())
        # Corrupt the pickled header's format string in place.
        marker = FORMAT_NAME.encode()
        index = raw.find(marker)
        assert index > 0
        raw[index : index + len(marker)] = marker[::-1]
        bad = tmp_path / "bad.idx"
        bad.write_bytes(bytes(raw))
        with pytest.raises(PathIndexError):
            load_indexes(bad)
