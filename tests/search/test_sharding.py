"""Sharded execution: partition invariants, bit-identity, bound-driven
shard skipping, and partition lifecycle.

The load-bearing contract is differential: for every shardable algorithm
and every shard count, a ``SearchService(num_shards=K)`` — in process or
through a :class:`~repro.serve.pool.PooledSearchService` fork pool —
must return answers **bit-identical** to the plain single-store service
— scores, pattern keys, subtree rows, ordering, everything (see
``docs/sharding.md``).
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import PathIndexError, SearchError
from repro.datasets.wiki import WikiConfig, generate_wiki_graph
from repro.index.builder import ResolvedQuery, build_indexes
from repro.index.serialize import (
    load_indexes,
    load_sharded_indexes,
    save_indexes,
    save_sharded_indexes,
)
from repro.index.shards import partition_indexes, shard_of_type
from repro.search.context import EnumerationContext
from repro.search.service import SearchService
from repro.search.sharding import (
    SHARDABLE_ALGORITHMS,
    execute_shard_plan,
    plan_shardable,
)
from repro.serve.pool import PooledSearchService

ALGORITHMS = ("pattern_enum", "linear_topk", "linear_full", "baseline")
SHARD_COUNTS = (1, 2, 4, 7)


def fingerprint(result):
    """Everything observable about the answers, subtree rows included."""
    return [
        (
            answer.score,
            answer.pattern_key,
            answer.num_subtrees,
            [tuple(combo) for combo in answer.subtrees],
            answer.estimated_score,
        )
        for answer in result.answers
    ]


@pytest.fixture(scope="module")
def plain_service(wiki_indexes):
    return SearchService(wiki_indexes)


@pytest.fixture(scope="module")
def wiki_queries(wiki_indexes):
    """Queries with real candidate intersections, plus edge cases."""
    vocab = sorted(wiki_indexes.store.words())
    queries = []
    for pair in itertools.combinations(vocab[:25], 2):
        context = EnumerationContext(wiki_indexes, ResolvedQuery(pair))
        if len(context.candidate_roots) >= 5:
            queries.append(" ".join(pair))
        if len(queries) >= 4:
            break
    assert len(queries) >= 2, "fixture graph lost its vocabulary overlap"
    queries.append(vocab[0])          # single keyword
    queries.append("xyzzy unknown")   # resolves to nothing -> empty answer
    return queries


@pytest.fixture(scope="module")
def sharded_services(wiki_indexes):
    """One in-process service per shard count (keyed ``K``), plus the
    same partition served through a fork pool (keyed ``("pooled", K)``),
    shared by the differential tests."""
    services = {}
    for num_shards in SHARD_COUNTS:
        services[num_shards] = SearchService(
            wiki_indexes, num_shards=num_shards
        )
        services["pooled", num_shards] = PooledSearchService(
            wiki_indexes, processes=2, num_shards=num_shards
        )
    yield services
    for service in services.values():
        service.close()


@pytest.fixture()
def small_bundle():
    """A private (mutation-safe) bundle for lifecycle tests."""
    graph = generate_wiki_graph(
        WikiConfig(
            num_entities=120,
            num_types=8,
            num_attrs=12,
            vocabulary_size=60,
            seed=5,
        )
    )
    return build_indexes(graph, d=3)


class TestPartition:
    def test_shard_of_type_is_stable_and_in_range(self):
        for num_shards in (1, 2, 4, 7, 16):
            for type_id in range(64):
                shard = shard_of_type(type_id, num_shards)
                assert 0 <= shard < num_shards
                assert shard == shard_of_type(type_id, num_shards)

    def test_shard_of_type_spreads(self):
        # Avalanching: a handful of consecutive type ids must not all
        # collapse onto one shard.
        assert len({shard_of_type(t, 4) for t in range(12)}) > 1

    def test_partition_covers_store_exactly(self, wiki_indexes):
        sharded = partition_indexes(wiki_indexes, 4)
        store = wiki_indexes.store
        assert sum(s.store.num_paths for s in sharded.shards) == store.num_paths
        assert sum(s.num_entries for s in sharded.shards) == wiki_indexes.num_entries
        for word in store.words():
            total = sum(
                shard.store.num_postings(word) for shard in sharded.shards
            )
            assert total == store.num_postings(word)

    def test_partition_keeps_patterns_whole(self, wiki_indexes):
        # Pattern containment: every path in shard s has a root whose
        # type hashes to s — so no pattern's root set spans shards.
        sharded = partition_indexes(wiki_indexes, 4)
        graph = wiki_indexes.graph
        for shard_id, shard in enumerate(sharded.shards):
            for path_id in range(shard.store.num_paths):
                root = shard.store.path_root(path_id)
                assert shard_of_type(graph.node_type(root), 4) == shard_id
                assert sharded.shard_of_root(root) == shard_id

    def test_partition_rejects_bad_shard_count(self, wiki_indexes):
        with pytest.raises(PathIndexError, match="num_shards"):
            partition_indexes(wiki_indexes, 0)

    def test_partition_roots_preserves_order(self, wiki_indexes):
        sharded = partition_indexes(wiki_indexes, 4)
        roots = sorted(wiki_indexes.graph.nodes())[:50]
        parts = sharded.partition_roots(roots)
        assert sorted(sum(parts, [])) == roots
        for part in parts:
            assert part == sorted(part)


class TestBitIdentity:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_all_algorithms_match_unsharded(
        self, sharded_services, plain_service, wiki_queries, num_shards
    ):
        service = sharded_services[num_shards]
        pooled = sharded_services["pooled", num_shards]
        for algorithm in ALGORITHMS:
            for query in wiki_queries:
                reference = plain_service.search(
                    query, k=5, algorithm=algorithm
                )
                sharded = service.search(query, k=5, algorithm=algorithm)
                via_pool = pooled.search(query, k=5, algorithm=algorithm)
                label = (num_shards, algorithm, query)
                assert fingerprint(sharded) == fingerprint(reference), label
                assert fingerprint(via_pool) == fingerprint(reference), label
                if algorithm in SHARDABLE_ALGORITHMS and not (
                    sharded.stats.from_result_cache
                ):
                    assert sharded.stats.shards_total == num_shards
                # In-process and pooled sharding make the same skips in
                # the same order (cached stats describe the execution).
                assert (
                    via_pool.stats.shards_total,
                    via_pool.stats.shards_skipped,
                    via_pool.stats.shard_dispatch_order,
                ) == (
                    sharded.stats.shards_total,
                    sharded.stats.shards_skipped,
                    sharded.stats.shard_dispatch_order,
                ), label

    def test_no_subtrees_matches_too(
        self, sharded_services, plain_service, wiki_queries
    ):
        service = sharded_services[4]
        for query in wiki_queries[:3]:
            reference = plain_service.search(
                query, k=5, keep_subtrees=False
            )
            sharded = service.search(query, k=5, keep_subtrees=False)
            assert fingerprint(sharded) == fingerprint(reference)

    def test_search_many_through_shards(
        self, sharded_services, plain_service, wiki_queries
    ):
        service = sharded_services[2]
        reference = plain_service.search_many(wiki_queries, k=5)
        batched = service.search_many(wiki_queries, k=5, threads=2)
        for got, want in zip(batched, reference):
            assert fingerprint(got) == fingerprint(want)


class TestHypothesisDifferential:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_random_queries_match(
        self, data, sharded_services, plain_service, wiki_indexes
    ):
        vocab = sorted(wiki_indexes.store.words())
        words = data.draw(
            st.lists(
                st.sampled_from(vocab), min_size=1, max_size=3, unique=True
            )
        )
        algorithm = data.draw(st.sampled_from(sorted(SHARDABLE_ALGORITHMS)))
        k = data.draw(st.sampled_from([1, 3, 10]))
        num_shards = data.draw(st.sampled_from(SHARD_COUNTS))
        query = " ".join(words)
        reference = plain_service.search(
            query, k=k, algorithm=algorithm, keep_subtrees=False
        )
        sharded = sharded_services[num_shards].search(
            query, k=k, algorithm=algorithm, keep_subtrees=False
        )
        assert fingerprint(sharded) == fingerprint(reference)


class TestBoundSkipping:
    def test_small_k_skips_shards(
        self, sharded_services, plain_service, wiki_queries
    ):
        service = sharded_services[7]
        skipped = 0
        for query in wiki_queries:
            result = service.search(
                query, k=1, keep_subtrees=False, algorithm="pattern_enum"
            )
            reference = plain_service.search(
                query, k=1, keep_subtrees=False, algorithm="pattern_enum"
            )
            assert fingerprint(result) == fingerprint(reference)
            stats = result.stats
            if stats.from_result_cache:
                continue
            skipped += stats.shards_skipped
            assert stats.shards_total == 7
            assert (
                len(stats.shard_dispatch_order) + stats.shards_skipped == 7
            )
        assert skipped > 0, "k=1 over 7 shards never skipped a shard"

    def test_dispatch_order_is_best_bound_first(
        self, sharded_services, wiki_queries
    ):
        service = sharded_services[4]
        service._results.clear()
        result = service.search(wiki_queries[0], k=5)
        stats = result.stats
        order = stats.shard_dispatch_order
        snap = service.snapshot()
        plan = service.plan(wiki_queries[0], k=5)
        context = service._context_for(snap, plan)
        sharded = service._partition(snap)
        uppers = service._shard_bounds(snap, plan, context, sharded)
        bounds = [uppers[shard_id] for shard_id in order]
        assert bounds == sorted(bounds, reverse=True)

    def test_unknown_words_skip_everything(self, sharded_services):
        service = sharded_services[4]
        result = service.search("xyzzy unknown", k=5)
        if not result.stats.from_result_cache:
            assert result.stats.shards_skipped == 4
            assert result.stats.shard_dispatch_order == ()
        assert result.answers == []


class TestInlineRouting:
    def test_baseline_routes_inline(self, sharded_services, wiki_queries):
        result = sharded_services[2].search(
            wiki_queries[0], k=3, algorithm="baseline"
        )
        assert result.stats.shards_total == 0

    def test_sampled_letopk_routes_inline(
        self, sharded_services, plain_service, wiki_queries
    ):
        # Sampled LETopK draws its keep/drop stream over the global
        # candidate ordering; per-shard streams would diverge, so the
        # coordinator executes it inline — still bit-identical.
        params = dict(
            algorithm="linear_topk",
            sampling_threshold=0.0,
            sampling_rate=0.5,
            seed=11,
        )
        result = sharded_services[2].search(wiki_queries[0], k=3, **params)
        reference = plain_service.search(wiki_queries[0], k=3, **params)
        assert result.stats.shards_total == 0
        assert fingerprint(result) == fingerprint(reference)

    def test_plan_shardable_predicate(self, plain_service, wiki_queries):
        shardable = plain_service.plan(wiki_queries[0], algorithm="letopk")
        assert plan_shardable(shardable)
        sampled = plain_service.plan(
            wiki_queries[0],
            algorithm="letopk",
            sampling_threshold=0.0,
            sampling_rate=0.5,
        )
        assert not plan_shardable(sampled)
        baseline = plain_service.plan(wiki_queries[0], algorithm="baseline")
        assert not plan_shardable(baseline)


class TestWorkerRobustness:
    def test_inline_execution_matches_worker(self, small_bundle):
        # Per-shard runs cover every global top-k pattern.
        service = SearchService(small_bundle)
        vocab = sorted(small_bundle.store.words())
        plan = service.plan(" ".join(vocab[:2]), k=5)
        sharded = partition_indexes(small_bundle, 2)
        portable = [
            execute_shard_plan(shard, plan)[0] for shard in sharded.shards
        ]
        merged_keys = sorted(
            key for answers in portable for _, key, _, _, _ in answers
        )
        reference = service.search(plan=plan)
        assert set(a.pattern_key for a in reference.answers) <= set(
            merged_keys
        )


class TestShardedPersistence:
    def test_round_trip(self, small_bundle, tmp_path):
        sharded = partition_indexes(small_bundle, 4)
        path = tmp_path / "kb.sharded.idx"
        save_sharded_indexes(sharded, path)
        loaded = load_sharded_indexes(path)
        assert loaded.num_shards == 4
        assert [s.store.num_paths for s in loaded.shards] == [
            s.store.num_paths for s in sharded.shards
        ]
        assert loaded.base.num_entries == small_bundle.num_entries

    def test_plain_load_returns_base(self, small_bundle, tmp_path):
        path = tmp_path / "kb.sharded.idx"
        save_sharded_indexes(partition_indexes(small_bundle, 2), path)
        base = load_indexes(path)
        assert base.num_entries == small_bundle.num_entries
        assert base.store.num_paths == small_bundle.store.num_paths

    def test_load_sharded_rejects_plain_file(self, small_bundle, tmp_path):
        path = tmp_path / "kb.idx"
        save_indexes(small_bundle, path)
        with pytest.raises(PathIndexError, match="not a sharded"):
            load_sharded_indexes(path)

    def test_service_from_sharded_file(self, small_bundle, tmp_path):
        path = tmp_path / "kb.sharded.idx"
        save_sharded_indexes(partition_indexes(small_bundle, 3), path)
        vocab = sorted(small_bundle.store.words())
        query = " ".join(vocab[:2])
        reference = SearchService(small_bundle).search(query, k=5)
        with SearchService.from_file(path) as service:
            assert service.num_shards == 3  # stored partition honored
            assert fingerprint(service.search(query, k=5)) == fingerprint(
                reference
            )
        # A different K repartitions instead of using the stored shards.
        with SearchService.from_file(path, num_shards=2) as service:
            assert service.num_shards == 2
            assert fingerprint(service.search(query, k=5)) == fingerprint(
                reference
            )


class TestPoolLifecycle:
    def test_pool_rebuilds_after_store_mutation(self, small_bundle):
        """The partition is re-cut after a store mutation."""
        vocab = sorted(small_bundle.store.words())
        query = " ".join(vocab[:2])
        with SearchService(small_bundle, num_shards=2) as service:
            before = service.search(query, k=5)
            first_partition = service._sharded
            assert first_partition.store_version == small_bundle.store.version
            # Any store mutation bumps the version; the next shardable
            # query must re-partition against the new state.
            word, path_id, sim = "zzz-new-word", 0, 0.5
            small_bundle.store.add_posting(word, path_id, sim)
            after = service.search(query, k=5)
            assert service._sharded is not first_partition
            assert (
                service._sharded.store_version == small_bundle.store.version
            )
            assert fingerprint(after) == fingerprint(
                SearchService(small_bundle).search(query, k=5)
            )
            assert not before.stats.from_result_cache
            assert not after.stats.from_result_cache

    def test_close_is_idempotent_and_service_survives(self, small_bundle):
        vocab = sorted(small_bundle.store.words())
        query = vocab[0]
        service = SearchService(small_bundle, num_shards=2)
        first = service.search(query, k=3)
        service.close()
        service.close()
        # Serving continues after close.
        service._results.clear()
        again = service.search(query, k=3)
        assert fingerprint(again) == fingerprint(first)
        service.close()

    def test_rejects_mismatched_preload(self, small_bundle):
        sharded = partition_indexes(small_bundle, 2)
        with pytest.raises(SearchError, match="shards"):
            SearchService(small_bundle, num_shards=3, sharded=sharded)
