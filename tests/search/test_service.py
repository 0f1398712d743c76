"""SearchService: cross-query caching, snapshots, and concurrent serving.

The contract under test is the serving analogue of the id-enumeration
oracle suite: everything the service returns — through any cache tier,
any thread count, any batch path — must be bit-identical to a cold
single-threaded ``TableAnswerEngine.search()`` on the same store
version, and concurrent readers racing an incremental writer must only
ever observe results belonging to *some* complete store version.
"""

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import SearchError
from repro.datasets.example import EXAMPLE_NORMALIZER, example_graph_with_nodes
from repro.index.builder import build_indexes
from repro.index.incremental import add_entity, add_relationship
from repro.kg.pagerank import uniform_scores
from repro.search.engine import TableAnswerEngine
from repro.search.service import SearchService
from repro.serve.pool import PooledSearchService

QUERY = "database software company revenue"


def fingerprint(result):
    """Everything that identifies an answer set bit-for-bit."""
    return (
        result.scores(),
        result.pattern_keys(),
        [answer.num_subtrees for answer in result.answers],
        [list(answer.subtrees) for answer in result.answers],
    )


def cold_search(indexes, query, **kwargs):
    """A fresh engine on a fresh snapshot: the no-cache reference."""
    snap = indexes.snapshot()
    return TableAnswerEngine(snap.graph, indexes=snap).search(query, **kwargs)


@pytest.fixture()
def mutable_bundle():
    """A private example-graph bundle tests may mutate freely."""
    graph, nodes = example_graph_with_nodes()
    indexes = build_indexes(
        graph,
        d=3,
        normalizer=EXAMPLE_NORMALIZER,
        pagerank_scores=uniform_scores(graph),
    )
    return graph, nodes, indexes


@pytest.fixture(scope="module")
def wiki_service(wiki_indexes):
    return SearchService(wiki_indexes)


class TestBitIdentical:
    @pytest.mark.parametrize(
        "algorithm",
        ["pattern_enum", "linear", "letopk", "linear_full", "baseline"],
    )
    def test_matches_cold_engine(self, example_indexes, algorithm):
        service = SearchService(example_indexes)
        served = service.search(QUERY, k=5, algorithm=algorithm)
        cold = cold_search(example_indexes, QUERY, k=5, algorithm=algorithm)
        assert fingerprint(served) == fingerprint(cold)

    def test_warm_hits_are_the_same_answers(self, example_indexes):
        service = SearchService(example_indexes)
        first = service.search(QUERY, k=5)
        second = service.search(QUERY, k=5)
        assert not first.stats.from_result_cache
        assert second.stats.from_result_cache
        # Shared answer objects (no recomputation), fresh stats copy.
        assert second.answers is first.answers
        assert second.stats is not first.stats
        assert not first.stats.from_result_cache  # original never mutated
        assert service.stats.result_hits == 1

    def test_spelling_and_alias_share_cache(self, example_indexes):
        service = SearchService(example_indexes)
        service.search("Software Company!", k=3, algorithm="letopk")
        hit = service.search("software   company", k=3,
                             algorithm="linear_topk")
        assert hit.stats.from_result_cache

    def test_uncacheable_plans_bypass_result_cache(self, example_indexes):
        service = SearchService(example_indexes)
        kwargs = dict(
            k=3, algorithm="letopk", seed=None,
            sampling_threshold=1, sampling_rate=0.5,
        )
        service.search(QUERY, **kwargs)
        again = service.search(QUERY, **kwargs)
        assert not again.stats.from_result_cache

    def test_fragment_tier_shared_across_k_and_algorithms(
        self, example_indexes
    ):
        service = SearchService(example_indexes)
        service.search(QUERY, k=3)
        service.search(QUERY, k=7)                       # same words, new k
        service.search(QUERY, k=3, algorithm="linear")   # new algorithm
        assert service.stats.context_hits == 2
        assert service.stats.context_misses == 1

    def test_candidate_fragments_cross_word_order(self, example_indexes):
        service = SearchService(example_indexes)
        service.search("software company", k=3)
        service.search("company software", k=3)
        assert service.stats.candidate_hits == 1


class TestInvalidation:
    def test_version_bump_flushes_and_recomputes(self, mutable_bundle):
        _graph, _nodes, indexes = mutable_bundle
        service = SearchService(indexes)
        query = "company"
        before = service.search(query, k=10)
        assert service.search(query, k=10).stats.from_result_cache

        add_entity(indexes, "Company", "Freshly Added Company")
        after = service.search(query, k=10)
        assert not after.stats.from_result_cache
        assert service.stats.invalidations == 1
        # The new singleton subtree is actually visible.
        totals = lambda r: sum(a.num_subtrees for a in r.answers)  # noqa: E731
        assert totals(after) == totals(before) + 1
        assert fingerprint(after) == fingerprint(
            cold_search(indexes, query, k=10)
        )

    def test_snapshot_survives_mutation(self, mutable_bundle):
        _graph, nodes, indexes = mutable_bundle
        snap = indexes.snapshot()
        engine = TableAnswerEngine(snap.graph, indexes=snap)
        before = fingerprint(engine.search(QUERY, k=5))
        pinned = snap.store.version

        new_node = add_entity(indexes, "Company", "Mutation Corp")
        add_relationship(indexes, nodes["SQL Server"], "developer", new_node)
        assert indexes.store.version > pinned
        assert snap.store.version == pinned
        assert fingerprint(engine.search(QUERY, k=5)) == before

    def test_result_not_cached_when_writer_races_execution(
        self, mutable_bundle, monkeypatch
    ):
        # A result computed while the store version moved may reflect a
        # mid-update world (the baseline walks the live graph); it must
        # not be admitted to the result cache.
        import repro.search.service as service_module

        _graph, _nodes, indexes = mutable_bundle
        service = SearchService(indexes)
        real_execute = service_module.execute_plan

        def racing_execute(snap, plan, context=None, **kwargs):
            result = real_execute(snap, plan, context=context, **kwargs)
            add_entity(indexes, "Company", "Raced In Mid Query")
            return result

        monkeypatch.setattr(service_module, "execute_plan", racing_execute)
        service.search("company", k=5)
        monkeypatch.setattr(service_module, "execute_plan", real_execute)
        assert service.cache_sizes()["results"] == 0
        again = service.search("company", k=5)
        assert not again.stats.from_result_cache

    def test_manual_invalidate(self, example_indexes):
        service = SearchService(example_indexes)
        service.search(QUERY, k=3)
        service.invalidate()
        assert service.cache_sizes()["results"] == 0
        result = service.search(QUERY, k=3)
        assert not result.stats.from_result_cache

    def test_service_rejects_snapshot_bundle(self, example_indexes):
        with pytest.raises(SearchError, match="live"):
            SearchService(example_indexes.snapshot())


class TestBatch:
    def test_order_dedup_and_equivalence(self, example_indexes):
        service = SearchService(example_indexes)
        queries = [
            "software company",
            QUERY,
            "Software Company",   # same plan as the first, spelled oddly
            "database revenue",
            QUERY,
        ]
        results = service.search_many(queries, k=3)
        assert len(results) == len(queries)
        assert fingerprint(results[0]) == fingerprint(results[2])
        assert fingerprint(results[1]) == fingerprint(results[4])
        assert results[2].stats.from_result_cache
        assert service.stats.batch_deduped == 2
        for query, result in zip(queries, results):
            assert fingerprint(result) == fingerprint(
                cold_search(example_indexes, query, k=3)
            )

    def test_threads_match_inline(self, wiki_service, wiki_indexes):
        vocab = sorted(wiki_indexes.root_first.words())
        queries = [
            " ".join(vocab[i::7][:2]) for i in range(0, 21, 3)
        ]
        inline = wiki_service.search_many(queries, k=5)
        wiki_service.invalidate()
        threaded = wiki_service.search_many(queries, k=5, threads=4)
        assert [fingerprint(r) for r in inline] == [
            fingerprint(r) for r in threaded
        ]

    def test_processes_match_inline(self, example_indexes):
        service = SearchService(example_indexes)
        queries = [QUERY, "software company", "database revenue"]
        inline = service.search_many(queries, k=3, keep_subtrees=False)
        with PooledSearchService(example_indexes, processes=2) as pooled:
            forked = pooled.search_many(
                queries, k=3, keep_subtrees=False, threads=2
            )
        assert [(r.scores(), r.pattern_keys()) for r in inline] == [
            (r.scores(), r.pattern_keys()) for r in forked
        ]

    def test_processes_keep_subtrees_rows_match_inline(
        self, example_indexes
    ):
        # Kept subtree combos are ComboRef store views in the worker; the
        # pool must ship them back as value-equal PathEntry tuples.
        service = SearchService(example_indexes)
        queries = [QUERY, "software company", "database revenue"]
        inline = service.search_many(queries, k=3)
        with PooledSearchService(example_indexes, processes=2) as pooled:
            forked = pooled.search_many(queries, k=3, threads=2)
        assert [fingerprint(r) for r in inline] == [
            fingerprint(r) for r in forked
        ]
        for reference, result in zip(inline, forked):
            for ref_answer, answer in zip(reference.answers, result.answers):
                assert [
                    tuple(combo) for combo in ref_answer.subtrees
                ] == list(answer.subtrees)


class TestConcurrentServing:
    """N reader threads against a mutating incremental index."""

    READERS = 4
    UPDATES = 6

    def test_readers_see_only_version_consistent_snapshots(
        self, mutable_bundle
    ):
        _graph, _nodes, indexes = mutable_bundle
        service = SearchService(indexes)
        query = "company"  # every added entity matches it

        # version -> oracle fingerprint, recorded at every update boundary
        # (the store lock makes boundaries the only observable states).
        oracles = {}

        def record():
            snap = indexes.snapshot()
            result = TableAnswerEngine(snap.graph, indexes=snap).search(
                query, k=10
            )
            oracles[snap.store.version] = (
                result.scores(),
                result.pattern_keys(),
                [a.num_subtrees for a in result.answers],
            )

        record()
        stop = threading.Event()
        observed = []
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    result = service.search(query, k=10)
                    observed.append(
                        (
                            result.scores(),
                            result.pattern_keys(),
                            [a.num_subtrees for a in result.answers],
                        )
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def writer():
            try:
                for i in range(self.UPDATES):
                    add_entity(indexes, "Company", f"Company Number {i}")
                    record()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        threads = [
            threading.Thread(target=reader) for _ in range(self.READERS)
        ] + [threading.Thread(target=writer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert observed
        valid = set(map(repr, oracles.values()))
        torn = [o for o in observed if repr(o) not in valid]
        assert not torn, f"{len(torn)} reader results match no version"
        # And the updates were actually picked up by the end.
        final = service.search(query, k=10)
        assert (
            final.scores(),
            final.pattern_keys(),
            [a.num_subtrees for a in final.answers],
        ) == oracles[max(oracles)]

    def test_concurrent_distinct_queries_share_caches_safely(
        self, wiki_service, wiki_indexes
    ):
        vocab = sorted(wiki_indexes.root_first.words())
        queries = [" ".join(vocab[i::11][:2]) for i in range(11)]
        expected = {
            q: fingerprint(cold_search(wiki_indexes, q, k=5))
            for q in queries
        }
        errors = []

        def hammer(worker: int):
            try:
                for i in range(3):
                    q = queries[(worker + i) % len(queries)]
                    got = fingerprint(wiki_service.search(q, k=5))
                    assert got == expected[q]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors


class TestDifferentialHypothesis:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_served_equals_cold(self, wiki_service, wiki_indexes, data):
        vocab = sorted(wiki_indexes.root_first.words())
        words = data.draw(
            st.lists(
                st.sampled_from(vocab), min_size=1, max_size=3, unique=True
            )
        )
        k = data.draw(st.integers(min_value=1, max_value=8))
        algorithm = data.draw(
            st.sampled_from(["pattern_enum", "linear", "linear_full"])
        )
        query = " ".join(words)
        served = wiki_service.search(query, k=k, algorithm=algorithm)
        cold = cold_search(wiki_indexes, query, k=k, algorithm=algorithm)
        assert fingerprint(served) == fingerprint(cold)
