"""Mutation under concurrent load: the delta overlay behind live serving.

The contract under test is the update-boundary oracle: every mutation
(``add_entity``) applies under one store-lock span, so any response a
concurrent reader observes must be bit-identical to the answer at *some*
update boundary — the state after 0, 1, ... or all mutations — never a
half-applied one.  A heap twin of the served bundle replays the same
mutation sequence step by step to enumerate those boundaries.

On top of that sit the serving-tier consequences:

* mapped stores never thaw — writes land in the overlay, and
  ``MappedPostingStore.backed_stores_thawed`` stays flat;
* the fork pool rebuilds on the version bump, so workers inherit the
  overlay copy-on-write and never serve a stale snapshot;
* ``compact()`` folds the overlay into a fresh generation atomically
  re-mapped in place, and the *next* pool rebuild forks from the
  re-mapped pages (the sharded pool adopts the compaction's partition
  instead of re-partitioning on the heap).
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.core.errors import SearchError
from repro.datasets.example import EXAMPLE_NORMALIZER, example_graph_with_nodes
from repro.index.builder import build_indexes
from repro.index.incremental import add_entity
from repro.index.mmapstore import MappedPostingStore
from repro.index.serialize import save_indexes
from repro.kg.pagerank import uniform_scores
from repro.search.service import SearchService
from repro.serve import start_http_server
from repro.serve.pool import PooledSearchService

from tests.serve.test_http import get

QUERIES = ("database software company revenue", "software company", "database")

#: One boundary per step: entities named after workload words, so every
#: mutation moves at least one served posting list.
MUTATION_WORDS = ("database", "software", "revenue", "company", "database", "software")


def build_heap_twin():
    graph, _nodes = example_graph_with_nodes()
    return build_indexes(
        graph,
        d=3,
        normalizer=EXAMPLE_NORMALIZER,
        pagerank_scores=uniform_scores(graph),
    )


def engine_fingerprint(result):
    """The service-side answer shape, JSON-round-trip comparable."""
    return (
        [answer.score for answer in result.answers],
        [tuple(answer.pattern_key) for answer in result.answers],
        [answer.num_subtrees for answer in result.answers],
    )


def http_fingerprint(body: bytes):
    payload = json.loads(body)
    return (
        [answer["score"] for answer in payload["answers"]],
        [tuple(answer["pattern_key"]) for answer in payload["answers"]],
        [answer["num_subtrees"] for answer in payload["answers"]],
    )


def boundary_oracles(k=4):
    """``oracle[query] = [fingerprint after 0..len(MUTATION_WORDS) steps]``.

    Computed on a heap twin so the mapped bundle under test never feeds
    its own oracle.
    """
    twin = build_heap_twin()
    service = SearchService(twin)
    oracle = {query: [] for query in QUERIES}
    for step in range(len(MUTATION_WORDS) + 1):
        if step:
            add_entity(twin, "company", MUTATION_WORDS[step - 1])
            service.invalidate()
        for query in QUERIES:
            oracle[query].append(
                engine_fingerprint(service.search(query, k=k))
            )
    service.close()
    return oracle


@pytest.fixture()
def mapped_path(tmp_path):
    path = tmp_path / "example.repro"
    save_indexes(build_heap_twin(), path)
    return path


def drive_mutations_under_load(service, server_address, k=4):
    """Writer thread streams the mutation plan while HTTP readers hammer.

    Returns ``(observed, final)``: every captured ``(query, fingerprint,
    step_floor)`` triple and the post-quiescence fingerprints.
    """
    oracle = boundary_oracles(k=k)
    steps_done = 0
    stop = threading.Event()
    observed = []
    errors = []

    def writer():
        nonlocal steps_done
        for word in MUTATION_WORDS:
            time.sleep(0.02)
            add_entity(service.indexes, "company", word)
            service.invalidate()
            steps_done += 1
        stop.set()

    def reader():
        index = 0
        while not stop.is_set() or index == 0:
            query = QUERIES[index % len(QUERIES)]
            index += 1
            status, body, _ = get(
                server_address,
                f"/search?q={query.replace(' ', '+')}&k={k}",
            )
            if status != 200:
                errors.append(status)
                continue
            observed.append((query, http_fingerprint(body)))

    writer_thread = threading.Thread(target=writer)
    reader_threads = [threading.Thread(target=reader) for _ in range(3)]
    writer_thread.start()
    for thread in reader_threads:
        thread.start()
    writer_thread.join()
    for thread in reader_threads:
        thread.join()

    assert not errors, f"non-200 responses under mutation load: {errors}"
    assert steps_done == len(MUTATION_WORDS)
    for query, fingerprint in observed:
        assert fingerprint in oracle[query], (
            f"response for {query!r} matches no update boundary"
        )

    # Quiescence: after the last invalidation every answer must sit at
    # the *final* boundary — served writes are durable, not just atomic.
    final = {}
    for query in QUERIES:
        status, body, _ = get(
            server_address, f"/search?q={query.replace(' ', '+')}&k={k}"
        )
        assert status == 200
        final[query] = http_fingerprint(body)
        assert final[query] == oracle[query][-1]
    return observed, final


class TestMutationUnderLoad:
    def test_pooled_http_matches_update_boundaries(self, mapped_path):
        thawed_before = MappedPostingStore.backed_stores_thawed
        service = PooledSearchService.from_file(mapped_path, processes=2)
        server = start_http_server(service, max_queue=64, workers=2)
        try:
            observed, _ = drive_mutations_under_load(
                service, server.address
            )
            assert observed
            status, body, _ = get(server.address, "/metrics")
            assert status == 200
            # Every version bump forces a re-fork: the workers that
            # answered the final boundary were built after the writes.
            assert b"repro_pool_rebuilds_total" in body
            assert service.indexes.store.overlay_postings > 0
        finally:
            server.stop()
        assert MappedPostingStore.backed_stores_thawed == thawed_before

    def test_sharded_http_matches_update_boundaries(self, mapped_path):
        thawed_before = MappedPostingStore.backed_stores_thawed
        service = SearchService.from_file(mapped_path, num_shards=2)
        server = start_http_server(service, max_queue=64, workers=2)
        try:
            drive_mutations_under_load(service, server.address)
            assert service.indexes.store.overlay_postings > 0
        finally:
            server.stop()
        assert MappedPostingStore.backed_stores_thawed == thawed_before


class TestCompactionUnderServing:
    def test_pool_rebuilds_from_remapped_generation(self, mapped_path):
        thawed_before = MappedPostingStore.backed_stores_thawed
        twin = build_heap_twin()
        service = PooledSearchService.from_file(
            mapped_path, processes=2, num_shards=2
        )
        try:
            for word in MUTATION_WORDS:
                add_entity(service.indexes, "company", word)
                add_entity(twin, "company", word)
            service.invalidate()
            outcome = service.compact()
            # The compaction wrote a 2-shard file and handed the service
            # a live mapped partition: the next rebuild adopts it rather
            # than re-partitioning a heap copy.
            assert outcome["generation"] == 1
            assert outcome["sharded"] is not None
            assert service._sharded is outcome["sharded"]
            assert service.indexes.store.generation == 1
            assert service.indexes.store.overlay_postings == 0

            oracle = SearchService(twin)
            for query in QUERIES:
                expected = engine_fingerprint(oracle.search(query, k=4))
                served = engine_fingerprint(service.search(query, k=4))
                assert served == expected
            oracle.close()
        finally:
            service.close()
        assert MappedPostingStore.backed_stores_thawed == thawed_before

    def test_compact_requires_a_file_backed_service(self, example_indexes):
        service = SearchService(example_indexes)
        with pytest.raises(SearchError, match="target path"):
            service.compact()

    def test_auto_compact_fires_on_invalidation_tick(self, mapped_path):
        service = SearchService.from_file(
            mapped_path, auto_compact_ratio=1e-9
        )
        try:
            add_entity(service.indexes, "company", "database")
            assert service.stats.compactions == 0
            service.invalidate()
            assert service.stats.compactions == 1
            assert service.indexes.store.generation == 1
            assert service.indexes.store.overlay_postings == 0
            assert "1 compactions" in service.stats.format()
        finally:
            service.close()

    def test_auto_compact_stays_quiet_below_the_ratio(self, mapped_path):
        service = SearchService.from_file(
            mapped_path, auto_compact_ratio=0.5
        )
        try:
            add_entity(service.indexes, "company", "database")
            service.invalidate()
            assert service.stats.compactions == 0
            assert service.indexes.store.generation == 0
        finally:
            service.close()
