"""Per-word, append-only query columns.

The hot loops read boxed path columns ``(roots, sizes, prs, edges,
self_invalid)`` that each store fills on demand: a query boxes only the
paths its words' postings reach, and a write leaves every boxed slot
valid (path ids are append-only and survive compaction).  These tests
pin three things:

* **differential** — every filled slot equals the store-wide build the
  columns replaced, on heap, mapped, mapped + overlay (after
  ``add_entity`` and ``add_relationship``), after ``compact`` and its
  re-map, and through a snapshot pinned before a write; all four
  algorithms stay bit-identical to :mod:`repro.search.reference` and to
  a cold heap engine;
* **laziness** — a cold open plus one query boxes no more slots than
  the query words' postings, and a read after a write boxes only the
  new paths;
* **loud failure** — a hot-loop read of a slot nobody filled raises.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.errors import PathIndexError
from repro.datasets.wiki import WikiConfig, generate_wiki_graph
from repro.index.builder import ResolvedQuery, build_indexes
from repro.index.incremental import add_entity, add_relationship
from repro.index.serialize import compact_indexes, load_indexes, save_indexes
from repro.index.store import UNFILLED
from repro.search.context import EnumerationContext
from repro.search.engine import TableAnswerEngine
from repro.search.pattern_enum import pattern_enum_search
from repro.search.service import SearchService
from test_id_enumeration import PAIRS, run_pair

WIKI_CONFIG = WikiConfig(
    num_entities=300, num_types=12, num_attrs=20, vocabulary_size=120, seed=41
)


@pytest.fixture(scope="module")
def heap_indexes():
    """Module-shared heap bundle: read-only in these tests."""
    return build_indexes(generate_wiki_graph(WIKI_CONFIG), d=3)


@pytest.fixture()
def mapped(heap_indexes, tmp_path):
    """A fresh cold open of the bundle as a v3 file, and its path."""
    path = tmp_path / "wiki.idx"
    save_indexes(heap_indexes, path, version=3)
    return load_indexes(path), path


def _frequent_words(indexes, count=2):
    store = indexes.store
    return sorted(store.words(), key=lambda w: (-store.num_postings(w), w))[
        :count
    ]


def _queries(indexes):
    top = _frequent_words(indexes, 3)
    return [
        ResolvedQuery((top[0], top[1])),
        # Alone, the word every write extends: its query reaches each of
        # its new postings before any other word's fill could box them.
        ResolvedQuery((top[0],)),
        ResolvedQuery((top[2],)),
        ResolvedQuery(("overlayton",)),
        ResolvedQuery(("overlayton", top[0])),
    ]


def _apply_updates(bundle):
    """Deterministic writes touching a new word and an existing one."""
    existing = _frequent_words(bundle, 1)[0]
    a = add_entity(bundle, "city", f"overlayton {existing}", pagerank=0.004)
    b = add_entity(bundle, "person", "quanta overlayton", pagerank=0.003)
    add_relationship(bundle, a, "mayor", b)
    return a, b


def store_wide_columns(store):
    """The store-wide build the per-word columns replaced, from the
    store's public path accessors."""
    roots, sizes, prs, edges, self_invalid = [], [], [], [], []
    for path_id in range(store.num_paths):
        nodes = store.path_nodes(path_id)
        attrs = store.path_attrs(path_id)
        root = store.path_root(path_id)
        parent = {}
        path_edges = []
        invalid = False
        for i in range(len(nodes) - 1):
            child = nodes[i + 1]
            edge = (nodes[i], attrs[i])
            if child == root or parent.setdefault(child, edge) != edge:
                invalid = True
            path_edges.append((child, edge))
        roots.append(root)
        sizes.append(len(nodes))
        prs.append(store.path_pr(path_id))
        edges.append(tuple(path_edges))
        self_invalid.append(invalid)
    return roots, sizes, prs, edges, self_invalid


def assert_filled_slots_match(store):
    """Every filled slot equals the store-wide build; a slot is filled
    in all five columns or in none.  Returns the filled path ids."""
    columns = store._query_columns()
    expected = store_wide_columns(store)
    filled = []
    for path_id in range(len(columns[1])):
        marks = {column[path_id] is UNFILLED for column in columns}
        assert len(marks) == 1, path_id
        if marks == {False}:
            filled.append(path_id)
            for column, want in zip(columns, expected):
                assert column[path_id] == want[path_id], path_id
    return filled


def _answers(indexes, query):
    """Production answers with the default (pruned) settings."""
    engine = TableAnswerEngine(indexes.graph, indexes=indexes)
    return {
        algorithm: [
            (answer.pattern_key, answer.score, answer.num_subtrees)
            for answer in engine.search(
                query, k=10, algorithm=algorithm
            ).answers
        ]
        for algorithm in ("pattern_enum", "linear_topk", "baseline")
    }


def _heap_twin(path):
    """A second mapping of ``path``, thawed: a heap store with a fresh
    query-column set (the cold engine's store)."""
    twin = load_indexes(path)
    twin.store.thaw()
    return twin


def _check_against_oracles(bundle, twin, queries):
    for query in queries:
        if not all(bundle.store.has_word(word) for word in query):
            continue
        for name in sorted(PAIRS):
            run_pair(bundle, query, name, k=10)
        assert _answers(bundle, query) == _answers(twin, query)


class TestDifferential:
    def test_heap_store(self, heap_indexes):
        twin = build_indexes(generate_wiki_graph(WIKI_CONFIG), d=3)
        _check_against_oracles(heap_indexes, twin, _queries(heap_indexes))
        assert assert_filled_slots_match(heap_indexes.store)

    def test_mapped_cold_open(self, mapped):
        bundle, path = mapped
        _check_against_oracles(bundle, _heap_twin(path), _queries(bundle))
        assert assert_filled_slots_match(bundle.store)

    def test_mapped_overlay_after_writes(self, mapped):
        bundle, path = mapped
        twin = _heap_twin(path)
        queries = _queries(bundle)
        # Fill before the writes, so the post-write reads extend a set
        # that already holds boxed slots.
        _check_against_oracles(bundle, twin, queries)
        paths = bundle.store.num_paths
        assert _apply_updates(bundle) == _apply_updates(twin)
        assert bundle.store.overlay_paths > 0
        _check_against_oracles(bundle, twin, queries)
        filled = assert_filled_slots_match(bundle.store)
        assert max(filled) >= paths  # the reads reached overlay paths

    def test_after_compact_and_remap(self, mapped):
        bundle, path = mapped
        twin = _heap_twin(path)
        queries = _queries(bundle)
        _apply_updates(bundle)
        _apply_updates(twin)
        _check_against_oracles(bundle, twin, queries)
        boxed = bundle.store.query_paths_boxed
        compact_indexes(bundle, path)
        assert bundle.store.generation == 1
        # Path ids survive the re-map, so the boxed slots do too.
        assert bundle.store.query_paths_boxed == boxed
        assert_filled_slots_match(bundle.store)
        _check_against_oracles(bundle, twin, queries)
        assert bundle.store.query_paths_boxed == boxed
        assert_filled_slots_match(bundle.store)

    def test_snapshot_pinned_before_write(self, mapped):
        """Two pins: one over the mapped columns, one over a word the
        overlay already copied to the heap — the next write appends to
        the very array that snapshot pinned, so only the pinned count
        bounds its fill."""
        bundle, path = mapped
        top = _frequent_words(bundle, 2)
        queries = [ResolvedQuery((top[0],)), ResolvedQuery(tuple(top))]
        twin = _heap_twin(path)
        expected = {}
        pins = []
        for _round in range(2):
            pins.append(bundle.snapshot())
            expected[len(pins)] = {q: _answers(twin, q) for q in queries}
            _apply_updates(bundle)  # grows top[0]'s postings
            _apply_updates(twin)
        for number, snapshot in enumerate(pins, start=1):
            assert (
                bundle.store.num_postings(top[0])
                > snapshot.store.num_postings(top[0])
            )
            for query in queries:
                for name in sorted(PAIRS):
                    run_pair(snapshot, query, name, k=10)
                assert _answers(snapshot, query) == expected[number][query]
        # The snapshots filled only what they pinned; the live reads
        # fill the rest.
        _check_against_oracles(bundle, twin, queries)
        assert_filled_slots_match(bundle.store)

    def test_warm_fills_every_path(self, mapped):
        bundle, _path = mapped
        store = bundle.store
        store.warm_query_caches()
        assert store.query_paths_boxed == store.num_paths
        assert len(assert_filled_slots_match(store)) == store.num_paths

    def test_snapshot_warm_stops_at_pinned_paths(self, mapped):
        bundle, _path = mapped
        snapshot = bundle.snapshot()
        pinned = snapshot.store.num_paths
        _apply_updates(bundle)
        snapshot.store.warm_query_caches()
        assert bundle.store.query_paths_boxed == pinned
        filled = assert_filled_slots_match(bundle.store)
        assert filled == list(range(pinned))


class TestLaziness:
    def test_cold_open_first_query_boxes_only_its_words(self, mapped):
        bundle, _path = mapped
        store = bundle.store
        words = _frequent_words(bundle, 2)
        assert store.query_paths_boxed == 0
        SearchService(bundle).search(list(words), k=10)
        boxed = store.query_paths_boxed
        assert 0 < boxed <= sum(store.num_postings(w) for w in words)
        assert boxed < store.num_paths

    def test_repeat_context_boxes_nothing(self, mapped):
        bundle, _path = mapped
        query = ResolvedQuery(tuple(_frequent_words(bundle, 2)))
        EnumerationContext(bundle, query)
        boxed = bundle.store.query_paths_boxed
        EnumerationContext(bundle, query)
        EnumerationContext(bundle.snapshot(), query)
        assert bundle.store.query_paths_boxed == boxed

    def test_read_after_write_boxes_only_new_paths(self, mapped):
        bundle, _path = mapped
        store = bundle.store
        words = _frequent_words(bundle, 2)
        service = SearchService(bundle)
        service.search(list(words), k=10)
        boxed = store.query_paths_boxed
        paths = store.num_paths
        _apply_updates(bundle)  # adds postings to words[0]
        new_paths = store.num_paths - paths
        assert new_paths > 0
        service.search([words[0]], k=10)  # reaches every new posting
        service.search(list(words), k=10)
        service.search(["overlayton"], k=10)
        assert 0 < store.query_paths_boxed - boxed <= new_paths


class TestConcurrentFills:
    def test_threads_filling_one_set_box_each_slot_once(self, mapped):
        """Eight reader threads (more than cores) fill one store's set
        through their own snapshots and contexts under a tiny switch
        interval: every answer matches a single-threaded oracle, every
        filled slot matches the store-wide build, and no slot is boxed
        twice (a fill racing another would double-count)."""
        bundle, path = mapped
        words = _frequent_words(bundle, 8)
        queries = [
            ResolvedQuery((words[i], words[(i + 1) % len(words)]))
            for i in range(len(words))
        ]
        oracle = _heap_twin(path)
        expected = {q: _answers(oracle, q) for q in queries}
        failures = []
        barrier = threading.Barrier(8)

        def reader(offset):
            try:
                barrier.wait(timeout=30)
                snapshot = bundle.snapshot()
                for i in range(len(queries)):
                    query = queries[(offset + i) % len(queries)]
                    if _answers(snapshot, query) != expected[query]:
                        failures.append(query)
            except Exception as exc:  # reported below, with the thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=reader, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        filled = assert_filled_slots_match(bundle.store)
        assert bundle.store.query_paths_boxed == len(filled)


class TestLoudFailure:
    def test_unfilled_slot_raises_in_hot_loops(self, mapped):
        bundle, _path = mapped
        store = bundle.store
        store.fill_query_paths([0])
        checker = store.pairs_checker()
        scorer = store.pairs_scorer()
        assert checker([(0, 0.5)]) == store.form_tree([0])
        with pytest.raises(PathIndexError, match="never filled"):
            checker([(1, 0.5)])
        with pytest.raises(PathIndexError, match="never filled"):
            checker([(0, 0.5), (1, 0.5)])
        with pytest.raises(PathIndexError, match="never filled"):
            scorer([(0, 0.5), (1, 0.5)])

    def test_context_reused_after_release_raises(self):
        bundle = build_indexes(generate_wiki_graph(WIKI_CONFIG), d=3)
        query = ResolvedQuery(tuple(_frequent_words(bundle, 2)))
        context = EnumerationContext(bundle, query)
        expected = pattern_enum_search(bundle, query, k=10, context=context)
        assert expected.num_answers > 0
        bundle.store.release_query_columns()
        with pytest.raises(PathIndexError, match="never filled"):
            pattern_enum_search(bundle, query, k=10, context=context)
        fresh = pattern_enum_search(bundle, query, k=10)
        assert fresh.scores() == expected.scores()

    def test_id_only_wrappers_fill_their_ids(self):
        bundle = build_indexes(generate_wiki_graph(WIKI_CONFIG), d=3)
        store = bundle.store
        expected = store_wide_columns(store)
        assert store.query_paths_boxed == 0
        assert store.form_tree([3]) == (not expected[4][3])
        assert store.score_terms([5, 6], [0.25, 0.5]) == (
            expected[1][5] + expected[1][6],
            expected[2][5] + expected[2][6],
            0.25 + 0.5,
        )
        assert store.query_paths_boxed == 3
