"""Incremental index maintenance: equivalence with a full rebuild."""

import pytest

from repro.core.errors import PathIndexError
from repro.index.builder import build_indexes
from repro.index.incremental import add_entity, add_relationship
from repro.kg.graph import KnowledgeGraph
from repro.kg.pagerank import uniform_scores
from repro.kg.stemmer import stem
from repro.search.pattern_enum import pattern_enum_search


def entry_set(indexes):
    return {
        (word, entry.nodes, entry.attrs, entry.matched_on_edge)
        for word, _pid, entry in indexes.root_first.iter_entries()
    }


def uniform(graph):
    return uniform_scores(graph)


@pytest.fixture
def base():
    """Software --Developer--> Company, indexed at d=3 with uniform PR."""
    graph = KnowledgeGraph()
    software = graph.add_node("Software", "SQL Server")
    company = graph.add_node("Company", "Microsoft")
    graph.add_edge(software, "Developer", company)
    indexes = build_indexes(graph, d=3, pagerank_scores=uniform(graph))
    return graph, indexes, software, company


class TestAddEntity:
    def test_singleton_paths_indexed(self, base):
        graph, indexes, _software, _company = base
        node = add_entity(indexes, "Person", "Bill Gates", pagerank=1.0)
        assert graph.node_text(node) == "Bill Gates"
        roots = indexes.root_first.roots(stem("gates"))
        assert set(roots) == {node}

    def test_searchable_immediately(self, base):
        _graph, indexes, _software, _company = base
        add_entity(indexes, "Person", "Bill Gates", pagerank=1.0)
        result = pattern_enum_search(indexes, "gates", k=5)
        assert result.num_answers == 1

    def test_default_pagerank_is_teleport_floor(self, base):
        graph, indexes, _software, _company = base
        node = add_entity(indexes, "Person", "Nobody Links Here")
        assert indexes.pagerank_scores[node] == pytest.approx(
            0.15 / graph.num_nodes
        )

    def test_new_type_allowed(self, base):
        _graph, indexes, _software, _company = base
        node = add_entity(indexes, "BrandNewType", "fresh thing")
        result = pattern_enum_search(indexes, "brandnewtype", k=5)
        assert result.num_answers == 1
        assert result.answers[0].subtrees[0][0].nodes == (node,)

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            ({"type_name": 7, "text": "fine"}, TypeError),
            ({"type_name": "Person", "text": 42}, TypeError),
            ({"type_name": "Person", "text": b"bytes"}, TypeError),
            ({"type_name": "Person", "text": "x", "pagerank": "0.1"},
             TypeError),
            ({"type_name": "Person", "text": "x", "pagerank": True},
             TypeError),
            ({"type_name": "Person", "text": "x", "pagerank": float("nan")},
             ValueError),
            ({"type_name": "Person", "text": "x", "pagerank": float("inf")},
             ValueError),
        ],
    )
    def test_bad_arguments_change_nothing(self, base, kwargs, error):
        """Validation runs before the graph is touched: a rejected call
        leaves no orphan node, PageRank entry or version bump."""
        graph, indexes, _software, _company = base
        nodes = graph.num_nodes
        ranks = len(indexes.pagerank_scores)
        version = indexes.store.version
        entries = entry_set(indexes)
        with pytest.raises(error):
            add_entity(indexes, **kwargs)
        assert graph.num_nodes == nodes
        assert len(indexes.pagerank_scores) == ranks
        assert indexes.store.version == version
        assert entry_set(indexes) == entries


class TestAddRelationship:
    @pytest.mark.parametrize(
        "source, attr_name, target, error",
        [
            (0, 7, 1, TypeError),
            (0, None, 1, TypeError),
            (0, b"bytes", 1, TypeError),
            ("0", "x", 1, TypeError),
            (0, "x", 1.0, TypeError),
            (True, "x", 1, TypeError),
            (0, "x", 99, PathIndexError),
        ],
    )
    def test_bad_arguments_change_nothing(
        self, base, source, attr_name, target, error
    ):
        """Validation runs before the graph is touched: a rejected call
        interns no attribute, adds no edge, bumps no version — and the
        next valid call still succeeds."""
        graph, indexes, software, company = base
        attrs = graph.num_attrs
        edges = graph.num_edges
        version = indexes.store.version
        entries = entry_set(indexes)
        with pytest.raises(error):
            add_relationship(indexes, source, attr_name, target)
        assert graph.num_attrs == attrs
        assert graph.num_edges == edges
        assert indexes.store.version == version
        assert entry_set(indexes) == entries
        assert add_relationship(indexes, software, "x", company) >= 0
        assert graph.num_edges == edges + 1

    def test_matches_full_rebuild(self, base):
        """Entry-level equivalence: incremental == from-scratch."""
        graph, indexes, software, _company = base
        person = add_entity(indexes, "Person", "Bill Gates", pagerank=1.0)
        added = add_relationship(indexes, software, "Designed by", person)
        assert added > 0
        rebuilt = build_indexes(graph, d=3, pagerank_scores=uniform(graph))
        assert entry_set(indexes) == entry_set(rebuilt)

    def test_chain_extension_matches_rebuild(self, base):
        """New edge in the middle: prefix x suffix paths all appear."""
        graph, indexes, software, company = base
        person = add_entity(indexes, "Person", "Bill Gates", pagerank=1.0)
        add_relationship(indexes, company, "Founder", person)
        rebuilt = build_indexes(graph, d=3, pagerank_scores=uniform(graph))
        assert entry_set(indexes) == entry_set(rebuilt)
        # The 3-node path Software -> Company -> Person is now indexed.
        result = pattern_enum_search(indexes, "software founder gates", k=5)
        assert result.num_answers >= 1

    def test_new_attr_type_matches(self, base):
        _graph, indexes, software, company = base
        add_relationship(indexes, company, "Acquired", software)
        result = pattern_enum_search(indexes, "company acquired", k=5)
        assert result.num_answers >= 1

    def test_search_agreement_after_updates(self, base):
        """All engines agree on the incrementally-updated index."""
        from repro.search.baseline import baseline_search
        from repro.search.linear_topk import linear_topk_search

        graph, indexes, software, company = base
        person = add_entity(indexes, "Person", "Bill Gates", pagerank=1.0)
        add_relationship(indexes, company, "Founder", person)
        query = "software company founder"
        a = pattern_enum_search(indexes, query, k=10)
        b = linear_topk_search(indexes, query, k=10)
        c = baseline_search(indexes, query, k=10)
        assert a.scores() == pytest.approx(b.scores())
        assert b.scores() == pytest.approx(c.scores())

    def test_unknown_endpoint_rejected(self, base):
        _graph, indexes, software, _company = base
        with pytest.raises(PathIndexError):
            add_relationship(indexes, software, "Rel", 999)

    def test_cycle_edge_stays_simple(self, base):
        """Closing a cycle must only add simple paths (no infinite loops)."""
        graph, indexes, software, company = base
        add_relationship(indexes, company, "Makes", software)
        rebuilt = build_indexes(graph, d=3, pagerank_scores=uniform(graph))
        assert entry_set(indexes) == entry_set(rebuilt)

    def test_d1_index_never_adds_edge_paths(self):
        graph = KnowledgeGraph()
        a = graph.add_node("T", "alpha")
        b = graph.add_node("T", "beta")
        indexes = build_indexes(graph, d=1, pagerank_scores=uniform(graph))
        added = add_relationship(indexes, a, "rel", b)
        assert added == 0  # d=1 stores only singleton paths


class TestRandomizedEquivalence:
    def test_incremental_build_equals_batch(self):
        """Grow a small random graph edge by edge; compare with rebuild."""
        import random

        rng = random.Random(5)
        words = ["ruby", "topaz", "opal", "jade"]
        graph = KnowledgeGraph()
        indexes = build_indexes(graph, d=3, pagerank_scores=[])
        nodes = []
        for i in range(8):
            node = add_entity(
                indexes,
                rng.choice(["TA", "TB"]),
                f"{rng.choice(words)} item{i}",
                pagerank=1.0,
            )
            nodes.append(node)
        edges = set()
        for _ in range(12):
            u, v = rng.sample(nodes, 2)
            attr = rng.choice(["ra", "rb"])
            if (u, attr, v) in edges:
                continue
            edges.add((u, attr, v))
            add_relationship(indexes, u, attr, v)
        rebuilt = build_indexes(
            graph, d=3, pagerank_scores=[1.0] * graph.num_nodes
        )
        assert entry_set(indexes) == entry_set(rebuilt)
        # And searches agree end to end.
        result_incremental = pattern_enum_search(indexes, "ruby topaz", k=20)
        result_rebuilt = pattern_enum_search(rebuilt, "ruby topaz", k=20)
        assert result_incremental.scores() == pytest.approx(
            result_rebuilt.scores()
        )
