"""Root-partitioned shards of one index bundle.

Scatter–gather serving (:mod:`repro.search.sharding`) splits the columnar
:class:`~repro.index.store.PostingStore` into K self-contained shards so a
pool of forked workers can each search a fraction of the candidate roots.
The partition must preserve one invariant for the gathered per-shard
top-k lists to merge **bit-identically** into the unsharded answer:

    **pattern containment** — every tree pattern's entire root set lives
    in exactly one shard.

A path pattern's first label is its root's *type* (see
:func:`repro.index.path_enum.interleaved_labels`), so two roots can only
ever share a pattern when they share a type.  Roots are therefore
assigned to shards by a stable hash of their type id — the finest
root-id partition that keeps patterns whole.  Hashing raw root ids
instead would split a pattern's roots across shards and break both exact
merging (pattern scores aggregate subtree scores *across* roots, in
ascending-root float order) and bound-driven shard skipping (a skipped
shard would silently drop its root contributions from patterns retained
elsewhere).  ``docs/sharding.md`` walks through the argument.

Within a shard, every index leaf — the ``(word, pattern, root)`` posting
group — is byte-for-byte the global leaf: leaves never span shards, the
copied columns preserve per-path values, and the shard store's own
``finalize()`` reproduces the global (pattern, root, path-lex) order
restricted to the shard's paths.  A shard therefore computes *exact
global* scores for its patterns with the unsharded float operation
order, which is what makes the sharded merge a pure top-k union.

The hash is deliberately not Python's ``hash()`` (salted per process):
pool workers, the serving parent, and persisted shard files must all
agree on the assignment across process boundaries and releases.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.core.errors import PathIndexError
from repro.core.types import NodeId, TypeId
from repro.index.builder import PathIndexes
from repro.index.pattern_first import PatternFirstIndex
from repro.index.root_first import RootFirstIndex
from repro.index.store import PostingStore

_MASK64 = (1 << 64) - 1


def shard_of_type(type_id: TypeId, num_shards: int) -> int:
    """Stable shard assignment for one root type.

    SplitMix64's finalizer: deterministic across processes and platforms
    (unlike the salted builtin ``hash``), and avalanching, so consecutive
    type ids spread evenly over small shard counts.
    """
    x = (int(type_id) + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x % num_shards


@dataclass
class ShardedIndexes:
    """One index bundle partitioned into pattern-disjoint shards.

    ``base`` is the unpartitioned bundle the shards were derived from
    (live or snapshot); the service keeps it for planning, bounds, and
    answer reconstruction.  Every shard is a full
    :class:`~repro.index.builder.PathIndexes` over its own
    :class:`~repro.index.store.PostingStore`, sharing the base's graph,
    interner (so pattern ids are globally meaningful), lexicon, PageRank
    vector, and synonym table.
    """

    base: PathIndexes
    shards: List[PathIndexes]
    store_version: int
    _type_shards: Dict[TypeId, int] = field(default_factory=dict)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_of_root(self, root: NodeId) -> int:
        """The shard owning ``root`` (via its type; cached per type)."""
        type_id = self.base.graph.node_type(root)
        shard = self._type_shards.get(type_id)
        if shard is None:
            shard = self._type_shards[type_id] = shard_of_type(
                type_id, len(self.shards)
            )
        return shard

    def partition_roots(
        self, roots: Sequence[NodeId]
    ) -> List[List[NodeId]]:
        """Split a (sorted) root list into per-shard lists, order kept."""
        parts: List[List[NodeId]] = [[] for _ in self.shards]
        for root in roots:
            parts[self.shard_of_root(root)].append(root)
        return parts


def partition_indexes(
    indexes: PathIndexes, num_shards: int
) -> ShardedIndexes:
    """Partition ``indexes`` into ``num_shards`` self-contained shards.

    Pure column transfer — no graph re-enumeration: each stored path is
    appended to its root type's shard store (ascending global path id,
    so relative path order is preserved), each posting follows its path,
    and the shard stores finalize into exactly the global leaf grouping
    restricted to their paths.  Shards may be empty when the graph has
    fewer populated types than shards; an empty shard is a valid bundle
    that answers every query with no candidates.
    """
    if num_shards < 1:
        raise PathIndexError(
            f"num_shards must be >= 1, got {num_shards}"
        )
    base = indexes
    store = base.store
    graph = base.graph
    store.finalize()
    version = store.version

    shard_stores = [PostingStore(base.interner) for _ in range(num_shards)]
    num_paths = store.num_paths
    # Per global path: owning shard and shard-local id.  Plain lists — the
    # mapping is partition-scoped scaffolding, not resident state.
    shard_of_path: List[int] = [0] * num_paths
    local_ids: List[int] = [0] * num_paths
    type_shards: Dict[TypeId, int] = {}
    for path_id in range(num_paths):
        type_id = graph.node_type(store.path_root(path_id))
        shard = type_shards.get(type_id)
        if shard is None:
            shard = type_shards[type_id] = shard_of_type(type_id, num_shards)
        shard_of_path[path_id] = shard
        local_ids[path_id] = shard_stores[shard].append_path(
            store.path_nodes(path_id),
            store.path_attrs(path_id),
            store.path_matched_on_edge(path_id),
            store.path_pattern(path_id),
            store.path_pr(path_id),
        )
    for word in store.words():
        for path_id, sim in store.postings(word):
            shard_stores[shard_of_path[path_id]].add_posting(
                word, local_ids[path_id], sim
            )

    return wrap_shard_stores(base, shard_stores, store_version=version)


def wrap_shard_stores(
    base: PathIndexes,
    shard_stores: Sequence[PostingStore],
    store_version: Optional[int] = None,
) -> ShardedIndexes:
    """Wrap per-shard stores into full bundles around ``base``.

    The tail of :func:`partition_indexes`, shared with
    :func:`repro.index.serialize.load_sharded_indexes` so deserialized
    shard stores get identical view construction.
    """
    shards = []
    for shard_store in shard_stores:
        shard_store.finalize()
        pattern_first = PatternFirstIndex(base.interner, shard_store)
        root_first = RootFirstIndex(base.interner, shard_store)
        pattern_first.finalize()
        root_first.finalize()
        shards.append(
            replace(
                base,
                pattern_first=pattern_first,
                root_first=root_first,
                store=shard_store,
                resolution_cache=None,  # __post_init__ gives each its own
            )
        )
    if store_version is None:
        store_version = base.store.version
    return ShardedIndexes(
        base=base, shards=shards, store_version=store_version
    )
