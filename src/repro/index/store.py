"""The shared columnar posting store behind both path indexes.

Algorithm 1 inserts every root-to-keyword path into *two* indexes
(pattern-first and root-first), and a path matched by several keywords
yields one posting per keyword.  Materializing each posting as a
:class:`~repro.index.entry.PathEntry` inside triply-nested dicts makes
construction the dominant memory cost (the paper's Figure 6 shows index
building outweighing querying by orders of magnitude).

:class:`PostingStore` fixes the layout instead of the algorithms:

* each distinct **physical path** ``(nodes, attrs, matched_on_edge)`` is
  interned exactly once into flat columnar arrays (node chains in one
  ``array`` with an offsets column, plus per-path pattern id, root,
  matched-on-edge flag, and PageRank term);
* each **posting** — one ``(word, path)`` occurrence — is two scalars: the
  integer path id and the word-specific similarity term.

Both :class:`~repro.index.pattern_first.PatternFirstIndex` and
:class:`~repro.index.root_first.RootFirstIndex` are thin views over one
store; their leaf posting lists are shared :class:`PostingList` flyweights
that reconstruct :class:`PathEntry` tuples lazily (and cache them), so
count-only probes — ``|Paths(w, r)|``, ``num_entries(w)``, candidate-root
intersections — never materialize an entry at all.
"""

from __future__ import annotations

import threading
from array import array
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import PathIndexError
from repro.core.types import AttrId, NodeId, PatternId
from repro.index.entry import PathEntry
from repro.index.interner import PatternInterner

#: Typecodes of the columnar arrays (also the v2 on-disk encoding; see
#: ``docs/index-format.md``).  ``i`` is a 4-byte C int on every platform
#: CPython supports, capping node/pattern/path ids at 2**31 - 1.
ID_TYPECODE = "i"
OFFSET_TYPECODE = "q"
FLAG_TYPECODE = "b"
FLOAT_TYPECODE = "d"


class _UnfilledSlot:
    """Placeholder of a query-column slot that no fill has reached.

    Every operation the hot loops apply to a slot — truth test,
    comparison, arithmetic, iteration — raises, so reading a path that
    was never filled fails loudly instead of answering wrong.
    """

    __slots__ = ()

    def _unfilled(self, *_args):
        raise PathIndexError(
            "read a query-column slot that was never filled: fill the "
            "query's words first (PostingStore.fill_query_words)"
        )

    __bool__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _unfilled
    __add__ = __radd__ = __iter__ = _unfilled
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return "UNFILLED"


UNFILLED = _UnfilledSlot()


class QueryColumns:
    """Boxed, pre-shaped path columns for the enumeration hot loops.

    The ``array`` columns keep the resident footprint compact but box a
    fresh Python int on every subscript, and the query loops revisit the
    same paths thousands of times per cross product.  This set re-shapes
    each path once into plain lists::

        (roots, sizes, prs, edges, self_invalid)

    where ``edges[path_id]`` is a tuple of ``(child, (parent, attr))``
    pairs (pre-allocated once per distinct edge and shared by every path
    and every tree-validity check that touches it) and
    ``self_invalid[path_id]`` records whether the path *alone* fails the
    tree check — it revisits its own root, or assigns a node two distinct
    parent edges (never true for builder-enumerated simple paths, but
    hand-constructed stores are checked identically to
    :func:`~repro.index.entry.entries_form_tree`).

    One set lives as long as its store and only grows.  Path columns are
    append-only (a path id keeps its nodes, attrs, root and pr forever,
    and a compaction re-map keeps ids stable), so a boxed slot never goes
    stale and the set needs no version tag.  Slots are filled on demand:

    * per word (:meth:`fill_words`) — a query boxes only the paths its
      words' postings reach.  ``covered`` records how many of a word's
      postings were filled; postings only grow, so a lower count than the
      word holds now means "scan the word again", boxing just the slots
      still unfilled;
    * per id (:meth:`fill_paths`) for id-only callers;
    * as a range over every path (:meth:`fill_range`) for eager
      consumers; ``prefix`` marks the ids below which every slot is
      boxed, so a later range fill covers only new paths.

    New paths extend the lists with :data:`UNFILLED` placeholders.  Fills
    hold :attr:`lock`; the "already covered" checks do not (a word's
    count is published only after all its slots are boxed).
    """

    __slots__ = (
        "roots",
        "sizes",
        "prs",
        "edges",
        "self_invalid",
        "covered",
        "prefix",
        "boxed",
        "edge_pairs",
        "lock",
    )

    def __init__(self) -> None:
        self.roots: List = []
        self.sizes: List = []
        self.prs: List = []
        self.edges: List = []
        self.self_invalid: List = []
        self.covered: Dict[str, int] = {}
        self.prefix = 0
        #: Slots boxed so far (the laziness tests read it).
        self.boxed = 0
        #: ``(child, parent, attr) -> (child, (parent, attr))``: paths
        #: share their edges, so every path holding an edge holds the
        #: same pair object — a few objects per distinct graph edge
        #: instead of two per path edge.
        self.edge_pairs: Dict[tuple, tuple] = {}
        self.lock = threading.Lock()

    def columns(self) -> tuple:
        return (self.roots, self.sizes, self.prs, self.edges, self.self_invalid)

    def fill_words(self, store, postings) -> None:
        """Box every path the given postings reach.

        ``postings`` yields ``(word, ids, count)``: the word's posting-id
        column and how many of its postings to cover.  ``store`` supplies
        the path columns and ``num_paths`` (a snapshot passes its pinned
        state).  Counts are taken before ``num_paths`` is read, so every
        id they reach is below it.
        """
        covered = self.covered
        todo = [
            (word, ids, count)
            for word, ids, count in postings
            if covered.get(word, 0) < count
        ]
        if not todo or self.prefix >= store.num_paths:
            return
        with self.lock:
            self._grow(store.num_paths)
            for word, ids, count in todo:
                if covered.get(word, 0) >= count:
                    continue  # another reader filled it while we waited
                self._box(store, ids[:count])
                covered[word] = count

    def fill_paths(self, store, path_ids: Iterable[int]) -> None:
        """Box the given path ids (those not boxed yet)."""
        sizes = self.sizes
        known = len(sizes)
        todo = [
            path_id
            for path_id in path_ids
            if path_id >= known or sizes[path_id] is UNFILLED
        ]
        if not todo:
            return
        with self.lock:
            self._grow(store.num_paths)
            self._box(store, todo)

    def fill_range(self, store) -> None:
        """Box every path below ``store.num_paths`` — no posting scan."""
        stop = store.num_paths
        if self.prefix >= stop:
            return
        with self.lock:
            start = self.prefix
            if start >= stop:
                return
            self._grow(stop)
            self._box(store, range(start, stop))
            self.prefix = stop

    def _grow(self, num_paths: int) -> None:
        missing = num_paths - len(self.sizes)
        if missing > 0:
            pad = [UNFILLED] * missing
            for column in self.columns():
                column.extend(pad)

    def _box(self, store, path_ids: Iterable[int]) -> None:
        """Box the slots of each path not boxed yet; the caller holds
        :attr:`lock` and has grown the lists past every id."""
        offsets = store._node_offsets
        nodes = store._nodes
        attrs = store._attrs
        root_column = store._roots
        pr_column = store._prs
        roots = self.roots
        sizes = self.sizes
        prs = self.prs
        edges = self.edges
        self_invalid = self.self_invalid
        shared = self.edge_pairs
        boxed = 0
        for path_id in path_ids:
            if sizes[path_id] is not UNFILLED:
                continue
            start = offsets[path_id]
            end = offsets[path_id + 1]
            attr_start = start - path_id
            root = root_column[path_id]
            invalid = False
            path_edges = []
            parent: Dict[NodeId, Tuple[NodeId, AttrId]] = {}
            for i in range(end - start - 1):
                child = nodes[start + i + 1]
                key = (child, nodes[start + i], attrs[attr_start + i])
                pair = shared.get(key)
                if pair is None:
                    pair = shared[key] = (child, key[1:])
                edge = pair[1]
                if child == root or parent.setdefault(child, edge) != edge:
                    invalid = True
                path_edges.append(pair)
            roots[path_id] = root
            prs[path_id] = pr_column[path_id]
            edges[path_id] = tuple(path_edges)
            self_invalid[path_id] = invalid
            sizes[path_id] = end - start  # last: the "already boxed" mark
            boxed += 1
        self.boxed += boxed


class PostingList(Sequence[PathEntry]):
    """A flyweight, lazily-materialized sequence of :class:`PathEntry`.

    One leaf of the index views — the postings of one ``(word, pattern,
    root)`` triple — represented as a *slice* ``[start:stop)`` into the
    word's sorted posting columns (the paper's "sort and store paths
    sequentially in memory").  Full entries are reconstructed on first
    element access and cached, so ``len()`` and emptiness checks stay
    allocation-free.  The same object is shared by both index views.
    """

    __slots__ = (
        "_store",
        "_ids",
        "_sims",
        "_start",
        "_stop",
        "_entries",
        "_id_slice",
        "_sim_slice",
        "_pairs",
    )

    def __init__(
        self,
        store: "PostingStore",
        ids: array,
        sims: array,
        start: int,
        stop: int,
    ) -> None:
        self._store = store
        self._ids = ids
        self._sims = sims
        self._start = start
        self._stop = stop
        self._entries: Optional[List[PathEntry]] = None
        self._id_slice: Optional[array] = None
        self._sim_slice: Optional[array] = None
        self._pairs: Optional[List[Tuple[int, float]]] = None

    @property
    def path_ids(self) -> array:
        """The slice's path-id column (copied out of the word column once,
        then cached — repeated access is O(1)).

        A cached copy, not a ``memoryview``: the word columns are appended
        to by incremental maintenance, and an exported buffer would turn
        those appends into ``BufferError``s.
        """
        ids = self._id_slice
        if ids is None:
            ids = self._id_slice = self._ids[self._start:self._stop]
        return ids

    @property
    def sims(self) -> array:
        """The slice's similarity column (cached; see ``path_ids``)."""
        sims = self._sim_slice
        if sims is None:
            sims = self._sim_slice = self._sims[self._start:self._stop]
        return sims

    def pairs(self) -> List[Tuple[int, float]]:
        """The slice as ``(path_id, sim)`` scalar pairs (built once, cached).

        This is what the id-based enumeration loops iterate — two machine
        scalars per posting, no :class:`PathEntry` reconstruction.  Order
        matches :meth:`entries` element-for-element.
        """
        pairs = self._pairs
        if pairs is None:
            pairs = self._pairs = list(zip(self.path_ids, self.sims))
        return pairs

    def entries(self) -> List[PathEntry]:
        """The materialized entries (built once, then cached)."""
        if self._entries is None:
            make = self._store.make_entry
            ids = self._ids
            sims = self._sims
            self._entries = [
                make(ids[i], sims[i])
                for i in range(self._start, self._stop)
            ]
        return self._entries

    def __len__(self) -> int:
        return self._stop - self._start

    def __iter__(self) -> Iterator[PathEntry]:
        entries = self._entries  # avoid a call in the enumeration hot loop
        return iter(entries if entries is not None else self.entries())

    def __getitem__(self, index):
        entries = self._entries
        return (entries if entries is not None else self.entries())[index]

    def __eq__(self, other) -> bool:
        # Always compare by materialized entry values: path ids are only
        # meaningful within one store, so an id-level shortcut would make
        # lists from different stores (e.g. built vs loaded) compare
        # incorrectly.
        if isinstance(other, PostingList):
            return self.entries() == other.entries()
        if isinstance(other, (list, tuple)):
            return list(self.entries()) == list(other)
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash(tuple(self.entries()))

    def __repr__(self) -> str:
        return f"PostingList({len(self)} postings)"


#: Per-word grouping: leaves sorted by (pattern id, root).
WordGroups = List[Tuple[PatternId, NodeId, PostingList]]


class PostingStore:
    """Columnar, deduplicated storage for all path postings.

    Building protocol (what :func:`repro.index.builder.build_indexes` and
    :mod:`repro.index.incremental` follow)::

        path_id = store.add_path(nodes, attrs, matched_on_edge, pid, pr)
        store.add_posting(word, path_id, sim)        # once per keyword

    ``add_path`` interns: re-adding an identical physical path returns the
    existing id without growing the columns.  ``finalize`` groups postings
    by ``(pattern, root)`` and sorts exactly as the paper prescribes
    ("sort and store paths sequentially"); the index views read the
    grouping via :meth:`groups` / :meth:`root_counts`.
    """

    #: Process-wide count of :class:`PathEntry` reconstructions across
    #: *all* stores — including short-lived query-local scratch stores
    #: whose per-instance counters are unreachable after the query.  The
    #: benchmarks' zero-materialization assertions read deltas of this.
    total_entries_materialized = 0

    def __init__(self, interner: PatternInterner) -> None:
        self.interner = interner
        # Path interning: (nodes, attrs, matched_on_edge) -> path id.
        # Built lazily — a fresh Algorithm 1 build never revisits a path
        # (see append_path), and keeping the key tuples alive would defeat
        # the columnar layout's memory win.
        self._path_ids: Optional[
            Dict[Tuple[Tuple[NodeId, ...], Tuple[AttrId, ...], bool], int]
        ] = None
        # Columnar path storage.  Path i's nodes live at
        # _nodes[_node_offsets[i]:_node_offsets[i+1]]; its attrs always
        # number one fewer than its nodes, so they share the offsets
        # column shifted by the path index: _attrs[_node_offsets[i]-i :
        # _node_offsets[i+1]-(i+1)].
        self._node_offsets = array(OFFSET_TYPECODE, [0])
        self._nodes = array(ID_TYPECODE)
        self._attrs = array(ID_TYPECODE)
        self._pids = array(ID_TYPECODE)
        self._roots = array(ID_TYPECODE)
        self._moe = array(FLAG_TYPECODE)
        self._prs = array(FLOAT_TYPECODE)
        # Per-word posting columns; insertion order until finalize() sorts
        # them in place (by pattern, root, then path order).
        self._posting_ids: Dict[str, array] = {}
        self._posting_sims: Dict[str, array] = {}
        # Derived (finalize) state: the two views' nested dicts, sharing
        # slice-backed PostingList leaves, plus |Paths(w, r)| counts.
        self._pattern_view: Dict[
            str, Dict[PatternId, Dict[NodeId, PostingList]]
        ] = {}
        self._root_view: Dict[
            str, Dict[NodeId, Dict[PatternId, PostingList]]
        ] = {}
        self._root_counts: Dict[str, Dict[NodeId, int]] = {}
        self.version = 0
        self._finalized_version = -1
        #: Running count of :class:`PathEntry` reconstructions through
        #: :meth:`make_entry` — the single choke point for materializing a
        #: stored posting.  Benchmarks and the zero-materialization
        #: regression tests read deltas of this.
        self.entries_materialized = 0
        # Query-time acceleration columns, filled on demand and never
        # invalidated (see QueryColumns).  Scratch stores fill every path
        # on read instead of per word (they hold no postings).
        self._query_cols = QueryColumns()
        self._fill_on_read = False
        # Aggregate bound columns for score pruning (see bound_columns).
        # The slot holds ``(version, cache)`` as ONE tuple swapped
        # atomically: readers load the slot once and compare its version
        # tag, so a concurrent donation (StoreSnapshot.bound_columns) can
        # never pair an old cache object with a new version tag.
        self._bound_cache: Optional[tuple] = None
        #: Mutation lock for the snapshot protocol: writers that mutate a
        #: *served* store (incremental maintenance) and readers taking a
        #: :meth:`snapshot` both hold it, so a snapshot never observes a
        #: half-applied update.  The bulk build path (:mod:`builder`) runs
        #: before any concurrent serving and stays lock-free.
        self.lock = threading.Lock()

    def __getstate__(self):
        # Locks are not picklable (and a pickled store starts a new life
        # anyway); everything else round-trips.  Normal persistence goes
        # through to_payload/from_payload — this only supports callers
        # that pickle a whole bundle (e.g. legacy/diagnostic envelopes).
        state = self.__dict__.copy()
        state["lock"] = None
        state["_query_cols"] = None
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.lock = threading.Lock()
        self._query_cols = QueryColumns()

    @classmethod
    def scratch(cls, interner: Optional[PatternInterner] = None) -> "PostingStore":
        """A query-local store for online-discovered paths (the baseline).

        Columns are plain Python lists instead of typed arrays: a scratch
        store lives for a single query, so array compactness loses to the
        boxing round-trip (``append_path`` would unbox every id into the
        array only for the query columns to box it right back out).  It
        holds paths but no postings, so its query columns fill every
        path when read.  Must never be serialized.
        """
        store = cls(interner if interner is not None else PatternInterner())
        store._fill_on_read = True
        store._node_offsets = [0]
        store._nodes = []
        store._attrs = []
        store._pids = []
        store._roots = []
        store._moe = []
        store._prs = []
        return store

    # ------------------------------------------------------------- building

    def _path_index(
        self,
    ) -> Dict[Tuple[Tuple[NodeId, ...], Tuple[AttrId, ...], bool], int]:
        """The interning map, (re)built on demand from the columns."""
        if self._path_ids is None:
            self._path_ids = {
                (
                    self.path_nodes(path_id),
                    self.path_attrs(path_id),
                    bool(self._moe[path_id]),
                ): path_id
                for path_id in range(self.num_paths)
            }
        return self._path_ids

    def add_path(
        self,
        nodes: Tuple[NodeId, ...],
        attrs: Tuple[AttrId, ...],
        matched_on_edge: bool,
        pid: PatternId,
        pr: float,
    ) -> int:
        """Intern one physical path; returns its (possibly existing) id."""
        key = (nodes, attrs, bool(matched_on_edge))
        path_id = self._path_index().get(key)
        if path_id is not None:
            return path_id
        return self.append_path(nodes, attrs, matched_on_edge, pid, pr)

    def append_path(
        self,
        nodes: Tuple[NodeId, ...],
        attrs: Tuple[AttrId, ...],
        matched_on_edge: bool,
        pid: PatternId,
        pr: float,
    ) -> int:
        """Append a path the caller knows to be new — no intern lookup.

        Algorithm 1 enumerates each bounded simple path exactly once per
        root, so the bulk build takes this allocation-free fast path; use
        :meth:`add_path` when novelty is not guaranteed (migration, hand
        construction).
        """
        if len(attrs) != len(nodes) - 1:
            raise PathIndexError(
                f"path has {len(nodes)} nodes but {len(attrs)} attrs"
            )
        path_id = len(self._pids)
        self._nodes.extend(nodes)
        self._attrs.extend(attrs)
        self._node_offsets.append(len(self._nodes))
        self._pids.append(pid)
        self._roots.append(nodes[0])
        self._moe.append(1 if matched_on_edge else 0)
        self._prs.append(pr)
        self.version += 1
        if self._path_ids is not None:
            self._path_ids[(nodes, attrs, bool(matched_on_edge))] = path_id
        return path_id

    def add_entry(self, word: str, pid: PatternId, entry: PathEntry) -> int:
        """Convenience: intern ``entry``'s path and add its posting."""
        path_id = self.add_path(
            entry.nodes, entry.attrs, entry.matched_on_edge, pid, entry.pr
        )
        self.add_posting(word, path_id, entry.sim)
        return path_id

    def add_posting(self, word: str, path_id: int, sim: float) -> None:
        """Record one (word, path) posting with its similarity term."""
        ids = self._posting_ids.get(word)
        if ids is None:
            ids = self._posting_ids[word] = array(ID_TYPECODE)
            self._posting_sims[word] = array(FLOAT_TYPECODE)
        ids.append(path_id)
        self._posting_sims[word].append(sim)
        self.version += 1

    # ------------------------------------------------------------ finalizing

    def finalize(self) -> None:
        """Sort posting columns and build both views' nested groupings.

        Each word's columns are reordered in place by ``(pattern id,
        root, path order)`` — with path order the lexicographic
        ``(nodes, attrs)`` ordering, matching the pre-refactor per-index
        sorts so every downstream iteration order (and therefore every
        score and tie-break) is unchanged.  Leaves become slices into the
        sorted columns; the pattern-first and root-first nested dicts are
        built here once and shared with the view classes.  Idempotent
        until the next mutation.
        """
        if self._finalized_version == self.version:
            return
        pids = self._pids
        roots = self._roots
        num_paths = self.num_paths
        # One global (nodes, attrs) ordering of the paths; posting sorts
        # then compare a single precomputed int per posting — (pattern,
        # root, path-rank) packed into one machine word — instead of
        # rebuilding tuples per posting.
        order = sorted(range(num_paths), key=self.path_sort_key)
        rank = array(OFFSET_TYPECODE, bytes(8 * num_paths))
        for position, path_id in enumerate(order):
            rank[path_id] = position
        root_span = (max(roots) + 1) if num_paths else 1
        path_leaf = [
            pids[i] * root_span + roots[i] for i in range(num_paths)
        ]
        rank_span = max(num_paths, 1)
        path_key = [
            path_leaf[i] * rank_span + rank[i] for i in range(num_paths)
        ]
        pattern_view: Dict[
            str, Dict[PatternId, Dict[NodeId, PostingList]]
        ] = {}
        root_view: Dict[str, Dict[NodeId, Dict[PatternId, PostingList]]] = {}
        counts: Dict[str, Dict[NodeId, int]] = {}
        for word, ids in self._posting_ids.items():
            sims = self._posting_sims[word]
            n = len(ids)
            keys = [path_key[path_id] for path_id in ids]
            permutation = sorted(range(n), key=keys.__getitem__)
            sorted_ids = array(ID_TYPECODE, (ids[i] for i in permutation))
            sorted_sims = array(
                FLOAT_TYPECODE, (sims[i] for i in permutation)
            )
            self._posting_ids[word] = sorted_ids
            self._posting_sims[word] = sorted_sims
            word_pf: Dict[PatternId, Dict[NodeId, PostingList]] = {}
            word_counts: Dict[NodeId, int] = {}
            rf_leaves: List[Tuple[NodeId, PatternId, PostingList]] = []
            start = 0
            for stop in range(1, n + 1):
                if stop < n and (
                    path_leaf[sorted_ids[stop]]
                    == path_leaf[sorted_ids[start]]
                ):
                    continue
                pid = pids[sorted_ids[start]]
                root = roots[sorted_ids[start]]
                leaf = PostingList(self, sorted_ids, sorted_sims, start, stop)
                word_pf.setdefault(pid, {})[root] = leaf
                rf_leaves.append((root, pid, leaf))
                word_counts[root] = word_counts.get(root, 0) + (stop - start)
                start = stop
            pattern_view[word] = word_pf
            word_rf: Dict[NodeId, Dict[PatternId, PostingList]] = {}
            rf_leaves.sort(key=lambda leaf: (leaf[0], leaf[1]))
            for root, pid, leaf in rf_leaves:
                word_rf.setdefault(root, {})[pid] = leaf
            root_view[word] = word_rf
            counts[word] = word_counts
        self._pattern_view = pattern_view
        self._root_view = root_view
        self._root_counts = counts
        self._finalized_version = self.version

    def pattern_view(
        self,
    ) -> Dict[str, Dict[PatternId, Dict[NodeId, PostingList]]]:
        """word -> pid -> root -> postings (pids and roots ascending)."""
        self.finalize()
        return self._pattern_view

    def root_view(
        self,
    ) -> Dict[str, Dict[NodeId, Dict[PatternId, PostingList]]]:
        """word -> root -> pid -> postings (roots and pids ascending)."""
        self.finalize()
        return self._root_view

    def groups(self) -> Dict[str, WordGroups]:
        """word -> [(pattern id, root, posting list)] sorted by (pid, root)."""
        self.finalize()
        return {
            word: [
                (pid, root, leaf)
                for pid, by_root in by_pattern.items()
                for root, leaf in by_root.items()
            ]
            for word, by_pattern in self._pattern_view.items()
        }

    def root_counts(self, word: str) -> Dict[NodeId, int]:
        """Precomputed |Paths(w, r)| per root for one word."""
        self.finalize()
        return self._root_counts.get(word, {})

    # ---------------------------------------------------------- path columns

    @property
    def num_paths(self) -> int:
        """Distinct physical paths stored (the dedup denominator)."""
        return len(self._pids)

    def path_nodes(self, path_id: int) -> Tuple[NodeId, ...]:
        start = self._node_offsets[path_id]
        end = self._node_offsets[path_id + 1]
        return tuple(self._nodes[start:end])

    def path_attrs(self, path_id: int) -> Tuple[AttrId, ...]:
        start = self._node_offsets[path_id] - path_id
        end = self._node_offsets[path_id + 1] - (path_id + 1)
        return tuple(self._attrs[start:end])

    def path_size(self, path_id: int) -> int:
        """|T(w)| — number of nodes on the path, without materializing it."""
        return (
            self._node_offsets[path_id + 1] - self._node_offsets[path_id]
        )

    def path_root(self, path_id: int) -> NodeId:
        return self._roots[path_id]

    def path_pattern(self, path_id: int) -> PatternId:
        return self._pids[path_id]

    def path_pr(self, path_id: int) -> float:
        return self._prs[path_id]

    def path_matched_on_edge(self, path_id: int) -> bool:
        return bool(self._moe[path_id])

    def path_sort_key(
        self, path_id: int
    ) -> Tuple[Tuple[NodeId, ...], Tuple[AttrId, ...]]:
        """The paper's "sort paths sequentially" key: (nodes, attrs)."""
        return (self.path_nodes(path_id), self.path_attrs(path_id))

    def make_entry(self, path_id: int, sim: float) -> PathEntry:
        """Reconstruct the flyweight :class:`PathEntry` for one posting."""
        self.entries_materialized += 1
        PostingStore.total_entries_materialized += 1
        return PathEntry(
            self.path_nodes(path_id),
            self.path_attrs(path_id),
            bool(self._moe[path_id]),
            self._prs[path_id],
            sim,
        )

    # -------------------------------------------------------------- counting

    def words(self) -> Iterable[str]:
        return self._posting_ids.keys()

    def has_word(self, word: str) -> bool:
        return word in self._posting_ids

    def num_postings(self, word: Optional[str] = None) -> int:
        """Total (word, path) postings, optionally for one word — O(1)."""
        if word is not None:
            ids = self._posting_ids.get(word)
            return len(ids) if ids is not None else 0
        return sum(len(ids) for ids in self._posting_ids.values())

    def postings(self, word: str) -> Iterable[Tuple[int, float]]:
        """One word's raw ``(path_id, sim)`` posting pairs, column order.

        The bulk-transfer accessor behind store partitioning
        (:mod:`repro.index.shards`): order is whatever the columns
        currently hold — callers that need the grouped order must
        :meth:`finalize` the receiving store themselves.
        """
        ids = self._posting_ids.get(word)
        if ids is None:
            return iter(())
        return zip(ids, self._posting_sims[word])

    def total_path_nodes(self) -> int:
        """``sum_p |p| * |text(p)|`` of Theorem 2, without materialization."""
        offsets = self._node_offsets
        total = 0
        for ids in self._posting_ids.values():
            for path_id in ids:
                total += offsets[path_id + 1] - offsets[path_id]
        return total

    def dedup_ratio(self) -> float:
        """Postings per stored physical path (>= 1; higher is better)."""
        if not self._pids:
            return 1.0
        return self.num_postings() / len(self._pids)

    def nbytes(self) -> int:
        """Bytes held by the columnar arrays (paths + raw postings)."""
        column_bytes = sum(
            column.itemsize * len(column)
            for column in (
                self._node_offsets,
                self._nodes,
                self._attrs,
                self._pids,
                self._roots,
                self._moe,
                self._prs,
            )
        )
        posting_bytes = sum(
            ids.itemsize * len(ids) + sims.itemsize * len(sims)
            for ids, sims in zip(
                self._posting_ids.values(), self._posting_sims.values()
            )
        )
        return column_bytes + posting_bytes

    # --------------------------------------------- store-native hot variants

    def _query_columns(self) -> tuple:
        """The store's :class:`QueryColumns` lists, as filled so far.

        Reading does not fill (scratch stores excepted): the hot loops'
        paths belong to words an :class:`~repro.search.context.
        EnumerationContext` filled when it was built, and a slot nobody
        filled raises instead of answering.
        """
        if self._fill_on_read:
            self.fill_all_query_paths()
        return self._query_cols.columns()

    def fill_query_words(self, words: Iterable[str]) -> None:
        """Box the paths every posting of ``words`` reaches.

        O(postings of the words) the first time; free once covered (a
        word is scanned again only after it gained postings, and then
        boxes only its new paths).
        """
        posting_ids = self._posting_ids
        self._query_cols.fill_words(self, [
            (word, ids, self.num_postings(word))
            for word in words
            if (ids := posting_ids.get(word)) is not None
        ])

    def fill_query_paths(self, path_ids: Iterable[int]) -> None:
        """Box the given paths' slots (the id-only wrappers' fill)."""
        self._query_cols.fill_paths(self, path_ids)

    def fill_all_query_paths(self) -> None:
        """Box every path's slots — a range fill, no posting scan."""
        self._query_cols.fill_range(self)

    @property
    def query_paths_boxed(self) -> int:
        """Query-column slots boxed so far (laziness instrumentation)."""
        return self._query_cols.boxed

    def release_query_columns(self) -> None:
        """Drop the query-acceleration columns (refilled on demand).

        The columns trade resident memory for query speed and persist
        after the first query; long-lived processes that query rarely can
        call this to reclaim them.  Contexts built on this store before
        the release filled the dropped set, so they must not be reused:
        their next hot-loop read raises.  Snapshots taken before it keep
        the set they share.  The aggregate bound columns
        (:meth:`bound_columns`) are dropped with them.
        """
        columns = QueryColumns()
        columns._grow(self.num_paths)  # placeholders, so such reads say why
        self._query_cols = columns
        self._bound_cache = None

    def warm_query_caches(self) -> None:
        """Fill every path's query columns and build the bound columns now.

        Live-store twin of :meth:`StoreSnapshot.warm_query_caches`: fork
        pools call it once before forking so every worker inherits the
        boxed columns instead of filling its own.
        """
        self.finalize()
        self.fill_all_query_paths()
        self.bound_columns()

    def path_columns(self) -> Tuple[List[int], List[float]]:
        """``(sizes, prs)`` boxed per-path columns for bound arithmetic.

        The same lists the query columns hold (read as filled, see
        :meth:`_query_columns`); exposed so the bound-driven enumeration
        loops can accumulate partial subtree sums without re-boxing array
        elements per access.
        """
        _roots, sizes, prs, _edges, _self_invalid = self._query_columns()
        return sizes, prs

    def bound_columns(self) -> tuple:
        """Aggregate columns backing admissible score upper bounds.

        Returns ``(root_bounds, pattern_bounds)`` where::

            root_bounds[word][root]          -> Bound  (over all patterns)
            pattern_bounds[word][pid][root]  -> Bound  (one index leaf)

        and a ``Bound`` is the 7-tuple ``(count, size_lo, size_hi, pr_lo,
        pr_hi, sim_lo, sim_hi)`` aggregating that posting group: posting
        count, min/max path size, min/max PageRank term, min/max
        similarity term.  :class:`repro.search.bounds.QueryBounds` turns
        these into admissible upper bounds on subtree and pattern scores
        (see ``docs/pruning.md``).

        Built lazily on the first pruning query and version-guarded, so
        any mutation (:meth:`append_path` / :meth:`add_posting`)
        invalidates it.  Cost is one pass over the posting columns (after
        a range fill of the query columns); size is one tuple per index
        leaf plus one per ``(word, root)`` group.
        """
        slot = self._bound_cache
        version = self.version
        if slot is not None and slot[0] == version:
            return slot[1]
        self.finalize()
        self.fill_all_query_paths()
        _roots, sizes, prs, _edges, _self_invalid = self._query_columns()
        root_bounds: Dict[str, Dict[NodeId, tuple]] = {}
        pattern_bounds: Dict[str, Dict[PatternId, Dict[NodeId, tuple]]] = {}
        for word, by_pattern in self._pattern_view.items():
            ids = self._posting_ids[word]
            sim_col = self._posting_sims[word]
            word_root: Dict[NodeId, tuple] = {}
            word_pat: Dict[PatternId, Dict[NodeId, tuple]] = {}
            for pid, by_root in by_pattern.items():
                pid_map: Dict[NodeId, tuple] = {}
                for root, leaf in by_root.items():
                    start = leaf._start
                    stop = leaf._stop
                    path_id = ids[start]
                    size_lo = size_hi = sizes[path_id]
                    pr_lo = pr_hi = prs[path_id]
                    sim_lo = sim_hi = sim_col[start]
                    for i in range(start + 1, stop):
                        path_id = ids[i]
                        size = sizes[path_id]
                        if size < size_lo:
                            size_lo = size
                        elif size > size_hi:
                            size_hi = size
                        pr = prs[path_id]
                        if pr < pr_lo:
                            pr_lo = pr
                        elif pr > pr_hi:
                            pr_hi = pr
                        sim = sim_col[i]
                        if sim < sim_lo:
                            sim_lo = sim
                        elif sim > sim_hi:
                            sim_hi = sim
                    bound = (
                        stop - start,
                        size_lo, size_hi, pr_lo, pr_hi, sim_lo, sim_hi,
                    )
                    pid_map[root] = bound
                    merged = word_root.get(root)
                    if merged is None:
                        word_root[root] = bound
                    else:
                        word_root[root] = (
                            merged[0] + bound[0],
                            min(merged[1], size_lo),
                            max(merged[2], size_hi),
                            min(merged[3], pr_lo),
                            max(merged[4], pr_hi),
                            min(merged[5], sim_lo),
                            max(merged[6], sim_hi),
                        )
                word_pat[pid] = pid_map
            root_bounds[word] = word_root
            pattern_bounds[word] = word_pat
        cache = (root_bounds, pattern_bounds)
        # Tagged with the version captured *before* the build: if a writer
        # bumped mid-build the slot is immediately stale and rebuilt.
        self._bound_cache = (version, cache)
        return cache

    def form_tree(self, path_ids: Sequence[int]) -> bool:
        """Store-native :func:`repro.index.entry.entries_form_tree`.

        Operates on the store's columns — no :class:`PathEntry`
        materialization — with the identical tree-validity rule: all paths
        share the root, no node acquires two distinct parent edges, and no
        edge re-enters the root.  A convenience wrapper over
        :meth:`pairs_checker` (the hot loops' form, and the single
        implementation of the rule) for id-only callers; fills the ids
        it is given.
        """
        self.fill_query_paths(path_ids)
        return self.pairs_checker()([(path_id, 0.0) for path_id in path_ids])

    def pairs_checker(self):
        """A tree-validity predicate over ``(path_id, sim)`` pair combos.

        Same rule as :meth:`form_tree`, specialized for the enumeration
        loop's native shape: the cross product yields pair combinations,
        so no id tuple is built per combination, and the returned closure
        is bound to the query columns so the loop pays no per-call column
        lookup.  Fetch once per enumeration run.  It reads only filled
        slots (:meth:`fill_query_words`); the columns only grow, so the
        closure stays valid across mutations.
        """
        roots, _sizes, _prs, edges, self_invalid = self._query_columns()

        def form_tree_pairs(pairs: Sequence[Tuple[int, float]]) -> bool:
            first = pairs[0][0]
            root = roots[first]
            if len(pairs) == 1:
                return not self_invalid[first]
            parent: Dict[NodeId, Tuple[NodeId, AttrId]] = {}
            get = parent.get
            for path_id, _sim in pairs:
                if roots[path_id] != root or self_invalid[path_id]:
                    return False
                for child, edge in edges[path_id]:
                    existing = get(child)
                    if existing is None:
                        parent[child] = edge
                    elif existing != edge:
                        return False
            return True

        return form_tree_pairs

    def score_terms(
        self, path_ids: Sequence[int], sims: Sequence[float]
    ) -> Tuple[int, float, float]:
        """Store-native :func:`~repro.index.entry.combination_score_terms`.

        Summed (size, pr, sim) for a subtree given as parallel posting
        columns (Equations 4-6), skipping entry materialization.  A
        convenience wrapper over :meth:`pairs_scorer` (the hot loops'
        form, and the single implementation of the sums — identical float
        order to the entry-based helper, so scores are bit-identical
        across the two pipelines).  Fills the ids it is given.
        """
        self.fill_query_paths(path_ids)
        return self.pairs_scorer()(list(zip(path_ids, sims)))

    def pairs_scorer(self):
        """``pairs -> (size, pr, sim)`` bound to the query columns.

        The pair-combo companion of :meth:`score_terms` (identical sums
        and float order); fetch once per enumeration run like
        :meth:`pairs_checker`.
        """
        _roots, sizes, prs, _edges, _self_invalid = self._query_columns()

        def score_pairs(
            pairs: Sequence[Tuple[int, float]]
        ) -> Tuple[int, float, float]:
            size = 0
            pr = 0.0
            sim = 0.0
            for path_id, posting_sim in pairs:
                size += sizes[path_id]
                pr += prs[path_id]
                sim += posting_sim
            return size, pr, sim

        return score_pairs

    def matched_node(self, path_id: int) -> NodeId:
        """The node whose PageRank is the path's ``pr`` term.

        The path's endpoint for node matches; the edge's source (the
        second-to-last node) for edge matches.
        """
        end = self._node_offsets[path_id + 1]
        return self._nodes[end - 2 if self._moe[path_id] else end - 1]

    # ------------------------------------------------------------- snapshots

    def snapshot(self) -> "StoreSnapshot":
        """A read-only view pinned to the store's current version.

        The snapshot protocol (see ``docs/serving.md``) rides on two
        standing invariants of this class:

        * the **path columns are append-only** — a ``path_id`` assigned
          once maps to the same nodes/attrs/root/pr forever, so snapshot
          readers may keep delegating path lookups to the live columns;
        * :meth:`finalize` **replaces** the posting arrays and view dicts
          instead of mutating them — readers holding the previous
          generation keep a complete, internally consistent grouping.

        A snapshot therefore only needs to capture *references* to the
        current generation under :attr:`lock` (so it cannot observe a
        half-applied incremental update); it costs a few dict copies, not
        a data copy.  Writers proceed normally afterwards — they bump
        :attr:`version`, and version-guarded caches (bound columns and
        every service-level cache keyed by ``version``) invalidate, while
        existing snapshots stay coherent.  The query columns need no
        guard: snapshots fill the live store's append-only set.
        """
        with self.lock:
            self.finalize()
            return StoreSnapshot(self)

    # ---------------------------------------------------------- persistence

    def to_payload(
        self, pagerank_scores: Optional[Sequence[float]] = None
    ) -> Dict[str, object]:
        """Compact serialization payload: raw array bytes, no object graph.

        Derivable columns are elided (see ``docs/index-format.md``):

        * ``node_offsets`` is stored as per-path *lengths* (2 bytes each);
        * ``roots`` is dropped — it is each path's first node;
        * ``prs`` is dropped whenever it matches
          ``pagerank_scores[matched_node]`` for every path (always true
          for builder/incremental-produced stores), since the bundle
          serializes the PageRank vector anyway;
        * ``sims`` are dictionary-encoded (distinct similarity values are
          few: Jaccard terms ``1/|token set|``) as 2-byte codes when the
          value dictionary fits.

        :meth:`from_payload` inverts all of this.
        """
        offsets = self._node_offsets
        lengths = array("H")
        max_len = 65535
        for path_id in range(self.num_paths):
            size = offsets[path_id + 1] - offsets[path_id]
            if size > max_len:  # pragma: no cover - paths are d-bounded
                raise PathIndexError(
                    f"path {path_id} has {size} nodes; cannot serialize"
                )
            lengths.append(size)

        prs: Optional[bytes] = self._prs.tobytes()
        if pagerank_scores is not None:
            n = len(pagerank_scores)
            if all(
                (node := self.matched_node(i)) < n
                and self._prs[i] == pagerank_scores[node]
                for i in range(self.num_paths)
            ):
                prs = None

        sim_values: Optional[bytes]
        sim_columns: List[bytes]
        distinct = sorted(
            {sim for sims in self._posting_sims.values() for sim in sims}
        )
        if len(distinct) <= 65535:
            codes = {value: code for code, value in enumerate(distinct)}
            sim_values = array(FLOAT_TYPECODE, distinct).tobytes()
            sim_columns = [
                array("H", (codes[sim] for sim in sims)).tobytes()
                for sims in self._posting_sims.values()
            ]
        else:  # pragma: no cover - requires >65535 distinct similarities
            sim_values = None
            sim_columns = [
                sims.tobytes() for sims in self._posting_sims.values()
            ]
        return {
            "typecodes": {
                "id": ID_TYPECODE,
                "flag": FLAG_TYPECODE,
                "float": FLOAT_TYPECODE,
            },
            "num_paths": self.num_paths,
            "path_lengths": lengths.tobytes(),
            "nodes": self._nodes.tobytes(),
            "attrs": self._attrs.tobytes(),
            "pids": self._pids.tobytes(),
            "moe": self._moe.tobytes(),
            "prs": prs,
            "words": list(self._posting_ids.keys()),
            "posting_ids": [
                ids.tobytes() for ids in self._posting_ids.values()
            ],
            "sim_values": sim_values,
            "posting_sims": sim_columns,
        }

    @classmethod
    def from_payload(
        cls,
        interner: PatternInterner,
        payload: Dict[str, object],
        pagerank_scores: Optional[Sequence[float]] = None,
    ) -> "PostingStore":
        """Rebuild a store from :meth:`to_payload` output.

        ``pagerank_scores`` is required to reconstruct the elided ``prs``
        column when the payload omitted it.
        """
        store = cls(interner)

        def column(typecode: str, raw) -> array:
            out = array(typecode)
            out.frombytes(raw)
            return out

        lengths = column("H", payload["path_lengths"])
        store._nodes = column(ID_TYPECODE, payload["nodes"])
        store._attrs = column(ID_TYPECODE, payload["attrs"])
        store._pids = column(ID_TYPECODE, payload["pids"])
        store._moe = column(FLAG_TYPECODE, payload["moe"])
        offset = 0
        for size in lengths:
            offset += size
            store._node_offsets.append(offset)
        if (
            len(lengths) != len(store._pids)
            or store._node_offsets[-1] != len(store._nodes)
            or len(store._attrs) != len(store._nodes) - len(lengths)
            or len(store._moe) != len(lengths)
        ):
            raise PathIndexError(
                "corrupt posting store payload: column sizes disagree "
                f"({len(lengths)} paths, {len(store._nodes)} nodes, "
                f"{len(store._attrs)} attrs)"
            )
        store._roots = array(
            ID_TYPECODE,
            (
                store._nodes[store._node_offsets[i]]
                for i in range(len(lengths))
            ),
        )
        prs_raw = payload.get("prs")
        if prs_raw is not None:
            store._prs = column(FLOAT_TYPECODE, prs_raw)
        else:
            if pagerank_scores is None:
                raise PathIndexError(
                    "payload elides the pr column; pagerank_scores required"
                )
            store._prs = array(
                FLOAT_TYPECODE,
                (
                    pagerank_scores[store.matched_node(i)]
                    for i in range(len(lengths))
                ),
            )
        sim_values_raw = payload.get("sim_values")
        sim_values = (
            column(FLOAT_TYPECODE, sim_values_raw)
            if sim_values_raw is not None
            else None
        )
        for word, ids_raw, sims_raw in zip(
            payload["words"], payload["posting_ids"], payload["posting_sims"]
        ):
            store._posting_ids[word] = column(ID_TYPECODE, ids_raw)
            if sim_values is not None:
                codes = column("H", sims_raw)
                store._posting_sims[word] = array(
                    FLOAT_TYPECODE, (sim_values[code] for code in codes)
                )
            else:  # pragma: no cover - raw-sims fallback
                store._posting_sims[word] = column(FLOAT_TYPECODE, sims_raw)
            store.version += 1
        return store


class StoreSnapshot:
    """A version-pinned, read-only view of a :class:`PostingStore`.

    Obtained via :meth:`PostingStore.snapshot`; duck-types the store's
    *read* interface so every search algorithm runs against it unchanged
    (an :class:`~repro.index.builder.PathIndexes` snapshot swaps this in
    as the views' backing store).  Implementation-wise it is mostly
    **borrowed methods**: the version-sensitive accessors reuse
    :class:`PostingStore`'s own code bound to state captured at snapshot
    time — pinned ``version``/``num_paths``, the finalized view dicts,
    shallow copies of the posting-column dicts — so the two code paths
    cannot drift.  The query columns are the live store's own
    :class:`QueryColumns`, filled from the pinned postings (bounded by
    the pinned counts).  The bound columns are carried over when already
    built for the pinned version, or built lazily over the pinned state
    (never the live store's moving columns).

    Mutators raise :class:`~repro.core.errors.PathIndexError`; anything
    else (entry materialization, the counters it feeds) delegates to the
    live store via ``__getattr__``.
    """

    def __init__(self, store: PostingStore) -> None:
        # Caller holds store.lock and has finalized (PostingStore.snapshot).
        self._store = store
        self.interner = store.interner
        self.version = store.version
        self.num_paths = store.num_paths
        # Path columns: append-only, so sharing the live arrays is safe —
        # every id this snapshot can reach is < num_paths and immutable.
        self._node_offsets = store._node_offsets
        self._nodes = store._nodes
        self._attrs = store._attrs
        self._pids = store._pids
        self._roots = store._roots
        self._moe = store._moe
        self._prs = store._prs
        # Posting columns: finalize() *replaces* dict values, so a shallow
        # dict copy pins this generation of sorted arrays.  Appends by
        # add_posting land beyond every leaf's [start:stop) slice.
        self._posting_ids = dict(store._posting_ids)
        self._posting_sims = dict(store._posting_sims)
        self._num_postings = {
            word: len(ids) for word, ids in self._posting_ids.items()
        }
        # The finalized grouping (replaced wholesale by the next finalize).
        self._pattern_view = store._pattern_view
        self._root_view = store._root_view
        self._root_counts = store._root_counts
        # Query columns: the live store's own append-only set, filled
        # through the borrowed methods below from the pinned postings,
        # counts (num_postings), path columns and num_paths — a writer
        # growing the shared arrays meanwhile is never observed.
        self._query_cols = store._query_cols
        self._fill_on_read = False
        # Bound columns: adopt when fresh, else rebuild over pinned state.
        # The slot is a (version, cache) tuple read atomically.
        slot = store._bound_cache
        self._bound_cache = (
            slot if slot is not None and slot[0] == store.version else None
        )

    # -------------------------------------------------- pinned-state reads
    # Borrowed from PostingStore: these methods only touch attributes the
    # snapshot pins (or the append-only path columns), so reusing the
    # store's code gives bit-identical behavior by construction.

    pattern_view = PostingStore.pattern_view
    root_view = PostingStore.root_view
    groups = PostingStore.groups
    root_counts = PostingStore.root_counts
    path_nodes = PostingStore.path_nodes
    path_attrs = PostingStore.path_attrs
    path_size = PostingStore.path_size
    path_root = PostingStore.path_root
    path_pattern = PostingStore.path_pattern
    path_pr = PostingStore.path_pr
    path_matched_on_edge = PostingStore.path_matched_on_edge
    path_sort_key = PostingStore.path_sort_key
    matched_node = PostingStore.matched_node
    path_columns = PostingStore.path_columns
    _query_columns = PostingStore._query_columns
    fill_query_words = PostingStore.fill_query_words
    fill_query_paths = PostingStore.fill_query_paths
    fill_all_query_paths = PostingStore.fill_all_query_paths
    pairs_checker = PostingStore.pairs_checker
    pairs_scorer = PostingStore.pairs_scorer
    form_tree = PostingStore.form_tree
    score_terms = PostingStore.score_terms
    total_path_nodes = PostingStore.total_path_nodes
    dedup_ratio = PostingStore.dedup_ratio
    words = PostingStore.words
    has_word = PostingStore.has_word

    def postings(self, word: str) -> Iterable[Tuple[int, float]]:
        """One word's pinned ``(path_id, sim)`` pairs, column order.

        Not borrowed: the posting arrays are shared with the live store,
        and a writer can append to them after this snapshot pinned its
        state (heap stores mid-mutation, delta-overlay words that are
        already dirty).  Bounding the zip by the pinned per-word count
        keeps every yielded path id below ``num_paths`` no matter how
        the live arrays grow mid-iteration.
        """
        ids = self._posting_ids.get(word)
        if ids is None:
            return iter(())
        return islice(
            zip(ids, self._posting_sims[word]),
            self._num_postings.get(word, 0),
        )

    def finalize(self) -> None:
        """No-op: a snapshot is finalized by construction."""

    def bound_columns(self) -> tuple:
        """Pinned aggregate bound columns, donated back on first build.

        Runs the borrowed :meth:`PostingStore.bound_columns` over the
        snapshot's pinned state; if this was a fresh build and the live
        store has not moved past the pinned version, the ``(version,
        cache)`` slot is written back in one atomic assignment so the
        *next* snapshot (and forked pool workers, which inherit the
        parent's heap) adopt it instead of rebuilding.  Because version
        tag and cache object travel in one tuple, a live-store reader
        racing the donation either sees the whole donated slot or the
        previous one — never a mixed pair.
        """
        had = self._bound_cache
        fresh = had is not None and had[0] == self.version
        cache = PostingStore.bound_columns(self)
        if not fresh:
            store = self._store
            live = store._bound_cache
            if (
                (live is None or live[0] != store.version)
                and store.version == self.version
            ):
                store._bound_cache = (self.version, cache)
        return cache

    def warm_query_caches(self) -> None:
        """Fill every pinned path's query columns and build the bound
        columns now.

        Batch drivers call this once before fanning out workers so the
        one-time fills are not raced by every thread (a benign but
        wasteful duplication) or repeated inside every forked worker (a
        real serial cost per child).
        """
        self.fill_all_query_paths()
        self.bound_columns()

    def num_postings(self, word: Optional[str] = None) -> int:
        """Postings *at snapshot time* (live appends are not counted)."""
        if word is not None:
            return self._num_postings.get(word, 0)
        return sum(self._num_postings.values())

    def make_entry(self, path_id: int, sim: float) -> PathEntry:
        """Delegates to the live store so the process-wide and per-store
        materialization counters keep counting (the regression tests and
        benchmarks read them there)."""
        return self._store.make_entry(path_id, sim)

    def release_query_columns(self) -> None:
        """Drop the pinned bound columns; the query columns belong to the
        live store (release them there)."""
        self._bound_cache = None

    def snapshot(self) -> "StoreSnapshot":
        """Snapshotting a snapshot is the identity (already pinned)."""
        return self

    # ------------------------------------------------------------ read-only

    def _read_only(self, operation: str):
        raise PathIndexError(
            f"cannot {operation} through a StoreSnapshot: snapshots are "
            "read-only views; mutate the live PostingStore instead"
        )

    def add_path(self, *args, **kwargs):
        self._read_only("add a path")

    def append_path(self, *args, **kwargs):
        self._read_only("append a path")

    def add_posting(self, *args, **kwargs):
        self._read_only("add a posting")

    def add_entry(self, *args, **kwargs):
        self._read_only("add an entry")

    def to_payload(self, *args, **kwargs):
        self._read_only("serialize")

    def __getattr__(self, name: str):
        # Everything not version-sensitive (instrumentation counters,
        # nbytes, scratch, ...) answers from the live store.
        return getattr(self._store, name)

    def __repr__(self) -> str:
        return (
            f"StoreSnapshot(version={self.version}, "
            f"paths={self.num_paths})"
        )
