"""Persistence of built path indexes.

Index construction dominates query time by orders of magnitude (Figure 6:
minutes to hours on the paper's hardware), so a production deployment
builds once and serves many queries.  We persist the whole
:class:`PathIndexes` bundle — graph included, since postings reference
node ids that are only meaningful against that exact graph — with a
versioned header to fail loudly on format drift.

Three on-disk formats exist:

* **FORMAT_VERSION 3** (written by default): posting columns, path and
  bound aggregate columns, the interner, and per-shard extents laid out
  as flat fixed-width arrays in one file behind an offset table, opened
  via ``mmap`` (see :mod:`repro.index.mmapstore` and
  ``docs/index-format.md``).  Cold start is O(1): opening maps pages
  without reading them, and every column deserializes lazily, word by
  word, on first query access.  Forked pool workers inherit the
  parent's mapping — shard pages are copy-free across the pool.
* **FORMAT_VERSION 2** (written with ``version=2``, read transparently):
  a pickled envelope holding the columnar
  :class:`~repro.index.store.PostingStore` and the pattern interner as
  raw ``array`` bytes; the whole store deserializes into heap arrays at
  load.
* **FORMAT_VERSION 1** (read-only): the legacy wholesale object-graph
  pickle with per-entry ``PathEntry`` objects in triply-nested dicts,
  migrated into a columnar store on load.

Saves are crash-safe: bytes are written to a temporary file in the target
directory and atomically renamed over the destination, so an interrupted
save can never leave a truncated or corrupt index file behind.
"""

from __future__ import annotations

import os
import pickle
import struct
import tempfile
import time
from array import array
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.errors import PathIndexError
from repro.index.builder import PathIndexes
from repro.index.interner import PatternInterner
from repro.index.mmapstore import (
    V3_MAGIC,
    LazyGraph,
    MappedIndexReader,
    MappedPatternInterner,
    MappedPostingStore,
    _LazyLexicon,
    _LazyObjects,
    align8,
)
from repro.index.pattern_first import PatternFirstIndex
from repro.index.root_first import RootFirstIndex
from repro.index.store import (
    FLAG_TYPECODE,
    FLOAT_TYPECODE,
    ID_TYPECODE,
    OFFSET_TYPECODE,
    PostingStore,
    StoreSnapshot,
)

FORMAT_NAME = "repro-path-index"
FORMAT_VERSION = 3
READABLE_VERSIONS = (1, 2, 3)
WRITABLE_VERSIONS = (2, 3)

#: ``array`` typecode byte widths used when sizing v2 payload columns.
_ID_ITEMSIZE = array(ID_TYPECODE).itemsize


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a same-directory temp file + rename."""
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        raise


def _write_index_bytes(data: bytes, path: Union[str, Path]) -> int:
    try:
        _atomic_write_bytes(Path(path), data)
    except OSError as exc:
        raise PathIndexError(
            f"cannot write index to {str(path)!r}: {exc}"
        ) from exc
    return len(data)


# ------------------------------------------------------------------ v2 write


def _v2_envelope(indexes: PathIndexes) -> dict:
    """The v2 columnar envelope for one bundle (shared by both kinds)."""
    store = indexes.store
    if store is None:  # pragma: no cover - PathIndexes always has a store
        raise PathIndexError("cannot serialize indexes without a store")
    return {
        "format": FORMAT_NAME,
        "version": 2,
        "d": indexes.d,
        "num_entries": indexes.num_entries,
        "num_paths": store.num_paths,
        "graph": indexes.graph,
        "normalizer": indexes.normalizer,
        "lexicon": indexes.lexicon,
        "synonyms": indexes.synonyms,
        "build_seconds": indexes.build_seconds,
        "pagerank": array("d", indexes.pagerank_scores).tobytes(),
        "interner": indexes.interner.to_payload(),
        "store": store.to_payload(indexes.pagerank_scores),
    }


def _write_envelope(envelope: dict, path: Union[str, Path]) -> int:
    data = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
    return _write_index_bytes(data, path)


# ------------------------------------------------------------------ v3 write


def _as_bytes(typecode: str, column) -> bytes:
    """A column (``array``, ``memoryview``, chained, or sequence) as bytes."""
    if isinstance(column, (array, memoryview)):
        return column.tobytes()
    tobytes = getattr(column, "tobytes", None)
    if tobytes is not None:
        # ChainColumn (mapped base ⊕ heap tail): two memcpys, no boxing.
        return tobytes()
    return array(typecode, column).tobytes()


class _SectionWriter:
    """Accumulates named, 8-byte-aligned data sections + an offset table."""

    def __init__(self) -> None:
        self.chunks: List[bytes] = []
        self.sections: Dict[str, Tuple[int, int]] = {}
        self._offset = 0

    def add(self, name: str, data: bytes) -> None:
        if name in self.sections:  # pragma: no cover - writer bug guard
            raise PathIndexError(f"duplicate v3 section {name!r}")
        pad = align8(self._offset) - self._offset
        if pad:
            self.chunks.append(b"\x00" * pad)
            self._offset += pad
        self.sections[name] = (self._offset, len(data))
        self.chunks.append(data)
        self._offset += len(data)


def _v3_store_sections(
    writer: _SectionWriter, prefix: str, store: PostingStore
) -> dict:
    """Write one store's columns as ``prefix``-named sections.

    The posting columns are written in their finalized (pattern, root,
    path-lex) sort order, concatenated per word in vocabulary order, and
    each index leaf's extent plus its aggregate bound (min/max path
    size, PageRank, similarity — see
    :meth:`~repro.index.store.PostingStore.bound_columns`) is persisted
    so the mapped reader rebuilds the finalized views and bound columns
    per word without scanning a single posting column.
    """
    store.finalize()
    _root_bounds, pattern_bounds = store.bound_columns()
    pattern_view = store.pattern_view()
    writer.add(
        prefix + "node_offsets",
        _as_bytes(OFFSET_TYPECODE, store._node_offsets),
    )
    writer.add(prefix + "nodes", _as_bytes(ID_TYPECODE, store._nodes))
    writer.add(prefix + "attrs", _as_bytes(ID_TYPECODE, store._attrs))
    writer.add(prefix + "pids", _as_bytes(ID_TYPECODE, store._pids))
    writer.add(prefix + "roots", _as_bytes(ID_TYPECODE, store._roots))
    writer.add(prefix + "moe", _as_bytes(FLAG_TYPECODE, store._moe))
    writer.add(prefix + "prs", _as_bytes(FLOAT_TYPECODE, store._prs))

    words = list(store._posting_ids.keys())
    posting_counts: List[int] = []
    leaf_counts: List[int] = []
    ids_chunks: List[bytes] = []
    sims_chunks: List[bytes] = []
    leaf_pids = array(ID_TYPECODE)
    leaf_roots = array(ID_TYPECODE)
    leaf_stops = array(OFFSET_TYPECODE)
    leaf_sizes = array(OFFSET_TYPECODE)
    leaf_floats = array(FLOAT_TYPECODE)
    for word in words:
        ids = store._posting_ids[word]
        posting_counts.append(len(ids))
        ids_chunks.append(_as_bytes(ID_TYPECODE, ids))
        sims_chunks.append(
            _as_bytes(FLOAT_TYPECODE, store._posting_sims[word])
        )
        word_bounds = pattern_bounds[word]
        leaves = [
            (pid, root, leaf)
            for pid, by_root in pattern_view[word].items()
            for root, leaf in by_root.items()
        ]
        leaves.sort(key=lambda item: item[2]._start)
        expected_start = 0
        for pid, root, leaf in leaves:
            if leaf._start != expected_start:
                raise PathIndexError(
                    f"cannot write v3: word {word!r} leaves are not "
                    "contiguous (store not finalized?)"
                )
            expected_start = leaf._stop
            leaf_pids.append(pid)
            leaf_roots.append(root)
            leaf_stops.append(leaf._stop)
            bound = word_bounds[pid][root]
            leaf_sizes.append(bound[1])
            leaf_sizes.append(bound[2])
            leaf_floats.append(bound[3])
            leaf_floats.append(bound[4])
            leaf_floats.append(bound[5])
            leaf_floats.append(bound[6])
        if expected_start != len(ids):
            raise PathIndexError(
                f"cannot write v3: word {word!r} leaves cover "
                f"{expected_start} of {len(ids)} postings"
            )
        leaf_counts.append(len(leaves))
    writer.add(prefix + "posting_ids", b"".join(ids_chunks))
    writer.add(prefix + "posting_sims", b"".join(sims_chunks))
    writer.add(prefix + "leaf_pids", leaf_pids.tobytes())
    writer.add(prefix + "leaf_roots", leaf_roots.tobytes())
    writer.add(prefix + "leaf_stops", leaf_stops.tobytes())
    writer.add(prefix + "leaf_sizes", leaf_sizes.tobytes())
    writer.add(prefix + "leaf_floats", leaf_floats.tobytes())
    return {
        "prefix": prefix,
        "words": words,
        "posting_counts": posting_counts,
        "leaf_counts": leaf_counts,
        "num_paths": store.num_paths,
        "num_postings": sum(posting_counts),
    }


def _v3_bytes(
    indexes: PathIndexes,
    shard_stores: Optional[Sequence[PostingStore]] = None,
    generation: Optional[int] = None,
) -> bytes:
    """Assemble one v3 file: magic, pickled header, aligned flat sections."""
    store = indexes.store
    stores = [store] + list(shard_stores or ())
    if any(isinstance(s, StoreSnapshot) for s in stores):
        raise PathIndexError(
            "cannot serialize through a StoreSnapshot: snapshots are "
            "read-only views; save the live bundle instead"
        )
    writer = _SectionWriter()
    stores_meta = [
        _v3_store_sections(writer, f"s{i}/", s) for i, s in enumerate(stores)
    ]
    graph = indexes.graph
    writer.add("node_types", _as_bytes(ID_TYPECODE, graph._node_types))
    writer.add(
        "pagerank", _as_bytes(FLOAT_TYPECODE, indexes.pagerank_scores)
    )
    interner_payload = indexes.interner.to_payload()
    writer.add("interner_offsets", interner_payload["offsets"])
    writer.add("interner_labels", interner_payload["labels"])
    writer.add("interner_flags", interner_payload["flags"])
    # The only object-pickled section; everything in it is off the query
    # hot path and unpickles lazily (see mmapstore.LazyGraph).
    writer.add(
        "objects",
        pickle.dumps(
            {"graph": graph, "lexicon": indexes.lexicon},
            protocol=pickle.HIGHEST_PROTOCOL,
        ),
    )
    num_shards = len(stores) - 1
    header = {
        "format": FORMAT_NAME,
        "version": 3,
        "kind": "sharded" if shard_stores is not None else "single",
        "num_shards": num_shards,
        # Compaction lineage: 0 for a fresh build, +1 per fold of a live
        # delta overlay back into a flat file (see compact_indexes).
        "generation": generation
        if generation is not None
        else getattr(store, "generation", 0),
        "d": indexes.d,
        "num_entries": indexes.num_entries,
        "num_paths": store.num_paths,
        "num_nodes": graph.num_nodes,
        "build_seconds": indexes.build_seconds,
        "normalizer": indexes.normalizer,
        "synonyms": indexes.synonyms,
        "stores": stores_meta,
        "sections": writer.sections,
    }
    header_bytes = pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
    pre = len(V3_MAGIC) + 8 + len(header_bytes)
    pad = align8(pre) - pre
    return b"".join(
        [
            V3_MAGIC,
            struct.pack("<Q", len(header_bytes)),
            header_bytes,
            b"\x00" * pad,
        ]
        + writer.chunks
    )


def _check_writable(version: int) -> None:
    if version not in WRITABLE_VERSIONS:
        raise PathIndexError(
            f"cannot write format version {version!r}; this build writes "
            f"versions {WRITABLE_VERSIONS}"
        )


def save_indexes(
    indexes: PathIndexes,
    path: Union[str, Path],
    version: int = FORMAT_VERSION,
) -> int:
    """Write indexes to ``path`` (atomic); returns the bytes written.

    Writes the mmap-ready v3 layout by default; pass ``version=2`` for
    the legacy pickled columnar envelope (e.g. to compare sizes or feed
    an older reader).
    """
    _check_writable(version)
    if version == 2:
        return _write_envelope(_v2_envelope(indexes), path)
    return _write_index_bytes(_v3_bytes(indexes), path)


def save_sharded_indexes(
    sharded,
    path: Union[str, Path],
    version: int = FORMAT_VERSION,
) -> int:
    """Write a partitioned bundle: the base plus its K shard stores.

    The shards share the base's graph/interner/lexicon/PageRank, so only
    their posting stores are serialized.  A sharded file *is* a valid
    index file: :func:`load_indexes` on it returns the base bundle
    (sharding is a serving-side accelerator, not a different index),
    while :func:`load_sharded_indexes` restores the full partition
    without re-running :func:`repro.index.shards.partition_indexes`.
    In the v3 layout each shard's columns are distinct mapped extents of
    the same file, so forked pool workers share one page cache copy.
    """
    _check_writable(version)
    if version == 2:
        envelope = _v2_envelope(sharded.base)
        envelope["kind"] = "sharded"
        envelope["num_shards"] = sharded.num_shards
        envelope["shard_stores"] = [
            shard.store.to_payload(sharded.base.pagerank_scores)
            for shard in sharded.shards
        ]
        return _write_envelope(envelope, path)
    data = _v3_bytes(
        sharded.base, [shard.store for shard in sharded.shards]
    )
    return _write_index_bytes(data, path)


# ---------------------------------------------------------------- compaction


def compact_indexes(
    indexes: PathIndexes,
    path: Union[str, Path],
    num_shards: int = 0,
) -> dict:
    """Fold a mapped store's delta overlay into a fresh v3 file + re-map.

    The LSM "merge" step for :class:`~repro.index.mmapstore.
    MappedPostingStore`: streams base ⊕ overlay into a new v3 image
    (crash-safe — the bytes land in a temp file and atomically replace
    ``path``), then re-points the live store at the new mapping
    (:meth:`~repro.index.mmapstore.MappedPostingStore.remap`).  The
    overlay's heap state is dropped; untouched readers never notice —
    pinned snapshots keep the old generation's pages alive, and the
    version bump makes every pool and cache rebuild from the re-mapped
    generation.

    With ``num_shards > 0`` the current content is also partitioned and
    the file written sharded (per-shard extents preserved, so a restart
    re-maps the partition for free).

    The whole operation holds ``store.lock``: writers and
    snapshot-takers block for the O(index) streaming write (readers on
    existing snapshots are unaffected) — this is what makes the written
    image and the re-mapped state exactly the live content.

    Returns ``{"bytes", "generation", "sharded"}`` where ``sharded`` is
    a fresh mapped :class:`~repro.index.shards.ShardedIndexes` partition
    (``None`` when ``num_shards == 0``).
    """
    from repro.index.shards import partition_indexes, wrap_shard_stores

    store = indexes.store
    if isinstance(store, StoreSnapshot):
        raise PathIndexError(
            "cannot compact through a StoreSnapshot: compact the live "
            "bundle"
        )
    if not isinstance(store, MappedPostingStore) or not store._backed:
        raise PathIndexError(
            "compact requires a mapped (backed) v3 store; save_indexes() "
            "rewrites heap-resident bundles"
        )
    path = Path(path)
    generation = store.generation + 1
    with store.lock:
        if num_shards > 0:
            partition = partition_indexes(indexes, num_shards)
            data = _v3_bytes(
                indexes,
                [shard.store for shard in partition.shards],
                generation=generation,
            )
        else:
            data = _v3_bytes(indexes, generation=generation)
        nbytes = _write_index_bytes(data, path)
        reader = MappedIndexReader(path)
        header = reader.header
        store.remap(reader, header["stores"][0])
        sharded = None
        if num_shards > 0:
            mapped_stores = [
                MappedPostingStore(
                    indexes.interner, reader, meta, generation=generation
                )
                for meta in header["stores"][1:]
            ]
            # store_version defaults to the *post-remap* live version, so
            # the serving tier's pools adopt this partition without a
            # re-partition.
            sharded = wrap_shard_stores(indexes, mapped_stores)
    return {"bytes": nbytes, "generation": generation, "sharded": sharded}


# ------------------------------------------------------------------- loading


def _load_v2(path: Path, envelope: dict) -> PathIndexes:
    """Reassemble a :class:`PathIndexes` from a v2 columnar envelope."""
    try:
        interner = PatternInterner.from_payload(envelope["interner"])
        pagerank = array("d")
        pagerank.frombytes(envelope["pagerank"])
        store = PostingStore.from_payload(
            interner, envelope["store"], pagerank
        )
        pattern_first = PatternFirstIndex(interner, store)
        root_first = RootFirstIndex(interner, store)
        pattern_first.finalize()
        root_first.finalize()
        return PathIndexes(
            graph=envelope["graph"],
            d=envelope["d"],
            normalizer=envelope["normalizer"],
            lexicon=envelope["lexicon"],
            interner=interner,
            pattern_first=pattern_first,
            root_first=root_first,
            pagerank_scores=list(pagerank),
            build_seconds=envelope.get("build_seconds", 0.0),
            synonyms=envelope.get("synonyms"),
            store=store,
        )
    except KeyError as exc:
        raise PathIndexError(
            f"{str(path)!r} v2 envelope is missing field {exc}"
        ) from exc


def _migrate_v1(path: Path, payload: object) -> PathIndexes:
    """Rebuild a columnar bundle from a legacy object-graph pickle.

    v1 payloads are :class:`PathIndexes` instances whose index attributes
    hold the pre-columnar layout (``word -> pid -> root -> [PathEntry]``
    dicts).  Attributes are read through ``__dict__`` so this works
    regardless of how the index classes have evolved since the file was
    written.
    """
    if not isinstance(payload, PathIndexes):
        raise PathIndexError(f"{str(path)!r} payload is not PathIndexes")
    state = payload.__dict__
    try:
        interner = state["interner"]
        legacy_data = state["pattern_first"].__dict__["_data"]
    except KeyError as exc:
        raise PathIndexError(
            f"{str(path)!r} v1 payload is missing attribute {exc}"
        ) from exc
    store = PostingStore(interner)
    for word, by_pattern in legacy_data.items():
        for pid, by_root in by_pattern.items():
            for entries in by_root.values():
                for entry in entries:
                    store.add_entry(word, pid, entry)
    pattern_first = PatternFirstIndex(interner, store)
    root_first = RootFirstIndex(interner, store)
    pattern_first.finalize()
    root_first.finalize()
    return PathIndexes(
        graph=state["graph"],
        d=state["d"],
        normalizer=state["normalizer"],
        lexicon=state["lexicon"],
        interner=interner,
        pattern_first=pattern_first,
        root_first=root_first,
        pagerank_scores=state["pagerank_scores"],
        build_seconds=state.get("build_seconds", 0.0),
        synonyms=state.get("synonyms"),
        store=store,
    )


def _is_v3_file(path: Path) -> bool:
    """Whether ``path`` starts with the v3 magic (False on any OSError,
    so a missing file falls through to the envelope path's error)."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(V3_MAGIC)) == V3_MAGIC
    except OSError:
        return False


def _load_v3(path: Path):
    """Open a v3 file: ``(reader, header, base_indexes, all_stores)``.

    O(1) in the index size: columns are mapped, not read — the base
    bundle's views and bound columns deserialize lazily per word (see
    :mod:`repro.index.mmapstore`).  ``all_stores[0]`` is the base store;
    the rest are shard stores for sharded files.
    """
    reader = MappedIndexReader(path)
    header = reader.header
    if header.get("format") != FORMAT_NAME:
        raise PathIndexError(f"{str(path)!r} is not a {FORMAT_NAME} file")
    if header.get("version") != 3:
        raise PathIndexError(
            f"{str(path)!r} has format version {header.get('version')}, "
            f"this build reads versions {READABLE_VERSIONS}"
        )
    try:
        interner = MappedPatternInterner(
            reader.view("interner_offsets", OFFSET_TYPECODE),
            reader.view("interner_labels", ID_TYPECODE),
            reader.view("interner_flags", FLAG_TYPECODE),
        )
        objects = _LazyObjects(reader)
        graph = LazyGraph(reader.view("node_types", ID_TYPECODE), objects)
        lexicon = _LazyLexicon(objects)
        # Heap copy (one memcpy, no boxing): incremental maintenance
        # appends to the PageRank vector, a mapped view cannot grow.
        pagerank = array("d")
        pagerank.frombytes(reader.blob("pagerank"))
        generation = header.get("generation", 0)
        stores = [
            MappedPostingStore(interner, reader, meta, generation=generation)
            for meta in header["stores"]
        ]
        base_store = stores[0]
        pattern_first = PatternFirstIndex(interner, base_store)
        root_first = RootFirstIndex(interner, base_store)
        pattern_first.finalize()
        root_first.finalize()
        base = PathIndexes(
            graph=graph,
            d=header["d"],
            normalizer=header["normalizer"],
            lexicon=lexicon,
            interner=interner,
            pattern_first=pattern_first,
            root_first=root_first,
            pagerank_scores=pagerank,
            build_seconds=header.get("build_seconds", 0.0),
            synonyms=header.get("synonyms"),
            store=base_store,
        )
        return reader, header, base, stores
    except KeyError as exc:
        raise PathIndexError(
            f"{str(path)!r} v3 header is missing field {exc}"
        ) from exc


def _read_envelope(path: Path) -> dict:
    """Read and format-check an index file's outer pickled envelope."""
    if not path.exists():
        raise PathIndexError(f"no such index file: {str(path)!r}")
    try:
        envelope = pickle.loads(path.read_bytes())
    except Exception as exc:
        raise PathIndexError(f"cannot unpickle {str(path)!r}: {exc}") from exc
    if not isinstance(envelope, dict) or envelope.get("format") != FORMAT_NAME:
        raise PathIndexError(f"{str(path)!r} is not a {FORMAT_NAME} file")
    version = envelope.get("version")
    if version not in READABLE_VERSIONS:
        raise PathIndexError(
            f"{str(path)!r} has format version {version}, this build reads "
            f"versions {READABLE_VERSIONS}"
        )
    return envelope


def load_indexes(path: Union[str, Path]) -> PathIndexes:
    """Load indexes previously written by :func:`save_indexes`.

    Reads the mmap-backed v3 layout (O(1) cold start — columns stay on
    disk until queries touch them), the v2 pickled columnar envelope,
    and legacy v1 object-graph pickles (transparently migrated).  A
    sharded file loads as its base bundle — the partition is extra
    serving-side state, not a different index; use
    :func:`load_sharded_indexes` to restore the shards too.

    The elapsed wall-clock cold-start time is recorded on the returned
    bundle as ``indexes.load_seconds`` (surfaced by ``search --explain``,
    ``serve`` startup, and :class:`~repro.search.service.ServiceStats`).
    """
    path = Path(path)
    started = time.perf_counter()
    if _is_v3_file(path):
        _reader, header, indexes, _stores = _load_v3(path)
        expected_entries = header.get("num_entries")
    else:
        envelope = _read_envelope(path)
        if envelope.get("version") == 1:
            indexes = _migrate_v1(path, envelope.get("payload"))
        else:
            indexes = _load_v2(path, envelope)
        expected_entries = envelope.get("num_entries")
    if indexes.num_entries != expected_entries:
        raise PathIndexError(
            f"{str(path)!r} entry count mismatch: envelope says "
            f"{expected_entries}, payload has "
            f"{indexes.num_entries}"
        )
    indexes.load_seconds = time.perf_counter() - started
    return indexes


def load_sharded_indexes(path: Union[str, Path]):
    """Load a partitioned bundle written by :func:`save_sharded_indexes`.

    Returns a :class:`~repro.index.shards.ShardedIndexes`: the base
    bundle plus its K shard bundles, reassembled against the base's
    interner/graph exactly as :func:`partition_indexes` would build them.
    For v3 files every shard store maps extents of the same open file —
    no reconstruction, and forked workers share the page cache.
    """
    from repro.index.shards import wrap_shard_stores

    path = Path(path)
    started = time.perf_counter()
    if _is_v3_file(path):
        _reader, header, base, stores = _load_v3(path)
        if header.get("kind") != "sharded":
            raise PathIndexError(
                f"{str(path)!r} is not a sharded index file; load it with "
                "load_indexes() and partition_indexes() instead"
            )
        num_shards = header.get("num_shards")
        shard_stores = stores[1:]
        if len(shard_stores) != num_shards:
            raise PathIndexError(
                f"{str(path)!r} sharded header is inconsistent: "
                f"num_shards={num_shards!r}, "
                f"{len(shard_stores)} shard stores"
            )
        sharded = wrap_shard_stores(base, shard_stores)
    else:
        envelope = _read_envelope(path)
        if envelope.get("kind") != "sharded":
            raise PathIndexError(
                f"{str(path)!r} is not a sharded index file; load it with "
                "load_indexes() and partition_indexes() instead"
            )
        base = _load_v2(path, envelope)
        payloads = envelope.get("shard_stores")
        num_shards = envelope.get("num_shards")
        if not isinstance(payloads, list) or len(payloads) != num_shards:
            raise PathIndexError(
                f"{str(path)!r} sharded envelope is inconsistent: "
                f"num_shards={num_shards!r}, "
                f"{len(payloads) if isinstance(payloads, list) else 'no'} "
                "shard stores"
            )
        pagerank = array("d")
        pagerank.frombytes(envelope["pagerank"])
        stores = [
            PostingStore.from_payload(base.interner, payload, pagerank)
            for payload in payloads
        ]
        sharded = wrap_shard_stores(base, stores)
    total = sum(shard.num_entries for shard in sharded.shards)
    if total != sharded.base.num_entries:
        raise PathIndexError(
            f"{str(path)!r} shard postings do not cover the base: "
            f"{total} vs {sharded.base.num_entries}"
        )
    sharded.base.load_seconds = time.perf_counter() - started
    return sharded


# --------------------------------------------------------------- inspection


def _v2_store_summary(name: str, payload: dict) -> dict:
    """Size/count summary of one v2 store payload without rebuilding it."""
    posting_ids = payload.get("posting_ids", [])
    byte_fields = [
        payload.get("path_lengths"),
        payload.get("nodes"),
        payload.get("attrs"),
        payload.get("pids"),
        payload.get("moe"),
        payload.get("prs"),
        payload.get("sim_values"),
    ]
    store_bytes = sum(len(raw) for raw in byte_fields if raw is not None)
    store_bytes += sum(len(raw) for raw in posting_ids)
    store_bytes += sum(len(raw) for raw in payload.get("posting_sims", []))
    return {
        "name": name,
        "num_paths": payload.get("num_paths"),
        "num_postings": sum(
            len(raw) // _ID_ITEMSIZE for raw in posting_ids
        ),
        "store_bytes": store_bytes,
    }


def describe_index_file(path: Union[str, Path]) -> dict:
    """Cheap structural summary of an index file for ``repro stats``.

    Returns ``{"file_bytes", "version", "kind", "num_shards", "d",
    "num_entries", "stores": [{"name", "num_paths", "num_postings",
    "store_bytes"}, ...]}`` — reading only the header for v3 files and
    the envelope (no store reconstruction) for v1/v2, so it works on
    sharded bundles the full loader would spend real time assembling.
    """
    path = Path(path)
    if not path.exists():
        raise PathIndexError(f"no such index file: {str(path)!r}")
    file_bytes = path.stat().st_size
    if _is_v3_file(path):
        reader = MappedIndexReader(path)
        header = reader.header
        stores = []
        for i, meta in enumerate(header.get("stores", [])):
            prefix = meta["prefix"]
            stores.append(
                {
                    "name": "base" if i == 0 else f"shard {i - 1}",
                    "num_paths": meta["num_paths"],
                    "num_postings": meta["num_postings"],
                    "store_bytes": sum(
                        nbytes
                        for name, (_offset, nbytes) in
                        reader.sections.items()
                        if name.startswith(prefix)
                    ),
                }
            )
        return {
            "file_bytes": file_bytes,
            "version": 3,
            "kind": header.get("kind", "single"),
            "num_shards": header.get("num_shards", 0),
            "generation": header.get("generation", 0),
            "d": header.get("d"),
            "num_entries": header.get("num_entries"),
            "stores": stores,
        }
    envelope = _read_envelope(path)
    version = envelope.get("version")
    if version == 1:
        payload = envelope.get("payload")
        d = None
        if isinstance(payload, PathIndexes):
            d = payload.__dict__.get("d")
        return {
            "file_bytes": file_bytes,
            "version": 1,
            "kind": "single",
            "num_shards": 0,
            "d": d,
            "num_entries": envelope.get("num_entries"),
            "stores": [],
        }
    stores = [_v2_store_summary("base", envelope["store"])]
    shard_payloads = envelope.get("shard_stores") or []
    for i, payload in enumerate(shard_payloads):
        stores.append(_v2_store_summary(f"shard {i}", payload))
    return {
        "file_bytes": file_bytes,
        "version": 2,
        "kind": envelope.get("kind", "single"),
        "num_shards": envelope.get("num_shards", 0),
        "d": envelope.get("d"),
        "num_entries": envelope.get("num_entries"),
        "stores": stores,
    }
