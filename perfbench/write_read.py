"""``write-read``: writes into the delta overlay, the reads after them,
and compaction, on a copy of the mapped v3 file.

Like every workload, the run measures the cold first answer in fresh
forked children that each do ``load_indexes`` plus one
``SearchService.search`` (``run.py``).  Then it runs cycles: each cycle
is a run of writes, each write followed by a few Zipf reads, and ends
with ``SearchService.compact``.
Writes are ``add_entity`` with texts from the workload's vocabulary;
every fourth write is an ``add_relationship``.  Cold open, the overlay,
version-bump invalidation, the lazy query/bound-column rebuild and
compaction do most of the work here.  The answers after each cycle and
after each compaction are checked against the oracle's heap twin, which
received the same writes.
"""

from __future__ import annotations

import gc
import random
import shutil
import time

from repro.datasets.queries import zipfian_requests
from repro.index.mmapstore import MappedPostingStore
from repro.index.serialize import load_indexes
from repro.search.plan import execute_plan, plan_search
from repro.search.service import SearchService

from core import (
    DELTA_LINK,
    DELTA_TYPE,
    K,
    POOL_SEED,
    GcPauses,
    Outcome,
    Speed,
    apply_write,
    fingerprint,
    log,
    median,
    peak_rss_mb,
    sampled,
    summary,
)
from probes import (
    build_context,
    check,
    cold_columns_ms,
    compare,
    render,
    search_counts,
)
from spans import NullTracer, rename

#: Distinct queries per keyword count in the read pool (about 400).
POOL_PER_SIZE = 100
#: A fixed amount of work rather than ``--seconds``: the heap twin pays
#: an O(index) finalize per write (about 2.5 s at 10k entities), which
#: caps how many writes a run can check.
CYCLES = 2
WRITES_PER_CYCLE = 2
#: Every n-th write adds a relationship instead of an entity: with four
#: writes a run, the last one.
RELATIONSHIP_EVERY = 4
#: Zipf reads after each write; the first is the read after the write.
#: Reads cost milliseconds next to the twin's finalize per write, so a
#: run reads as much as it can afford.
READS_PER_WRITE = 100
#: Zipf exponent of the reads.  Every write flushes the result cache, so
#: a read hits it only when its query repeats within the write's block;
#: at 0.3 about 9% do (30% at 0.9), so the median read is a miss rather
#: than the edge between 0.1 ms hits and misses.
READ_ALPHA = 0.3
#: Queries checked against the heap twin after each cycle and after
#: each compaction: a seeded sample of those the cycle read, plus the
#: queries that reach what the cycle wrote (:func:`_touched`).
CHECKED_PER_CYCLE = 10


def _writes(pool, num_nodes):
    """Endless write stream over the pre-write node range.  Like the
    pool, the writes are part of the workload: ``--seed`` orders the
    reads."""
    rng = random.Random(POOL_SEED)
    words = sorted({word for query in pool for word in query})
    count = 0
    while True:
        count += 1
        if count % RELATIONSHIP_EVERY == 0:
            yield ("edge", rng.randrange(num_nodes), rng.randrange(num_nodes))
        else:
            yield ("entity", rng.choice(words))


def _touched(graph, ops):
    """Queries whose answers the writes ``ops`` change: for a new entity,
    its word alone and with its type's word; for a new relationship, the
    link's word with a word of either endpoint (the new paths run from
    the source over the link to the target)."""
    type_word = DELTA_TYPE.split("_")[0]
    link_word = DELTA_LINK.split("_")[-1]
    queries = []
    for op in ops:
        if op[0] == "entity":
            queries += [(op[1],), (op[1], type_word)]
            continue
        for node in op[1:]:
            words = graph.node_text(node).split()
            if words:
                queries.append((link_word, words[0]))
    return list(dict.fromkeys(queries))


def _read_blocks(pool, seed):
    """The reads after each write: a Zipf sample of the pool drawn once
    with ``POOL_SEED`` (one block per write), each block in an order
    drawn from ``seed``.  The result cache is flushed by every write, so
    which reads miss does not depend on the order, and every seed reads
    the same mix."""
    reads = zipfian_requests(
        pool, CYCLES * WRITES_PER_CYCLE * READS_PER_WRITE, alpha=READ_ALPHA,
        seed=POOL_SEED,
    )
    rng = random.Random(seed)
    for start in range(0, len(reads), READS_PER_WRITE):
        block = reads[start:start + READS_PER_WRITE]
        rng.shuffle(block)
        yield block


def run(ctx, outcome: Outcome) -> None:
    pool = ctx.oracle.query_pool(POOL_PER_SIZE)
    num_nodes = ctx.setup_timings[0]["num_nodes"]
    path = ctx.work_dir / "wiki-rw.v3"
    shutil.copyfile(ctx.index_path, path)
    blocks = list(_read_blocks(pool, ctx.seed))
    reads = iter(blocks)
    writes = _writes(pool, num_nodes)
    tracer = ctx.tracer

    def warm_up():
        # Counted in ``setup_s`` (the cold first answer is
        # ``first_answer_ms``): the store's column builds, then the
        # finalized views of every word the run reads, so that the timed
        # reads pay what writes and compactions cost them rather than
        # first touches that land wherever ``--seed`` puts each word's
        # first read.
        indexes = load_indexes(path)
        if ctx.trace:
            outcome.report["index.store.cold_columns_ms"] = (
                cold_columns_ms(indexes, pool[0])
            )
        else:
            SearchService(indexes).search(list(pool[0]), k=K)
        for query in dict.fromkeys(q for block in blocks for q in block):
            build_context(indexes, plan_search(indexes, list(query), k=K))
        return indexes

    thawed_before = MappedPostingStore.backed_stores_thawed
    indexes, wall, reference = sampled(warm_up)
    if not ctx.trace:
        ctx.add_extra_setup(wall, reference)
    service = SearchService(indexes)
    service.index_path = path
    words_before = MappedPostingStore.words_materialized

    # Operation times at the reference speed (``core.Speed``), and every
    # operation's wall time under "wall" ("wall_read" for the reads).
    samples = {
        "write": [], "entity": [], "edge": [], "read": [],
        "read_after_write": [], "compact": [], "post_write_columns": [],
        "overlay_words": [], "overlay_postings": [], "wall": [],
        "wall_read": [],
    }
    speed = Speed()
    cycles = 0
    operations = 0
    spent = 0.0
    checked_touched = 0
    changed_touched = 0
    log("write-read: cycles")
    gc.collect()
    rng = random.Random(ctx.seed)
    pauses = GcPauses()
    while cycles < CYCLES:
        ctx.interlude()
        applied = [next(writes) for _ in range(WRITES_PER_CYCLE)]
        touched = _touched(indexes.graph, applied)
        # Answers before the writes, from a throwaway service so that the
        # measured one's caches and counters see only the timed calls.
        before = _digests(SearchService(indexes), touched)
        # Collected now, so that its snapshot does not keep the mapped
        # generation the compaction replaces alive into the timed region.
        gc.collect()
        with pauses:
            ops, cycle_spent, queries = _writes_and_reads(
                service, indexes, reads, applied, tracer, samples, speed,
                ctx.trace,
            )
        log(f"write-read: cycle {cycles} timed, checking")
        queries = rng.sample(queries, min(CHECKED_PER_CYCLE, len(queries)))
        queries = list(dict.fromkeys(touched + queries))
        # The heap twin takes the same writes and answers what the cycle
        # read and what it wrote; the mapped answers are checked before
        # and after the compaction (a compaction moves no answer).
        if ctx.oracle.write(applied) != indexes.graph.num_nodes:
            outcome.problems.append("the heap twin and the mapped bundle "
                                    "disagree on the node count")
        requests = [(query, "pattern_enum") for query in queries]
        digests = _digests(service, queries)
        expected = check(ctx.oracle, outcome, requests, digests)
        # A lost write would leave every answer it reaches as it was.
        changed = sum(
            1 for old, new in zip(before, digests) if old != new
        )
        checked_touched += len(touched)
        changed_touched += changed
        if not changed:
            outcome.failed += 1
            outcome.problems.append(
                f"cycle {cycles}: no answer reaching its writes changed "
                f"({len(touched)} checked): the writes were lost"
            )
        log(f"write-read: cycle {cycles} checked, compacting")
        # The checks' garbage goes before the compaction is timed.
        gc.collect()
        samples["overlay_words"].append(indexes.store.overlay_words)
        samples["overlay_postings"].append(indexes.store.overlay_postings)
        with tracer.span("compact.request"):
            with tracer.span("index.serialize.compact"):
                started = time.perf_counter()
                service.compact()
                elapsed = time.perf_counter() - started
        samples["wall"].append(elapsed * 1000.0)
        elapsed = speed.reference(elapsed * 1000.0) / 1000.0
        samples["compact"].append(elapsed * 1000.0)
        compare(outcome, requests, _digests(service, queries), expected)
        cycles += 1
        operations += ops + 1
        spent += cycle_spent + elapsed

    outcome.attempted = operations
    outcome.report.update(pauses.report())
    plain = summary(samples["read"])
    after = summary(samples["read_after_write"])
    thawed = MappedPostingStore.backed_stores_thawed - thawed_before
    outcome.report.update({
        "cycles": cycles,
        "operations": operations,
        "write_touched_checked": checked_touched,
        "write_touched_changed": changed_touched,
        "timed_seconds": spent,
        "wall.timed_seconds": sum(samples["wall"]) / 1000.0,
        "wall.read_p50_ms": median(samples["wall_read"]),
        "wall.throughput_qps": operations / (sum(samples["wall"]) / 1000.0),
        "read_tail": plain["tail"],
        "write_p50_ms": median(samples["write"]),
        "write_samples": len(samples["write"]),
        "read_after_write_p50_ms": after["p50"],
        "read_after_write_tail": after["tail"],
        "compact_ms": median(samples["compact"]),
        "compact_samples": samples["compact"],
        "index.incremental.add_entity_ms": median(samples["entity"]),
        "index.incremental.add_relationship_ms": median(samples["edge"]),
        "index.incremental.first_write_ms": samples["write"][0],
        "index.delta.overlay_words": median(samples["overlay_words"]),
        "index.delta.overlay_postings": median(samples["overlay_postings"]),
        "index.mmapstore.stores_thawed": thawed,
        "index.mmapstore.words_materialized": (
            MappedPostingStore.words_materialized - words_before
        ),
        "search.service.invalidations": service.stats.invalidations,
        "search.service.result_hit_ratio": service.stats.result_hit_rate(),
        "search.service.context_hit_ratio": (
            service.stats.context_hit_rate()
        ),
    })
    if ctx.trace:
        outcome.report["index.store.post_write_columns_ms"] = median(
            samples["post_write_columns"]
        )
        _overhead_pass(indexes, pool, tracer, outcome)
        return
    outcome.metric("read_p50_ms", plain["p50"], "ms")
    outcome.metric("read_tail_ms", plain["tail"]["value"], "ms")
    outcome.metric("throughput_qps", operations / spent, "1/s")
    outcome.metric("peak_rss_mb", peak_rss_mb(), "MB")


def _post_write_probe(indexes, query) -> float:
    """First plan + execution right after a write minus a repeat."""
    timings = []
    for _ in range(2):
        started = time.perf_counter()
        plan = plan_search(indexes, list(query), k=K)
        execute_plan(indexes, plan, context=build_context(indexes, plan))
        timings.append((time.perf_counter() - started) * 1000.0)
    return timings[0] - timings[1]


def _digests(service, queries):
    return [
        fingerprint(service.search(list(query), k=K)) for query in queries
    ]


def _writes_and_reads(service, indexes, reads, ops, tracer, samples,
                      speed, probe):
    """A cycle's writes ``ops``, each followed by its block of Zipf
    reads.

    Returns the operations done, the seconds they took at the reference
    speed and the distinct queries read."""
    operations = 0
    spent = 0.0
    seen = {}
    for op in ops:
        kind = "add_entity" if op[0] == "entity" else "add_relationship"
        with tracer.span("write.request"):
            with tracer.span(f"index.incremental.{kind}"):
                started = time.perf_counter()
                apply_write(indexes, op)
                elapsed = time.perf_counter() - started
        samples["wall"].append(elapsed * 1000.0)
        elapsed = speed.reference(elapsed * 1000.0) / 1000.0
        samples["write"].append(elapsed * 1000.0)
        samples[op[0]].append(elapsed * 1000.0)
        spent += elapsed
        operations += 1
        block = next(reads)
        if probe:
            samples["post_write_columns"].append(
                _post_write_probe(indexes, block[0])
            )
        for position, query in enumerate(block):
            seen[query] = None
            with tracer.span("read.request"):
                started = time.perf_counter()
                with tracer.span("search.plan.plan"):
                    plan = service.plan(list(query), k=K)
                with tracer.span("search.service.search") as span:
                    result = service.search(plan=plan)
                elapsed = time.perf_counter() - started
            if result.stats.from_result_cache:
                rename(span, "search.service.hit")
            samples["wall"].append(elapsed * 1000.0)
            key = "read_after_write" if position == 0 else "read"
            if position:
                samples["wall_read"].append(elapsed * 1000.0)
            elapsed = speed.reference(elapsed * 1000.0) / 1000.0
            samples[key].append(elapsed * 1000.0)
            spent += elapsed
            operations += 1
    return operations, spent, list(seen)


def _overhead_pass(indexes, pool, tracer, outcome) -> None:
    """Tracing overhead, plus context, execute and render layer times,
    on the final state: each pool query through plan / context /
    execute, once untraced and once traced, alternating which is first."""
    null = NullTracer()
    ratios = []
    results = []
    for position, query in enumerate(pool):
        order = (null, tracer) if position % 2 == 0 else (tracer, null)
        spent = {}
        for probe in order:
            started = time.perf_counter()
            with probe.span("read.request"):
                with probe.span("search.plan.plan"):
                    plan = plan_search(indexes, list(query), k=K)
                with probe.span("search.context.context"):
                    context = build_context(indexes, plan)
                with probe.span("search.pattern_enum.execute"):
                    result = execute_plan(indexes, plan, context=context)
            spent[probe] = time.perf_counter() - started
        results.append(((query, "pattern_enum"), result))
        ratios.append(spent[tracer] / spent[null] - 1.0)
    outcome.report["trace.overhead_ratio"] = median(ratios)
    outcome.report.update(search_counts(results, ("pattern_enum",)))
    render([result for _request, result in results], indexes.graph, tracer)
