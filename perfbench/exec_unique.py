"""``exec-unique``: distinct plans through ``SearchService.search``.

One in-process caller in a closed loop sends each distinct seeded 1-4
keyword query once per algorithm (``pattern_enum`` and exact
``linear_topk``) to a :class:`~repro.search.service.SearchService` over
the mapped v3 bundle, in passes of the whole pool, each pass to a fresh
service.  No plan repeats within a service, so the result tier never
hits; there is no HTTP and no rendering in the timed loop.  Plan, context,
bounds and enumeration do all the work: the paper's per-query time, and
what every long-tail request pays.
"""

from __future__ import annotations

import gc
import random
import time

from repro.index.mmapstore import MappedPostingStore
from repro.index.serialize import load_indexes
from repro.search.plan import execute_plan, plan_search
from repro.search.service import SearchService

from core import (
    K,
    SEGMENTS,
    GcPauses,
    Outcome,
    Speed,
    sampled,
    fingerprint,
    log,
    median,
    peak_rss_mb,
    summary,
)
from probes import (
    build_context,
    check,
    cold_columns_ms,
    render,
    search_counts,
)
from spans import NullTracer

ALGORITHMS = ("pattern_enum", "linear_topk")
#: Distinct queries per keyword count (1-4): about 340 queries, 680
#: plans a pass.
POOL_PER_SIZE = 85
#: ``peak_rss_mb`` is read after this many plans, so that a faster
#: program, which gets through more of the stream, touches the same
#: words when its memory is compared.
RSS_PLANS = 300
#: Queries replayed by the traced run (fixed, so work counts repeat).
TRACE_QUERIES = 100


def _plans(pool):
    for query in pool:
        for algorithm in ALGORITHMS:
            yield query, algorithm


def run(ctx, outcome: Outcome) -> None:
    pool = ctx.oracle.query_pool(POOL_PER_SIZE)
    warm_query, stream = pool[-1], pool[:-1]
    rng = random.Random(ctx.seed)
    if ctx.trace:
        rng.shuffle(stream)
        return _run_traced(ctx, outcome, warm_query, stream)

    log("exec-unique: warm-up")

    def warm_up():
        # Counted in ``setup_s``: the store's one-time column builds (one
        # query outside the stream through the service), then every pool
        # word's finalized views (a plan and context per query).  The
        # timed passes then measure what a warm server pays per plan, in
        # any order.
        indexes = load_indexes(ctx.index_path)
        service = SearchService(indexes)
        for algorithm in ALGORITHMS:
            service.search(list(warm_query), k=K, algorithm=algorithm)
        for query in stream:
            build_context(indexes, plan_search(indexes, list(query), k=K))
        return indexes

    indexes, wall, reference = sampled(warm_up)
    ctx.add_extra_setup(wall, reference)
    words_before = MappedPostingStore.words_materialized

    log("exec-unique: timed passes")
    gc.collect()
    # Closed loop.  Each pass sends every plan once, in an order drawn
    # from ``--seed``, to a fresh service: no plan repeats within a
    # service, so the result tier never hits.  Passes repeat until
    # ``--seconds`` of plan time, split into ``SEGMENTS`` with the
    # interludes between them.  Each answer is fingerprinted right after
    # its timed call, so the run keeps digests, not results; the
    # calibration loop runs next to the timed calls (``Speed``).
    segment = ctx.seconds / SEGMENTS
    next_interlude = segment
    latencies = []
    walls = []
    speed = Speed()
    digests = {}
    mismatched = []
    spent = 0.0
    passes = 0
    rss_mb = None
    result_hits = 0
    context_hits = []
    with GcPauses() as pauses:
        while spent < ctx.seconds:
            order = list(stream)
            rng.shuffle(order)
            service = SearchService(indexes)
            passes += 1
            for plan in _plans(order):
                if spent >= ctx.seconds:
                    break
                if spent >= next_interlude:
                    ctx.interlude()
                    next_interlude += segment
                query, algorithm = plan
                t0 = time.perf_counter()
                result = service.search(list(query), k=K,
                                        algorithm=algorithm)
                elapsed = time.perf_counter() - t0
                spent += elapsed
                walls.append(elapsed * 1000.0)
                latencies.append(speed.reference(elapsed * 1000.0))
                digest = fingerprint(result)
                if digests.setdefault(plan, digest) != digest:
                    mismatched.append(plan)
                if len(latencies) == RSS_PLANS:
                    rss_mb = peak_rss_mb()
            result_hits += service.stats.result_hits
            context_hits.append(service.stats.context_hit_rate())

    outcome.report.update(pauses.report())
    outcome.attempted = len(latencies)
    stats = summary(latencies)
    exec_qps = len(latencies) / (sum(latencies) / 1000.0)
    outcome.metric("read_p50_ms", stats["p50"], "ms")
    outcome.metric("read_tail_ms", stats["tail"]["value"], "ms")
    outcome.metric("throughput_qps", exec_qps, "1/s")
    outcome.metric(
        "peak_rss_mb", rss_mb if rss_mb is not None else peak_rss_mb(), "MB"
    )
    outcome.report.update({
        "exec_qps": exec_qps,
        "wall.read_p50_ms": median(walls),
        "wall.throughput_qps": len(walls) / spent,
        "plans": len(latencies),
        "passes": passes,
        "distinct_plans": len(digests),
        "read_tail": stats["tail"],
        "result_hits": result_hits,
        "context_hit_ratio": median(context_hits),
        "words_materialized_timed": (
            MappedPostingStore.words_materialized - words_before
        ),
    })
    if result_hits:
        outcome.problems.append("a plan repeated: the result tier hit")
    if mismatched:
        outcome.failed += len(mismatched)
        outcome.problems.append(
            f"{len(mismatched)} plans answered differently in a later "
            f"pass, first: {mismatched[0]!r}"
        )
    log(f"exec-unique: oracle check of {len(digests)} plans")
    check(ctx.oracle, outcome, list(digests), list(digests.values()))


def _run_traced(ctx, outcome: Outcome, warm_query, stream) -> None:
    tracer = ctx.tracer
    queries = stream[:TRACE_QUERIES]
    words_before = MappedPostingStore.words_materialized
    with tracer.span("index.serialize.load"):
        indexes = load_indexes(ctx.index_path)
    outcome.report["index.store.cold_columns_ms"] = cold_columns_ms(
        indexes, warm_query
    )

    # Pass 1: the untraced serving path, for ServiceStats and SearchStats
    # counts over a fixed query set (they repeat exactly per seed).
    service = SearchService(indexes)
    results = []
    with GcPauses() as pauses:
        for query, algorithm in _plans(queries):
            results.append((
                (query, algorithm),
                service.search(list(query), k=K, algorithm=algorithm),
            ))
    outcome.report.update(pauses.report())
    counts = search_counts(results, ALGORITHMS)
    outcome.report.update(counts)
    outcome.report["search.service.context_hit_ratio"] = (
        service.stats.context_hit_rate()
    )
    outcome.report["search.service.result_hit_ratio"] = (
        service.stats.result_hit_rate()
    )

    # Pass 2: the same plans through the public plan / context / execute
    # functions, each query once untraced and once traced, alternating
    # which goes first, so neither side is favoured by warm pages.
    null = NullTracer()
    ratios = []
    for position, query in enumerate(queries):
        order = (null, tracer) if position % 2 == 0 else (tracer, null)
        spent = {}
        for probe in order:
            t0 = time.perf_counter()
            _replay_query(indexes, query, probe)
            spent[probe] = time.perf_counter() - t0
        ratios.append(spent[tracer] / spent[null] - 1.0)
    outcome.report["trace.overhead_ratio"] = median(ratios)
    outcome.report["index.mmapstore.words_materialized"] = (
        MappedPostingStore.words_materialized - words_before
    )
    outcome.attempted = len(results)
    render([result for _request, result in results], indexes.graph, tracer)
    check(
        ctx.oracle, outcome, [request for request, _r in results],
        [fingerprint(result) for _request, result in results],
    )


def _replay_query(indexes, query, tracer) -> None:
    context = None
    for algorithm in ALGORITHMS:
        with tracer.span("exec.request"):
            with tracer.span("search.plan.plan"):
                plan = plan_search(indexes, list(query), k=K,
                                   algorithm=algorithm)
            if context is None:
                with tracer.span("search.context.context"):
                    context = build_context(indexes, plan)
            with tracer.span(f"search.{algorithm}.execute"):
                execute_plan(indexes, plan, context=context)

