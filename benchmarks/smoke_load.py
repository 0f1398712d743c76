"""BENCH_8 / BENCH_9: HTTP serving tier — latency under open-loop load.

Default mode measures ``repro.serve.http`` end to end on the wiki synthetic (d=3,
BENCH_4's heavy-query workload) with the open-loop generator from
``benchmarks/loadgen.py`` (fixed arrival rate, latency measured from the
*scheduled* arrival, so queueing is charged to the server):

* **serial baseline** — the pre-HTTP serving story: the ``serve`` REPL
  loop (search + ASCII table rendering) replaying the Zipf stream on one
  thread;
* **coalescing burst** — 16 simultaneous identical cold requests against
  a one-worker server: one execution, every response's answers
  bit-identical, ``X-Coalesced`` on the followers;
* **sustained phase** — the Zipf stream (writer ticks every 250
  requests) at ``sustained_ratio``× the baseline rate: achieved QPS,
  p50/p95/p99, coalescing count, and a **divergence gate** — every 200
  response is fingerprinted (scores, pattern keys, row counts; floats
  survive the JSON round trip exactly) against a cold single-shot
  ``TableAnswerEngine`` run;
* **overload phase** — a one-worker, ``max_queue=4`` server at 2× its
  measured capacity over distinct cold plans: the server must shed
  (503s + ``requests_shed``) while the p99 of *admitted* requests stays
  bounded by queue math instead of growing with offered load;
* **mutation phase** — the same bundle saved + re-loaded memory-mapped,
  then an ``add_entity`` stream lands in the delta overlay while HTTP
  traffic flows: served answers checked against a cold engine over the
  *mutated* snapshot, compaction re-maps a fresh generation without
  moving an answer, and ``backed_stores_thawed`` must stay at zero;
* **/metrics gate** — the scrape must expose QPS, latency quantiles,
  queue depth, shed/coalesced/expired counts, cache tiers, and search
  work counters.

Emits ``BENCH_8.json``; exit 1 if any gate fails.  CI runs ``smoke``::

    PYTHONPATH=src python benchmarks/smoke_load.py --out BENCH_8.json

``--fork-pool`` instead runs the **BENCH_9** suite for the fork-pool
execution backend (``repro.serve.pool``) over a *memory-mapped* v3
bundle (save → load, so workers inherit shard pages copy-free):

* **threaded flood** — distinct cold ``(query, k)`` plans through the
  stock thread-bridge server at W workers: the GIL-bound reference QPS;
* **fork-pool flood** — the identical request set through
  ``PooledSearchService`` at W processes: QPS plus a per-response
  fingerprint check against the cold engine *and* an ``include_rows``
  body comparison against the threaded server (portable PathEntry rows
  cross the pipe bit-identically);
* **fault injection** — ``arm_exit`` (deterministic mid-request death)
  + SIGKILL against live HTTP traffic: every response still 200 and
  bit-identical via inline failover, ``worker_failovers`` counted,
  the pool healed to W workers, and graceful drain completes with a
  freshly killed worker left in the pool;
* **sharded HTTP** — ``--shards``-composed backends under concurrent
  load: the in-process sharded service and the pooled+sharded service
  both divergence-checked, shard counters visible in ``/metrics``;
* **mutation under the pool** — an ``add_entity`` stream into the
  parent's delta overlay forces a version-bumped pool rebuild (workers
  inherit the overlay copy-on-write), then compaction re-maps a fresh
  generation and the next rebuild forks from the re-mapped pages;
  answers checked against a cold engine over the mutated snapshot;
* **gates** — zero divergence anywhere, ``backed_stores_thawed == 0``
  (serving never copies a mapped store), pool metric families exposed,
  and a **core-aware speedup floor**: fork QPS >= 2x threaded at >= 4
  cores (the CI shape), >= 1.3x at 2-3 cores, recorded-but-waived on a
  single core where no parallel speedup is physically available.

Emits ``BENCH_9.json``; exit 1 if any gate fails::

    PYTHONPATH=src python benchmarks/smoke_load.py --fork-pool --out BENCH_9.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
import time

from repro.cli import _print_result
from repro.datasets.queries import zipfian_requests
from repro.datasets.wiki import WikiConfig, generate_wiki_graph
from repro.index.builder import build_indexes
from repro.search.engine import TableAnswerEngine
from repro.search.service import SearchService
from repro.serve import start_http_server
from repro.serve.workload import WorkloadRequest, zipf_workload

from loadgen import fetch_metrics, run_open_loop
from smoke_serving import fingerprint, heavy_workload

PROFILES = {
    "smoke": {
        "wiki": WikiConfig(
            num_entities=120, num_types=8, num_attrs=12,
            vocabulary_size=60, seed=5,
        ),
        "min_subtrees": 64,
        "max_queries": 8,
        "baseline_requests": 120,
        "sustained_requests": 2000,
        "overload_seconds": 2.0,
    },
    "full": {
        "wiki": WikiConfig(
            num_entities=800, num_types=24, num_attrs=36,
            vocabulary_size=240, seed=23,
        ),
        "min_subtrees": 4096,
        "max_queries": 10,
        "baseline_requests": 200,
        "sustained_requests": 4000,
        "overload_seconds": 3.0,
    },
}

#: Offered sustained rate as a multiple of the serial baseline; the gate
#: requires achieved >= REQUIRED_RATIO x baseline.  Calibrated headroom:
#: the tier floods at ~3.8x baseline on the smoke profile, so 3.25x
#: offered holds a stable queue while clearing the 3x acceptance floor.
SUSTAINED_RATIO = 3.25
REQUIRED_RATIO = 3.0
#: Sustained-phase SLO on answered requests.
SLO_P95_MS = 200.0
#: Overload server shape: one executor, four admission slots.
OVERLOAD_QUEUE = 4
#: Admitted p99 under 2x-capacity overload must stay within queue math:
#: (queue depth + 2) service times, with 3x slack for GIL contention
#: between the in-process clients and the server, floored absolutely.
OVERLOAD_P99_SLACK = 3.0
OVERLOAD_P99_FLOOR_MS = 250.0


def http_fingerprint(body: bytes):
    payload = json.loads(body)
    return (
        [answer["score"] for answer in payload["answers"]],
        [tuple(answer["pattern_key"]) for answer in payload["answers"]],
        [answer["num_subtrees"] for answer in payload["answers"]],
    )


def check_responses(stage, observations, oracle, divergences):
    """Fingerprint every 200 /search response against the cold oracle."""
    checked = 0
    for obs in observations:
        if obs.status != 200 or obs.body is None:
            continue
        if not obs.path.startswith("/search"):
            continue
        payload = json.loads(obs.body)
        query = payload["query"]
        if http_fingerprint(obs.body) != oracle[query]:
            divergences.append({"stage": stage, "query": query})
        checked += 1
    return checked


def run(profile_name: str, k: int, out_path: str) -> int:
    profile = PROFILES[profile_name]
    graph = generate_wiki_graph(profile["wiki"])
    indexes = build_indexes(graph, d=3)
    queries = heavy_workload(
        indexes, profile["min_subtrees"], profile["max_queries"]
    )
    if not queries:
        print("error: no heavy queries in the workload", file=sys.stderr)
        return 1
    query_texts = [" ".join(query) for query in queries]

    # The no-cache oracle: cold engine on a pinned snapshot, keyed by the
    # query text the HTTP responses echo back.
    snap = indexes.snapshot()
    engine = TableAnswerEngine(snap.graph, indexes=snap)
    oracle = {}
    cold_seconds = {}
    for query, text in zip(queries, query_texts):
        started = time.perf_counter()
        result = engine.search(query, k=k)
        cold_seconds[text] = time.perf_counter() - started
        oracle[text] = fingerprint(result)
    divergences = []

    # ---- serial baseline: the serve REPL loop ------------------------
    baseline_stream = zipfian_requests(
        queries, profile["baseline_requests"], alpha=0.9, seed=11
    )
    service = SearchService(indexes)
    sink = io.StringIO()
    started = time.perf_counter()
    for query in baseline_stream:
        result = service.search(query, k=k)
        with contextlib.redirect_stdout(sink):
            _print_result(service, result, 10, False)
    baseline_seconds = time.perf_counter() - started
    baseline_qps = len(baseline_stream) / baseline_seconds
    service.close()
    print(
        f"serial REPL baseline: {baseline_qps:.0f} QPS "
        f"({len(baseline_stream)} requests in {baseline_seconds:.3f}s)"
    )

    # ---- coalescing burst: N waiters, one execution ------------------
    # One worker so the leader occupies the executor while 15 duplicates
    # arrive; the heaviest query maximizes the coalescing window.
    heaviest = max(query_texts, key=lambda text: cold_seconds[text])
    server = start_http_server(
        SearchService(indexes), max_queue=64, workers=1
    )
    burst = run_open_loop(
        server.address,
        [WorkloadRequest(query=heaviest, k=k)] * 16,
        rate=1e9,
        clients=16,
        capture_bodies=True,
    )
    burst_stats = server.server.service.stats
    burst_executions = burst_stats.result_misses
    burst_coalesced = sum(1 for obs in burst.observations if obs.coalesced)
    check_responses("burst", burst.observations, oracle, divergences)
    server.stop()
    print(
        f"coalescing burst: 16 duplicates -> {burst_executions} "
        f"executions, {burst_coalesced} coalesced"
    )

    # ---- sustained phase: Zipf mix at SUSTAINED_RATIO x baseline -----
    sustained_rate = SUSTAINED_RATIO * baseline_qps
    workload = zipf_workload(
        query_texts,
        profile["sustained_requests"],
        k=k,
        alpha=0.9,
        seed=17,
        invalidate_every=250,
    )
    server = start_http_server(
        SearchService(indexes), max_queue=256, workers=4
    )
    sustained = run_open_loop(
        server.address, workload, rate=sustained_rate, clients=8,
        capture_bodies=True,
    )
    sustained_summary = sustained.summary()
    checked = check_responses(
        "sustained", sustained.observations, oracle, divergences
    )
    metrics = fetch_metrics(server.address)
    server.stop()
    print(
        f"sustained: offered {sustained_rate:.0f}/s -> achieved "
        f"{sustained_summary['achieved_qps']:.0f} QPS "
        f"({sustained_summary['achieved_qps'] / baseline_qps:.2f}x "
        f"baseline), p95 "
        f"{sustained_summary['latency_200']['p95_ms']:.1f} ms, "
        f"{sustained_summary['coalesced']} coalesced, "
        f"{checked} responses checked"
    )

    # ---- overload phase: 2x capacity into a tiny admission queue -----
    # Distinct (query, k) pairs so every request is a cold plan: no
    # result-cache hits, no coalescing — admission control alone.
    pairs = [
        (text, 3 + j) for j in range(200) for text in query_texts
    ]
    random.Random(42).shuffle(pairs)
    def to_requests(chunk):
        return [
            WorkloadRequest(query=text, k=pair_k) for text, pair_k in chunk
        ]
    server = start_http_server(
        SearchService(indexes), max_queue=OVERLOAD_QUEUE, workers=1
    )
    flood = run_open_loop(
        server.address, to_requests(pairs[:40]), rate=1e9, clients=1
    )
    capacity_qps = flood.achieved_qps
    paced = run_open_loop(
        server.address,
        to_requests(pairs[40:80]),
        rate=max(capacity_qps / 2, 1.0),
        clients=2,
    )
    paced_p95_ms = paced.quantiles_ms()["p95_ms"]
    overload_count = min(
        int(2 * capacity_qps * profile["overload_seconds"]),
        len(pairs) - 80,
    )
    overload = run_open_loop(
        server.address,
        to_requests(pairs[80:80 + overload_count]),
        rate=2 * capacity_qps,
        clients=8,
    )
    server.stop()
    overload_summary = overload.summary()
    admitted_p99_ms = overload_summary["latency_200"]["p99_ms"]
    p99_bound_ms = max(
        OVERLOAD_P99_FLOOR_MS,
        OVERLOAD_P99_SLACK * (OVERLOAD_QUEUE + 2) * paced_p95_ms,
    )
    print(
        f"overload: capacity {capacity_qps:.0f}/s, offered "
        f"{2 * capacity_qps:.0f}/s -> {overload_summary['shed_503']} shed, "
        f"admitted p99 {admitted_p99_ms:.1f} ms "
        f"(bound {p99_bound_ms:.0f} ms)"
    )

    # ---- mutation phase: add_entity stream against a mapped bundle ---
    # The delta-overlay serving story: O(delta) writes land in the heap
    # overlay while HTTP traffic flows (never a wholesale thaw), and
    # compaction folds them into a fresh generation atomically re-mapped
    # under the serving lock — without moving a single answer.
    import os
    import tempfile

    from repro.index.incremental import add_entity
    from repro.index.mmapstore import MappedPostingStore
    from repro.index.serialize import save_indexes

    tmpdir = tempfile.mkdtemp(prefix="bench8-")
    index_path = os.path.join(tmpdir, "wiki.repro")
    save_indexes(indexes, index_path)
    mut_service = SearchService.from_file(index_path)
    mapped = mut_service.indexes
    thawed_before = MappedPostingStore.backed_stores_thawed
    server = start_http_server(mut_service, max_queue=256, workers=2)
    mut_requests = [
        WorkloadRequest(query=text, k=k) for text in query_texts
    ]

    # Pre-mutation: the mapped bundle serves the heap bundle's answers.
    pre = run_open_loop(
        server.address, mut_requests, rate=1e9, clients=4,
        capture_bodies=True,
    )
    check_responses("mutation-pre", pre.observations, oracle, divergences)

    # Writer stream: new entities named after workload words, absorbed
    # by the overlay and surfaced through the invalidation protocol.
    for _ in range(2):
        for text in query_texts:
            add_entity(mapped, "delta_type", text.split()[0])
        mut_service.invalidate()
    overlay_postings = mapped.store.overlay_postings

    # Post-mutation oracle: a cold engine over the *mutated* snapshot —
    # served answers must track the writes, not the build-time file.
    mut_snap = mapped.snapshot()
    mut_engine = TableAnswerEngine(mut_snap.graph, indexes=mut_snap)
    post_oracle = {
        text: fingerprint(mut_engine.search(query, k=k))
        for query, text in zip(queries, query_texts)
    }
    post = run_open_loop(
        server.address, mut_requests, rate=1e9, clients=4,
        capture_bodies=True,
    )
    check_responses(
        "mutation-post", post.observations, post_oracle, divergences
    )

    # Compact, then read through the fresh generation at a cold k (the
    # result cache cannot answer it): parity against the same oracle
    # engine, which itself still reads the pre-compaction snapshot —
    # the old generation stays pinned for live readers.
    outcome = mut_service.compact()
    compacted_oracle = {
        text: fingerprint(mut_engine.search(query, k=k + 1))
        for query, text in zip(queries, query_texts)
    }
    compacted = run_open_loop(
        server.address,
        [WorkloadRequest(query=text, k=k + 1) for text in query_texts],
        rate=1e9,
        clients=4,
        capture_bodies=True,
    )
    check_responses(
        "mutation-compacted", compacted.observations, compacted_oracle,
        divergences,
    )
    server.stop()
    mutation_thawed = (
        MappedPostingStore.backed_stores_thawed - thawed_before
    )
    assert mutation_thawed == 0, (
        f"mutation phase thawed {mutation_thawed} mapped stores"
    )
    print(
        f"mutation: {2 * len(query_texts)} entities -> "
        f"{overlay_postings} overlay postings, compacted to generation "
        f"{outcome['generation']}, {mutation_thawed} thaws"
    )

    required_metrics = [
        "repro_http_qps",
        "repro_http_queue_depth",
        "repro_http_requests_shed_total",
        "repro_http_requests_coalesced_total",
        "repro_http_requests_expired_total",
        'repro_http_request_latency_seconds{quantile="0.99"}',
        'repro_cache_hits_total{tier="result"}',
        'repro_search_counter_total{counter="patterns_checked"}',
        "repro_service_searches_total",
        "repro_service_invalidations_total",
    ]
    missing_metrics = [
        name for name in required_metrics if name not in metrics
    ]

    acceptance = {
        "bit_identical_met": not divergences,
        "throughput_3x_met": (
            sustained_summary["achieved_qps"]
            >= REQUIRED_RATIO * baseline_qps
        ),
        "slo_p95_met": (
            sustained_summary["latency_200"]["p95_ms"] <= SLO_P95_MS
        ),
        "coalescing_met": (
            burst_coalesced > 0 and burst_executions == 1
        ),
        "shedding_met": overload_summary["shed_503"] > 0,
        "admitted_p99_bounded_met": admitted_p99_ms <= p99_bound_ms,
        "metrics_exposed_met": not missing_metrics,
        "no_transport_errors_met": (
            sustained_summary["transport_errors"] == 0
            and overload_summary["transport_errors"] == 0
        ),
        "mutation_no_thaw_met": mutation_thawed == 0,
        "mutation_compacted_met": (
            overlay_postings > 0
            and outcome["generation"] == 1
            and mapped.store.overlay_postings == 0
        ),
    }
    report = {
        "bench": "BENCH_8",
        "profile": profile_name,
        "k": k,
        "d": indexes.d,
        "num_entities": profile["wiki"].num_entities,
        "queries": query_texts,
        "baseline": {
            "qps": baseline_qps,
            "requests": len(baseline_stream),
            "seconds": baseline_seconds,
        },
        "burst": {
            "requests": 16,
            "executions": burst_executions,
            "coalesced": burst_coalesced,
        },
        "sustained": dict(
            sustained_summary,
            ratio_vs_baseline=(
                sustained_summary["achieved_qps"] / baseline_qps
            ),
            responses_checked=checked,
            slo_p95_ms=SLO_P95_MS,
        ),
        "overload": dict(
            overload_summary,
            capacity_qps=capacity_qps,
            paced_p95_ms=paced_p95_ms,
            max_queue=OVERLOAD_QUEUE,
            admitted_p99_bound_ms=p99_bound_ms,
        ),
        "mutation": {
            "entities_added": 2 * len(query_texts),
            "overlay_postings": overlay_postings,
            "generation": outcome["generation"],
            "backed_stores_thawed": mutation_thawed,
        },
        "metrics_missing": missing_metrics,
        "divergences": divergences,
        "acceptance": acceptance,
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"wrote {out_path}")

    failures = [name for name, ok in acceptance.items() if not ok]
    if failures:
        print(f"FAIL: {', '.join(failures)}", file=sys.stderr)
        if divergences:
            print(
                f"  {len(divergences)} served results diverged from the "
                "cold engine",
                file=sys.stderr,
            )
        return 1
    print("all gates passed: served answers identical to the cold engine")
    return 0


# --------------------------------------------------------------------------
# BENCH_9: the fork-pool execution backend
# --------------------------------------------------------------------------

#: Core-aware speedup floor for the fork flood vs the threaded flood at
#: equal worker count.  On >= 4 cores (the CI runner shape) the pool must
#: clear 2x; on 2-3 cores there is less parallelism to buy, so 1.3x; on a
#: single core no parallel speedup is physically available — the ratio is
#: recorded but the QPS gate is waived (divergence/thaw/failover gates
#: still apply).
def fork_speedup_floor(cores: int):
    if cores >= 4:
        return 2.0
    if cores >= 2:
        return 1.3
    return None


def _http_get(address: str, path: str, timeout: float = 30.0):
    import http.client

    host, _, port_text = address.partition(":")
    conn = http.client.HTTPConnection(host, int(port_text), timeout=timeout)
    conn.request("GET", path)
    response = conn.getresponse()
    body = response.read()
    conn.close()
    return response.status, body


def _body_minus_timing(body: bytes):
    payload = json.loads(body)
    payload.get("stats", {}).pop("elapsed_ms", None)
    return payload


def _check_pairs(stage, observations, oracle, divergences):
    """Fingerprint every 200 /search response against the cold oracle,
    keyed by the ``(query, k)`` pair the response echoes back."""
    checked = 0
    for obs in observations:
        if obs.status != 200 or obs.body is None:
            continue
        if not obs.path.startswith("/search"):
            continue
        payload = json.loads(obs.body)
        key = (payload["query"], payload["k"])
        if http_fingerprint(obs.body) != oracle[key]:
            divergences.append(
                {"stage": stage, "query": key[0], "k": key[1]}
            )
        checked += 1
    return checked


def run_fork(profile_name: str, k: int, out_path: str) -> int:
    import os
    import tempfile

    from repro.index.mmapstore import MappedPostingStore
    from repro.index.serialize import load_indexes, save_indexes
    from repro.serve.pool import PooledSearchService

    profile = PROFILES[profile_name]
    cores = os.cpu_count() or 1
    workers = max(2, min(4, cores))
    shards = 2

    # The serving bundle is the *mapped* v3 layout — what production
    # serves and what the fork workers must inherit copy-free.
    graph = generate_wiki_graph(profile["wiki"])
    built = build_indexes(graph, d=3)
    tmpdir = tempfile.mkdtemp(prefix="bench9-")
    index_path = os.path.join(tmpdir, "wiki.repro")
    save_indexes(built, index_path)
    indexes = load_indexes(index_path)
    thawed_before = MappedPostingStore.backed_stores_thawed

    queries = heavy_workload(
        indexes, profile["min_subtrees"], profile["max_queries"]
    )
    if not queries:
        print("error: no heavy queries in the workload", file=sys.stderr)
        return 1
    query_texts = [" ".join(query) for query in queries]

    # Distinct cold (query, k) plans: no result-cache hits, no
    # coalescing — both backends execute every request.  The identical
    # shuffled set goes to both floods.
    k_variants = list(range(3, 3 + max(8, k)))
    pairs = [(text, kv) for kv in k_variants for text in query_texts]
    random.Random(9).shuffle(pairs)
    flood = [WorkloadRequest(query=text, k=kv) for text, kv in pairs]
    warmup = [
        WorkloadRequest(query=text, k=2) for text in query_texts[:workers]
    ]

    # Fault-phase plans use k values outside the flood so the parent's
    # result LRU cannot serve them — they *must* cross the wounded pool.
    fault_variants = [101, 102]
    snap = indexes.snapshot()
    engine = TableAnswerEngine(snap.graph, indexes=snap)
    oracle = {
        (text, kv): fingerprint(engine.search(query, k=kv))
        for query, text in zip(queries, query_texts)
        for kv in k_variants + fault_variants + [2]
    }
    divergences = []

    # ---- threaded flood: the GIL-bound reference ---------------------
    threaded_server = start_http_server(
        SearchService(indexes), max_queue=512, workers=workers
    )
    run_open_loop(threaded_server.address, warmup, rate=1e9, clients=2)
    threaded = run_open_loop(
        threaded_server.address, flood, rate=1e9, clients=workers * 2,
        capture_bodies=True,
    )
    threads_checked = _check_pairs(
        "threads", threaded.observations, oracle, divergences
    )
    threads_qps = threaded.achieved_qps
    print(
        f"threaded flood: {threads_qps:.0f} QPS at {workers} workers "
        f"({threads_checked} responses checked)"
    )

    # ---- fork-pool flood: same requests, W processes -----------------
    pooled = PooledSearchService(indexes, processes=workers)
    pooled_server = start_http_server(
        pooled, max_queue=512, workers=workers
    )
    run_open_loop(pooled_server.address, warmup, rate=1e9, clients=2)
    forked = run_open_loop(
        pooled_server.address, flood, rate=1e9, clients=workers * 2,
        capture_bodies=True,
    )
    fork_checked = _check_pairs(
        "fork-pool", forked.observations, oracle, divergences
    )
    processes_qps = forked.achieved_qps
    ratio = processes_qps / threads_qps if threads_qps else 0.0
    print(
        f"fork-pool flood: {processes_qps:.0f} QPS at {workers} processes "
        f"({ratio:.2f}x threaded, {fork_checked} responses checked)"
    )

    # ---- include_rows across the pipe: portable PathEntry rows -------
    rows_divergences = 0
    rows_path_template = "/search?q={q}&k=3&include_rows=1&max_rows=8"
    for text in query_texts:
        path = rows_path_template.format(q=text.replace(" ", "+"))
        status_a, body_a = _http_get(threaded_server.address, path)
        status_b, body_b = _http_get(pooled_server.address, path)
        if (status_a, status_b) != (200, 200) or (
            _body_minus_timing(body_a) != _body_minus_timing(body_b)
        ):
            rows_divergences += 1
            divergences.append({"stage": "rows", "query": text, "k": 3})
    print(
        f"include_rows: {len(query_texts)} bodies compared across "
        f"backends, {rows_divergences} diverged"
    )

    # ---- fault injection against live HTTP traffic -------------------
    # arm_exit makes worker 0 die *mid-request* (after receiving its
    # plan); SIGKILL takes the last worker outright.  Every request must
    # still answer 200 and bit-identical via inline failover, and the
    # pool must heal back to full strength.
    pooled.arm_exit(0)
    pooled.kill_worker(workers - 1)
    fault = run_open_loop(
        pooled_server.address,
        [
            WorkloadRequest(query=text, k=kv)
            for kv in fault_variants
            for text in query_texts
        ],
        rate=1e9,
        clients=2,
        capture_bodies=True,
    )
    fault_checked = _check_pairs(
        "failover", fault.observations, oracle, divergences
    )
    fault_all_200 = all(
        obs.status == 200 for obs in fault.observations
    )
    pool_metrics = fetch_metrics(pooled_server.address)
    failovers = pool_metrics.get("repro_worker_failovers_total", 0.0)
    healed = pooled._pool is not None and (
        pooled._pool.alive_workers() == workers
    )
    print(
        f"fault injection: {fault_checked} responses checked, "
        f"{failovers:.0f} failovers, pool healed={healed}"
    )
    required_pool_metrics = [
        'repro_execution_workers{backend="fork-pool"}',
        'repro_pool_worker_alive{worker="0"}',
        "repro_worker_failovers_total",
        "repro_pool_rebuilds_total",
        "repro_pool_free_slots",
    ]
    missing_metrics = [
        name for name in required_pool_metrics
        if name not in pool_metrics
    ]
    # Graceful drain with a freshly killed worker left in the pool:
    # completing stop() IS the assertion.
    pooled.kill_worker(0)
    pooled_server.stop()
    drained_with_dead_worker = True
    threaded_server.stop()

    # ---- sharded composition under concurrent load -------------------
    sharded_server = start_http_server(
        SearchService(indexes, num_shards=shards),
        max_queue=512, workers=workers,
    )
    sharded_load = run_open_loop(
        sharded_server.address, flood[: len(flood) // 2], rate=1e9,
        clients=workers * 2, capture_bodies=True,
    )
    sharded_checked = _check_pairs(
        "sharded", sharded_load.observations, oracle, divergences
    )
    sharded_metrics = fetch_metrics(sharded_server.address)
    sharded_server.stop()
    shard_counter = sharded_metrics.get(
        'repro_search_counter_total{counter="shards_total"}', 0.0
    )
    print(
        f"sharded HTTP: {sharded_checked} responses checked, "
        f"shards_total counter {shard_counter:.0f}"
    )

    pooled_sharded = PooledSearchService(
        indexes, processes=workers, num_shards=shards
    )
    composed_server = start_http_server(
        pooled_sharded, max_queue=512, workers=workers
    )
    composed_load = run_open_loop(
        composed_server.address, flood[: len(flood) // 2], rate=1e9,
        clients=workers * 2, capture_bodies=True,
    )
    composed_checked = _check_pairs(
        "fork-pool+sharded", composed_load.observations, oracle,
        divergences,
    )
    composed_metrics = fetch_metrics(composed_server.address)
    composed_server.stop()
    print(
        f"fork-pool+sharded HTTP: {composed_checked} responses checked"
    )

    # ---- mutation under the pool: writer stream, re-forked workers ---
    # add_entity lands in the parent's delta overlay; the store version
    # bump makes the next search re-fork the pool, so workers inherit
    # the overlay copy-on-write.  Compaction then folds it into a fresh
    # mapped generation and the rebuild after *that* forks from the
    # re-mapped pages — never from a thawed heap copy.
    from repro.index.incremental import add_entity

    mut_pooled = PooledSearchService.from_file(
        index_path, processes=workers
    )
    mut_server = start_http_server(
        mut_pooled, max_queue=512, workers=workers
    )
    run_open_loop(mut_server.address, warmup, rate=1e9, clients=2)
    for text in query_texts:
        add_entity(mut_pooled.indexes, "delta_type", text.split()[0])
    mut_pooled.invalidate()
    mut_overlay = mut_pooled.indexes.store.overlay_postings

    # Fresh oracle over the mutated snapshot, at k values no earlier
    # phase (or cache) has seen — every answer crosses the rebuilt pool.
    mut_k = max(k_variants) + 1
    compacted_k = mut_k + 1
    mut_snap = mut_pooled.indexes.snapshot()
    mut_engine = TableAnswerEngine(mut_snap.graph, indexes=mut_snap)
    mut_oracle = {
        (text, kv): fingerprint(mut_engine.search(query, k=kv))
        for query, text in zip(queries, query_texts)
        for kv in (mut_k, compacted_k)
    }
    mutated = run_open_loop(
        mut_server.address,
        [WorkloadRequest(query=text, k=mut_k) for text in query_texts],
        rate=1e9,
        clients=2,
        capture_bodies=True,
    )
    mut_checked = _check_pairs(
        "mutation", mutated.observations, mut_oracle, divergences
    )
    rebuilds_before_compact = fetch_metrics(mut_server.address).get(
        "repro_pool_rebuilds_total", 0.0
    )
    mut_outcome = mut_pooled.compact()
    compacted_load = run_open_loop(
        mut_server.address,
        [
            WorkloadRequest(query=text, k=compacted_k)
            for text in query_texts
        ],
        rate=1e9,
        clients=2,
        capture_bodies=True,
    )
    compacted_checked = _check_pairs(
        "mutation-compacted", compacted_load.observations, mut_oracle,
        divergences,
    )
    mut_metrics = fetch_metrics(mut_server.address)
    mut_generation = mut_metrics.get("repro_store_generation", 0.0)
    mut_rebuilds = mut_metrics.get("repro_pool_rebuilds_total", 0.0)
    mut_server.stop()
    print(
        f"mutation under pool: {mut_overlay} overlay postings, "
        f"{mut_checked + compacted_checked} responses checked, "
        f"generation {mut_generation:.0f} after compaction, "
        f"{mut_rebuilds - rebuilds_before_compact:.0f} pool rebuilds "
        "from the re-mapped file"
    )

    thawed_delta = (
        MappedPostingStore.backed_stores_thawed - thawed_before
    )
    assert thawed_delta == 0, (
        f"serving benches thawed {thawed_delta} mapped stores"
    )
    required_ratio = fork_speedup_floor(cores)
    speedup_met = True
    if required_ratio is None:
        print(
            "NOTE: single core — no parallel speedup is physically "
            f"available; QPS gate waived (measured {ratio:.2f}x), "
            "divergence/thaw/failover gates still enforced"
        )
    else:
        speedup_met = ratio >= required_ratio

    acceptance = {
        "bit_identical_met": not divergences,
        "speedup_met": speedup_met,
        "rows_across_pipe_met": rows_divergences == 0,
        "failover_met": (
            fault_all_200 and failovers >= 1 and healed
            and drained_with_dead_worker
        ),
        "no_thaw_met": thawed_delta == 0,
        "mutation_overlay_met": (
            mut_overlay > 0
            and mut_checked == len(query_texts)
            and compacted_checked == len(query_texts)
        ),
        "mutation_compacted_met": (
            mut_outcome["generation"] == 1
            and mut_generation == 1.0
            and mut_rebuilds > rebuilds_before_compact
        ),
        "pool_metrics_exposed_met": not missing_metrics,
        "sharded_counters_met": (
            shard_counter >= shards
            and 'repro_execution_workers{backend="fork-pool+sharded"}'
            in composed_metrics
        ),
        "no_transport_errors_met": (
            threaded.summary()["transport_errors"] == 0
            and forked.summary()["transport_errors"] == 0
        ),
    }
    report = {
        "bench": "BENCH_9",
        "profile": profile_name,
        "k": k,
        "d": indexes.d,
        "num_entities": profile["wiki"].num_entities,
        "cores": cores,
        "workers": workers,
        "queries": query_texts,
        "fork_pool": {
            "threads_qps": threads_qps,
            "processes_qps": processes_qps,
            "ratio": ratio,
            "required_ratio": required_ratio,
            "requests_per_flood": len(flood),
            "responses_checked": threads_checked + fork_checked,
        },
        "rows": {
            "compared": len(query_texts),
            "diverged": rows_divergences,
        },
        "failover": {
            "responses_checked": fault_checked,
            "worker_failovers": failovers,
            "healed": healed,
            "drained_with_dead_worker": drained_with_dead_worker,
        },
        "sharded": {
            "num_shards": shards,
            "responses_checked": sharded_checked + composed_checked,
            "shards_total_counter": shard_counter,
        },
        "backed_stores_thawed": thawed_delta,
        "mutation": {
            "entities_added": len(query_texts),
            "overlay_postings": mut_overlay,
            "responses_checked": mut_checked + compacted_checked,
            "generation": mut_outcome["generation"],
            "pool_rebuilds_after_compaction": (
                mut_rebuilds - rebuilds_before_compact
            ),
        },
        "metrics_missing": missing_metrics,
        "divergences": divergences,
        "acceptance": acceptance,
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"wrote {out_path}")

    failures = [name for name, ok in acceptance.items() if not ok]
    if failures:
        print(f"FAIL: {', '.join(failures)}", file=sys.stderr)
        if divergences:
            print(
                f"  {len(divergences)} served results diverged from the "
                "cold engine",
                file=sys.stderr,
            )
        return 1
    print(
        "all gates passed: fork-pool answers identical to the cold "
        "engine, zero mapped stores thawed"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default="smoke"
    )
    parser.add_argument("-k", type=int, default=10)
    parser.add_argument(
        "--fork-pool", action="store_true",
        help="run the BENCH_9 fork-pool backend suite instead of BENCH_8",
    )
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.fork_pool:
        return run_fork(
            args.profile, args.k, args.out or "BENCH_9.json"
        )
    return run(args.profile, args.k, args.out or "BENCH_8.json")


if __name__ == "__main__":
    sys.exit(main())
