"""``serve-zipf``: open-loop HTTP replay against ``repro serve --http``.

The server runs in its own process, ``repro serve --http --processes
<nproc>``, over the mapped v3 file.  One load-generator process (this
one) replays a seeded Zipf (alpha 0.9) stream of 1-4 keyword queries,
drawn from a pool four times the size of the 256-entry result cache,
over at most nproc keep-alive connections.  Every request asks for
``include_rows=1`` and ``k=10``: tables are the product.

Timed phases:

* **fixed rate** - ``FIXED_RATE`` requests per second, open loop, timed
  from each request's due time, in two halves around the rate steps:
  ``read_p50_ms`` and ``read_tail_ms``;
* **capacity and sustained rate** - a closed loop over every connection
  sends a fixed Zipf sample and measures the capacity, the requests
  completed per second (``throughput_qps``); then open-loop steps from
  ``STEP_FRACTIONS`` of
  it find the highest offered rate whose tail stays under
  ``LATENCY_LIMIT_MS`` with no backlog (``sustained_qps``, reported).

The HTTP tier, result cache, row rendering and fork-pool IPC do most of
the work; enumeration runs only on the Zipf tail.
"""

from __future__ import annotations

import json
import os
import random
import re
import select
import subprocess
import sys
import time
from urllib.parse import parse_qs, urlencode, urlsplit

from repro.datasets.queries import zipfian_requests
from repro.index.mmapstore import MappedPostingStore
from repro.index.serialize import load_indexes
from repro.search.plan import execute_plan
from repro.serve.params import parse_search_params
from repro.serve.pool import PooledSearchService

from core import (
    GcPauses,
    K,
    MAX_ROWS,
    POOL_SEED,
    REFERENCE_LOOP_MS,
    Outcome,
    SpeedSampler,
    body_fingerprint,
    log,
    median,
    nproc,
    peak_rss_mb,
    summary,
    table_fingerprint,
    to_reference,
)
from httpload import TIMEOUT, closed_loop, open_loop
from loadgen import fetch_metrics
from probes import (
    build_context,
    check,
    cold_columns_ms,
    search_counts,
)
from spans import NullTracer, rename

#: Distinct queries in the pool: four times the result cache.
POOL_SIZE = 1024
#: The server's result-cache capacity (``SearchService`` default).
CACHE_SIZE = 256
ZIPF_ALPHA = 0.9
#: Offered rate of the latency phase, requests per second: under half
#: of the sustained rate at 10k entities on two cores, so the tail shows
#: service time more than queueing, and enough requests (224 at
#: ``--seconds 7``) to put the tail at p95.
FIXED_RATE = 40.0
#: Idle time before each fixed-rate half, so that it does not start
#: while the server is still working off the phase before it.
SETTLE_SECONDS = 0.5
#: Tail latency a sustained rate must stay under.
LATENCY_LIMIT_MS = 500.0
#: Offered rates tried after the capacity probe, as fractions of it,
#: highest first; the first that passes is the sustained rate.  The
#: steps sit well below the capacity so that the result follows the
#: capacity, averaged over seconds, rather than the pass-or-fail of a
#: short step near saturation.
STEP_FRACTIONS = (0.7, 0.5, 0.3)
#: Shares of ``--seconds``: fixed rate, one rate step.
FIXED_SHARE = 0.8
STEP_SHARE = 0.2
#: Requests of the capacity probe per second of ``--seconds``: a fixed
#: amount of work (about 40% of ``--seconds`` at 10k entities on two
#: cores), so that a seed's requests are not cut off wherever the time
#: runs out.
CAPACITY_REQUESTS_PER_SECOND = 64
#: Requests replayed in process by the traced run.
TRACE_REQUESTS = 200
#: Bodies checked against the oracle per phase (a seeded sample).
CHECKED_BODIES = 48
#: A run is rejected when the generator sent requests this late.
MAX_LAG_P50_MS = 5.0
SERVER_START_TIMEOUT = 120.0


def _path(query) -> str:
    return "/search?" + urlencode([
        ("q", " ".join(query)), ("k", str(K)), ("include_rows", "1"),
        ("max_rows", str(MAX_ROWS)),
    ])


class Server:
    """``repro serve --http`` in its own process."""

    def __init__(self, ctx, processes: int) -> None:
        env = dict(os.environ)
        src = str(ctx.work_dir.parent / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.processes = processes
        self.log_path = ctx.work_dir / "server.log"
        self._log = open(self.log_path, "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             str(ctx.index_path), "--http", "127.0.0.1:0",
             "--processes", str(processes)],
            stdout=subprocess.PIPE, stderr=self._log, env=env, bufsize=0,
        )
        self.address = None
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        seen = b""
        stdout = self.process.stdout
        while self.address is None and time.monotonic() < deadline:
            ready, _w, _x = select.select(
                [stdout], [], [], deadline - time.monotonic()
            )
            chunk = os.read(stdout.fileno(), 4096) if ready else b""
            if not chunk:
                break
            seen += chunk
            match = re.search(rb"on http://([\d.]+:\d+)", seen)
            if match:
                self.address = match.group(1).decode("ascii")
        if self.address is None:
            self.stop()
            raise RuntimeError(
                f"server did not start; see {self.log_path}"
            )

    def workers(self) -> list:
        """Process ids of the server's children, forked by any of its
        threads (the pool forks its workers from an executor thread, and
        ``/proc/<pid>/task/<tid>/children`` lists one thread's children
        only)."""
        pid = self.process.pid
        children = []
        for tid in sorted(os.listdir(f"/proc/{pid}/task")):
            try:
                with open(f"/proc/{pid}/task/{tid}/children") as handle:
                    children += [int(p) for p in handle.read().split()]
            except OSError:
                continue
        return sorted(set(children))

    def tree_peak_rss_mb(self) -> float:
        """Sum of the peak RSS of the server and its pool workers; fails
        unless every one of the ``processes`` workers is found."""
        workers = self.workers()
        if len(workers) < self.processes:
            raise RuntimeError(
                f"found {len(workers)} pool workers of the server, "
                f"expected {self.processes}"
            )
        return sum(peak_rss_mb(p) for p in [self.process.pid] + workers)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.communicate()
        self._log.close()


def _check_bodies(ctx, outcome, load, queries):
    """Compare the kept response bodies with the oracle's tables."""
    kept = [o for o in load.observations if o.body is not None]
    check(
        ctx.oracle, outcome,
        [(queries[o.index], "pattern_enum") for o in kept],
        [body_fingerprint(json.loads(o.body)) for o in kept], "table",
    )


def run(ctx, outcome: Outcome) -> None:
    pool = ctx.oracle.query_pool(POOL_SIZE // 4 + 8)[:POOL_SIZE]
    rng = random.Random(ctx.seed)
    workers = nproc()
    # The fixed-rate phase and the capacity probe each replay one Zipf
    # sample of the pool, drawn with ``POOL_SEED``, in an order drawn
    # from ``--seed``: every seed offers the same mix.  The rate steps
    # draw fresh Zipf requests from ``--seed``.
    fixed = zipfian_requests(pool, int(FIXED_RATE * ctx.seconds
                                       * FIXED_SHARE) + 2,
                             alpha=ZIPF_ALPHA, seed=POOL_SEED)
    rng.shuffle(fixed)
    probe = zipfian_requests(
        pool, int(CAPACITY_REQUESTS_PER_SECOND * ctx.seconds),
        alpha=ZIPF_ALPHA, seed=POOL_SEED + 1,
    )
    rng.shuffle(probe)
    rest = zipfian_requests(pool, 50_000, alpha=ZIPF_ALPHA, seed=ctx.seed)
    # Warm-up: the most popular queries, one each, fill the result cache
    # and make every pool worker build its columns before timing.
    warm = pool[:CACHE_SIZE]
    sampler = SpeedSampler()
    server = None
    try:
        started = time.perf_counter()
        server = Server(ctx, workers)
        first = closed_loop(server.address, [_path(warm[0])], 1, 60.0)
        outcome.report["server_first_answer_ms"] = (
            1000.0 * (time.perf_counter() - started)
        )
        closed_loop(server.address, [_path(q) for q in warm[1:]],
                    workers, 600.0)
        wall = time.perf_counter() - started
        ctx.add_extra_setup(wall, to_reference(wall, sampler.stop()))
        if first.failures():
            outcome.problems.append("the server's first answer failed")
        log("serve-zipf: server up and warm")
        _measure(ctx, outcome, server, fixed, probe, rest, rng, workers)
    finally:
        sampler.stop()
        if server is not None:
            server.stop()
    if ctx.trace:
        _traced_replay(ctx, outcome, warm, (fixed + rest)[:TRACE_REQUESTS],
                       workers)


def _calibrated(run):
    """``run()`` with the calibration loop's median time while it ran."""
    with SpeedSampler() as sampler:
        result = run()
    return result, sampler.loop


def _fixed_half(server, paths, keep, workers, seconds):
    """One half of the fixed-rate phase: the load, the loop time around
    it and the ``/metrics`` deltas over it."""
    time.sleep(SETTLE_SECONDS)
    before = fetch_metrics(server.address)
    load, loop = _calibrated(lambda: open_loop(
        server.address, paths, FIXED_RATE, workers, seconds, keep
    ))
    after = fetch_metrics(server.address)
    return load, loop, {k: v - before.get(k, 0.0) for k, v in after.items()}


def _measure(ctx, outcome, server, fixed, probe, rest, rng, workers):
    # The capacity probe runs first: its requests (448 at ``--seconds
    # 7``) also finish
    # warming the pool workers, which the 256-query warm-up reaches only
    # in part (each worker materialises the words of the queries it
    # happens to execute).  The fixed-rate phase then runs in two
    # halves, before and after the rate steps; the interludes (the later
    # set-ups, with the server idle) separate the three segments.
    half = ctx.seconds * FIXED_SHARE / 2
    middle = len(fixed) // 2
    fixed_paths = [_path(q) for q in fixed]
    keep = set(rng.sample(range(middle), min(CHECKED_BODIES, middle)))
    paths = [_path(q) for q in rest]
    consumed = 0
    capacity, capacity_loop = _calibrated(lambda: closed_loop(
        server.address, [_path(q) for q in probe], workers, TIMEOUT,
    ))
    ctx.interlude()
    first, first_loop, delta = _fixed_half(
        server, fixed_paths[:middle], keep, workers, half
    )
    loads = [first, capacity]
    # The highest of the offered rates tried, as fractions of the
    # capacity, whose tail meets the limit with no growing backlog.
    steps = []
    sustained = None
    for fraction in STEP_FRACTIONS:
        rate = fraction * capacity.achieved
        step = open_loop(server.address, paths[consumed:], rate, workers,
                         ctx.seconds * STEP_SHARE)
        consumed += len(step.observations)
        loads.append(step)
        latencies = step.latencies_ms()
        tail = summary(latencies)["tail"]
        quarter = max(1, len(latencies) // 4)
        growth = median(latencies[-quarter:]) - median(latencies[:quarter])
        passed = (
            step.failures() == 0
            and tail["value"] <= LATENCY_LIMIT_MS
            and growth <= LATENCY_LIMIT_MS / 4
        )
        steps.append({
            "fraction": fraction, "offered": rate, "tail": tail,
            "backlog_growth_ms": growth, "passed": passed,
        })
        sustained = rate
        if passed:
            break
    ctx.interlude()
    second, second_loop, more = _fixed_half(
        server, fixed_paths[middle:], set(), workers, half
    )
    loads.append(second)
    for key, value in more.items():
        delta[key] = delta.get(key, 0.0) + value
    rss = server.tree_peak_rss_mb()

    walls = first.latencies_ms() + second.latencies_ms()
    latencies = (
        [to_reference(ms, first_loop) for ms in first.latencies_ms()]
        + [to_reference(ms, second_loop) for ms in second.latencies_ms()]
    )
    stats = summary(latencies)
    capacity_qps = capacity.achieved * capacity_loop / REFERENCE_LOOP_MS
    lags = sorted(first.lags_ms() + second.lags_ms())
    achieved = (first.achieved + second.achieved) / 2
    answered = max(1.0, sum(
        v for k, v in delta.items()
        if k.startswith('repro_http_requests_total{endpoint="/search"')
    ))
    hits = delta.get('repro_cache_hits_total{tier="result"}', 0.0)
    misses = delta.get('repro_cache_misses_total{tier="result"}', 0.0)
    outcome.attempted = sum(len(load.observations) for load in loads)
    outcome.failed = sum(load.failures() for load in loads)
    outcome.report.update({
        "fixed_rate": {"offered": FIXED_RATE, "achieved": achieved},
        "read_tail": stats["tail"],
        "capacity_qps": capacity_qps,
        "wall.throughput_qps": capacity.achieved,
        "wall.read_p50_ms": median(walls),
        "phase_loop_ms": {
            "capacity": capacity_loop, "fixed_first": first_loop,
            "fixed_second": second_loop,
        },
        "capacity_requests": len(capacity.observations),
        "sustained_qps": sustained,
        "sustained_steps": steps,
        "sustained_limit_met": any(step["passed"] for step in steps),
        "latency_limit_ms": LATENCY_LIMIT_MS,
        "loadgen.lag_p50_ms": median(lags),
        "loadgen.lag_max_ms": lags[-1],
        "search.service.result_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "serve.http.coalesced_ratio": (
            delta.get("repro_http_requests_coalesced_total", 0.0) / answered
        ),
        "serve.http.shed_ratio": (
            delta.get("repro_http_requests_shed_total", 0.0) / answered
        ),
        "serve.http.expired_ratio": (
            delta.get("repro_http_requests_expired_total", 0.0) / answered
        ),
        "serve.http.server_p50_ms": 1000.0 * fetch_metrics(
            server.address
        ).get('repro_http_request_latency_seconds{quantile="0.5"}', 0.0),
        "serve.http.server_mean_ms": 1000.0 * (
            delta.get("repro_http_request_latency_seconds_sum", 0.0)
            / max(1.0, delta.get(
                "repro_http_request_latency_seconds_count", 0.0))
        ),
    })
    if median(lags) > MAX_LAG_P50_MS or achieved < 0.95 * FIXED_RATE:
        outcome.problems.append(
            f"the load generator ran {median(lags):.1f} ms late at p50 "
            f"and achieved {achieved:.1f}/s of {FIXED_RATE:.1f}/s: "
            "the generator, not the server, was the bottleneck"
        )
    _check_bodies(ctx, outcome, first, fixed)
    outcome.metric("read_p50_ms", stats["p50"], "ms")
    outcome.metric("read_tail_ms", stats["tail"]["value"], "ms")
    outcome.metric("throughput_qps", capacity_qps, "1/s")
    outcome.metric("peak_rss_mb", rss, "MB")


def _traced_replay(ctx, outcome, warm, queries, workers):
    """The same requests through the public functions, in process.

    Two pooled services over one mapped bundle get the same warm-up;
    each request then runs once untraced on the first and once traced on
    the second, alternating which goes first.  A result-cache miss also
    runs inline (context build plus ``execute_plan``) so that the pool's
    IPC shows as the pooled execution minus the inline one.
    """
    tracer = ctx.tracer
    with tracer.span("index.serialize.load"):
        indexes = load_indexes(ctx.index_path)
    outcome.report["index.store.cold_columns_ms"] = cold_columns_ms(
        indexes, warm[0]
    )
    words_before = MappedPostingStore.words_materialized
    plain = PooledSearchService(indexes, processes=workers)
    traced = PooledSearchService(indexes, processes=workers)
    try:
        for service in (plain, traced):
            for query in warm:
                service.search(list(query), k=K)
        null = NullTracer()
        ratios = []
        ipc = []
        results = []
        with GcPauses() as pauses:
            for position, query in enumerate(queries):
                target = urlsplit(_path(query)).query
                order = (plain, traced)
                if position % 2:
                    order = (traced, plain)
                spent = {}
                for service in order:
                    probe = tracer if service is traced else null
                    started = time.perf_counter()
                    result, ipc_ms = _serve_one(service, target, probe)
                    spent[service] = time.perf_counter() - started
                    if service is traced:
                        results.append((query, result))
                        if ipc_ms is not None:
                            ipc.append(ipc_ms)
                ratios.append(spent[traced] / spent[plain] - 1.0)
        outcome.report.update(pauses.report())
        outcome.report.update({
            "trace.overhead_ratio": median(ratios),
            "serve.pool.ipc_ms": median(ipc),
            "serve.pool.misses_traced": len(ipc),
            "index.mmapstore.words_materialized": (
                MappedPostingStore.words_materialized - words_before
            ),
            "search.service.context_hit_ratio": (
                traced.stats.context_hit_rate()
            ),
        })
        misses = [(q, r) for q, r in results
                  if not r.stats.from_result_cache]
        outcome.report.update(search_counts(
            [((q, "pattern_enum"), r) for q, r in misses], ("pattern_enum",)
        ))
        graph = traced.snapshot().graph
        sample = random.Random(ctx.seed).sample(
            results, min(CHECKED_BODIES, len(results))
        )
        check(
            ctx.oracle, outcome, [(q, "pattern_enum") for q, _r in sample],
            [table_fingerprint(r, graph) for _q, r in sample], "table",
        )
    finally:
        plain.close()
        traced.close()


def _serve_one(service, target, tracer):
    """One request the way the HTTP tier serves it, minus the socket.

    Returns the result and, on a result-cache miss, the pooled execution
    minus the inline context build and execution (milliseconds)."""
    ipc_ms = None
    with tracer.span("serve.request"):
        with tracer.span("serve.params.parse"):
            request = parse_search_params(
                parse_qs(target, keep_blank_values=True)
            )
        with tracer.span("search.plan.plan"):
            plan = service.plan(request.query, k=request.k,
                                algorithm=request.algorithm,
                                **dict(request.params))
        with tracer.span("serve.pool.execute") as pooled:
            result = service.search(plan=plan)
        snapshot = service.snapshot()
        if result.stats.from_result_cache:
            rename(pooled, "search.service.hit")
        else:
            with tracer.span("search.context.context") as built:
                context = build_context(snapshot, plan)
            with tracer.span("search.pattern_enum.execute") as inline:
                execute_plan(snapshot, plan, context=context)
            if pooled is not None:
                ipc_ms = 1000.0 * (
                    pooled.duration - built.duration - inline.duration
                )
        with tracer.span("search.result.render"):
            for answer in result.answers:
                answer.to_table(snapshot.graph, request.max_rows)
    return result, ipc_ms
