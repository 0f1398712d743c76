"""Measurements taken from outside the program's layers.

Every probe calls public functions of the program and times or counts
around them; nothing here reaches into a module's internals.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Dict, List, Sequence

from repro.index.mmapstore import MappedPostingStore
from repro.index.serialize import load_indexes
from repro.search.context import EnumerationContext
from repro.search.plan import execute_plan, plan_search
from repro.search.service import SearchService

from core import K, MAX_ROWS, calibrate, setup_child, to_reference

#: SearchStats work counters reported per algorithm.
WORK_COUNTERS = (
    "candidate_roots",
    "roots_expanded",
    "patterns_checked",
    "subtrees_enumerated",
)


def build_context(indexes, plan) -> EnumerationContext:
    """An :class:`EnumerationContext` with its lazy parts forced: root
    maps, candidate intersection, viable types and query bounds — what
    the algorithms would otherwise build inside ``execute_plan``."""
    context = EnumerationContext(indexes, plan.resolved_query())
    context.candidate_roots
    context.viable_types()
    context.query_bounds(plan.scoring)
    return context


def _plan_and_execute(indexes, query) -> float:
    started = time.perf_counter()
    plan = plan_search(indexes, list(query), k=K)
    execute_plan(indexes, plan, context=build_context(indexes, plan))
    return (time.perf_counter() - started) * 1000.0


def cold_columns_ms(indexes, query) -> float:
    """The store's one-time column builds: the first plan and execution
    on ``indexes`` minus a repeat of the same plan."""
    first = _plan_and_execute(indexes, query)
    return first - _plan_and_execute(indexes, query)


def _first_answer_child(conn, path: str, query) -> None:
    thawed = MappedPostingStore.backed_stores_thawed
    words = MappedPostingStore.words_materialized
    before = calibrate()
    started = time.perf_counter()
    indexes = load_indexes(path)
    loaded = time.perf_counter()
    SearchService(indexes).search(list(query), k=K)
    answered = time.perf_counter()
    loop = (before + calibrate()) / 2
    conn.send({
        "first_answer_ref_ms": to_reference(
            (answered - started) * 1000.0, loop
        ),
        "loop_ms": loop,
        "first_answer_ms": (answered - started) * 1000.0,
        "load_ms": (loaded - started) * 1000.0,
        "stores_thawed": MappedPostingStore.backed_stores_thawed - thawed,
        "words_materialized": (
            MappedPostingStore.words_materialized - words
        ),
    })
    conn.close()


def _fork_one(target, *args):
    """Run ``target(conn, *args)`` in a forked child; return what it
    sends."""
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe()
    process = ctx.Process(target=target, args=(child,) + args)
    process.start()
    child.close()
    record = parent.recv()
    process.join()
    parent.close()
    return record


def _forker_loop(conn) -> None:
    """Fork the requested children, one at a time, from this small
    process."""
    while True:
        try:
            request = conn.recv()
        except EOFError:
            break
        if request is None:
            break
        if request[0] == "opens":
            _kind, path, query, repeats = request
            conn.send([
                _fork_one(_first_answer_child, path, query)
                for _ in range(repeats)
            ])
        else:
            _kind, path = request
            conn.send(_fork_one(setup_child, path, False))
    conn.close()


#: Cold opens after each set-up: six in an untraced run.
COLD_OPENS_PER_POINT = 2


class Forker:
    """Fresh processes for cold opens and set-ups, forked from a small
    parent.

    Started before the benchmark process grows.  A child forked later
    from the grown process would inherit its heap, and the child's
    garbage collector would walk (and copy) all of it: cost a freshly
    started server, or a set-up on its own, never pays.
    """

    def __init__(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(target=_forker_loop, args=(child,))
        self.process.start()
        child.close()

    def opens(self, path, query, repeats: int) -> List[dict]:
        """``repeats`` children, each ``load_indexes`` + one search."""
        self.conn.send(("opens", str(path), query, repeats))
        return self.conn.recv()

    def setup(self, path) -> dict:
        """One set-up (generate, build, save to ``path``); its timings."""
        self.conn.send(("setup", str(path)))
        return self.conn.recv()

    def close(self) -> None:
        try:
            self.conn.send(None)
        except (OSError, ValueError):
            pass
        self.process.join(timeout=30)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.conn.close()


def search_counts(results, algorithms: Sequence[str]) -> Dict[str, float]:
    """SearchStats work counts summed over ``results`` per algorithm,
    plus the bound-pruning counters over all of them."""
    counts: Dict[str, float] = {}
    for algorithm in algorithms:
        stats = [r.stats for (_q, a), r in results if a == algorithm]
        for name in WORK_COUNTERS:
            counts[f"search.{algorithm}.{name}"] = sum(
                getattr(s, name) for s in stats
            )
        checked = sum(s.patterns_checked for s in stats)
        counts[f"search.{algorithm}.answers_per_pattern"] = (
            sum(s.nonempty_patterns for s in stats) / checked
            if checked else 0.0
        )
    stats = [r.stats for _request, r in results]
    roots = sum(s.candidate_roots for s in stats)
    counts["search.bounds.roots_skipped_ratio"] = (
        sum(s.roots_skipped for s in stats) / roots if roots else 0.0
    )
    counts["search.bounds.prefixes_skipped"] = sum(
        s.prefixes_skipped for s in stats
    )
    counts["search.bounds.pairs_skipped"] = sum(
        s.pairs_skipped for s in stats
    )
    return counts


def check(oracle, outcome, requests, digests, kind="rows") -> List[str]:
    """Compare digests of ``(query, algorithm)`` requests with the
    oracle's cold answers (returned); every mismatch counts as a failed
    operation."""
    if not requests:
        return []
    oracle.submit(requests, kind)
    expected = oracle.collect()
    compare(outcome, requests, digests, expected)
    return expected


def compare(outcome, requests, digests, expected) -> None:
    """Count every request whose digest differs from the oracle's."""
    mismatches = [
        request for request, mine, want in zip(requests, digests, expected)
        if mine != want
    ]
    outcome.report["oracle_checked"] = (
        outcome.report.get("oracle_checked", 0) + len(requests)
    )
    if mismatches:
        outcome.failed += len(mismatches)
        outcome.problems.append(
            f"{len(mismatches)} answers differ from the cold heap engine, "
            f"first: {mismatches[0]!r}"
        )


def render(results, graph, tracer) -> None:
    """Render every answer's table (``MAX_ROWS`` rows), one span per
    result."""
    for result in results:
        with tracer.span("search.result.render"):
            for answer in result.answers:
                answer.to_table(graph, MAX_ROWS)
