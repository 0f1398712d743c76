"""Sharded top-k execution with bound-driven shard skipping.

Sharding is a property of :class:`~repro.search.service.SearchService`
(``num_shards=K``): the posting store is partitioned into K
pattern-disjoint shards (:mod:`repro.index.shards`) and a shardable
:class:`~repro.search.plan.QueryPlan` runs through
:func:`execute_sharded_plan` — one in-process run per shard, merged
under a single global :class:`~repro.core.topk.TopKQueue`/
:class:`~repro.core.topk.TopKThreshold` with canonical tie keys.
Answers are **bit-identical** to the unsharded engine (the differential
tests in ``tests/search/test_sharding.py`` enforce this for all
shardable algorithms at several K).  The same function runs wherever a
plan runs: inline in the service, or inside a
:class:`~repro.serve.pool.PooledSearchService` fork worker over the
partition it inherited.

The perf win on any core count is *bound-driven shard skipping*: before a
shard is run, its precomputed score upper bound (the same
``SAFETY * sum(root_mass)`` form LETopK's type-skip uses, summed over the
shard's slice of the candidate roots) is checked against the running k-th
score.  Shards are visited best-bound-first, so the global threshold
tightens as fast as possible and trailing shards whose bound falls below
it are never run at all — their postings are never scanned by anyone.
``SearchStats`` records ``shards_total`` / ``shards_skipped`` /
``shard_dispatch_order``; ``benchmarks/smoke_sharding.py`` turns the
counters into a postings-not-scanned work-reduction figure (BENCH_5).

Exactness is inherited from the partition (pattern containment: a whole
pattern, with every root that contributes to its score, lives in exactly
one shard — see :mod:`repro.index.shards`) plus two facts: a pattern in
the global top-k is necessarily in its own shard's local top-k (the shard
run faces a subset of the competitors), and a skipped shard only holds
patterns with score ``<= bound < k-th`` which therefore cannot be
retained (bound equality is always admitted, matching ``docs/pruning.md``).

Two plans bypass the shards and execute whole, exactly as the unsharded
service would run them: the ``baseline`` (walks the live graph, not the
store) and sampled LETopK (its RNG stream is drawn over the *global*
candidate ordering — per-shard streams would diverge); ``pattern_enum``,
exact ``linear_topk``, and ``linear_full`` all shard.  Kept subtrees
come out of a shard run as materialized
:class:`~repro.index.entry.PathEntry` tuples (value-equal to the
unsharded ``ComboRef`` combos), the same portable rows a fork worker
ships across its pipe.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.topk import TopKQueue, TopKThreshold
from repro.index.builder import PathIndexes
from repro.index.shards import ShardedIndexes
from repro.search.bounds import SAFETY
from repro.search.plan import QueryPlan, execute_plan
from repro.search.result import (
    PatternAnswer,
    SearchResult,
    SearchStats,
    Stopwatch,
    canonical_pattern_key,
    order_answers,
    pattern_from_key,
)

#: Algorithms whose per-shard runs merge exactly (store-reading, no
#: cross-shard state).  ``baseline`` walks the live graph instead of the
#: store, so sharding the store cannot split its work.
SHARDABLE_ALGORITHMS = frozenset(
    {"pattern_enum", "linear_topk", "linear_full"}
)

#: Counters that sum meaningfully across per-shard runs.
_ADDITIVE_COUNTERS = (
    "roots_expanded",
    "patterns_checked",
    "empty_patterns",
    "nonempty_patterns",
    "subtrees_enumerated",
    "tree_check_rejections",
    "sampled_types",
    "rescored_patterns",
    "roots_skipped",
    "prefixes_skipped",
    "pairs_skipped",
)


def _sampling_active(plan: QueryPlan) -> bool:
    """Whether this plan's LETopK sampling can actually trigger."""
    if plan.algorithm != "linear_topk":
        return False
    params = dict(plan.params)
    return (
        params.get("sampling_threshold", float("inf")) != float("inf")
        and params.get("sampling_rate", 1.0) < 1.0
    )


def plan_shardable(plan: QueryPlan) -> bool:
    """Whether sharded execution reproduces this plan bit-identically.

    Sampled LETopK is excluded even though the algorithm shards: its
    sampling decisions are pre-drawn from one seeded RNG stream over the
    globally-ordered candidate types, so K per-shard streams would make
    different keep/drop choices than the single run.
    """
    return plan.algorithm in SHARDABLE_ALGORITHMS and not _sampling_active(
        plan
    )


def portable_answers(result: SearchResult) -> list:
    """A result's answers as plain picklable tuples
    ``(score, pattern_key, num_subtrees, combos, estimated_score)``.

    Pattern ids are global (shards share the base interner), and kept
    subtrees are materialized to :class:`~repro.index.entry.PathEntry`
    tuples because a ``ComboRef`` holds a store reference that must not
    cross a pipe (nor outlive a shard run's store view).
    """
    return [
        (
            answer.score,
            answer.pattern_key,
            answer.num_subtrees,
            [tuple(combo) for combo in answer.subtrees],
            answer.estimated_score,
        )
        for answer in result.answers
    ]


def result_from_portable(
    snap: PathIndexes, plan: QueryPlan, portable: list, stats: SearchStats
) -> SearchResult:
    """Rebuild a :class:`SearchResult` from :func:`portable_answers` rows
    (patterns re-resolved against ``snap``'s interner)."""
    answers = [
        PatternAnswer(
            pattern_key=key,
            pattern=pattern_from_key(snap, key),
            score=score,
            num_subtrees=count,
            subtrees=list(combos),
            estimated_score=estimated,
        )
        for score, key, count, combos, estimated in portable
    ]
    return SearchResult(
        query=plan.words, k=plan.k, d=plan.d, answers=answers, stats=stats
    )


def execute_shard_plan(
    shard: PathIndexes, plan: QueryPlan
) -> Tuple[list, SearchStats]:
    """Run a plan on one bundle, returning *portable* answers + stats.

    ``allow_stale=True`` because a shard store keeps its own version
    counter, intentionally different from the base version the plan was
    resolved against (the caller already version-checked the plan
    against the serving snapshot).
    """
    result = execute_plan(shard, plan, allow_stale=True)
    return portable_answers(result), result.stats


def shard_upper_bounds(
    sharded: ShardedIndexes, context, scoring
) -> List[float]:
    """Per-shard admissible score upper bounds for one resolved query.

    The shard bound is LETopK's type bound lifted one level: an
    admissible (under all four aggregators) cap on any pattern score
    confined to the shard's slice of the candidate roots —
    ``SAFETY * sum(root_mass(r))``, computed from the *global*
    :class:`~repro.search.bounds.QueryBounds` (identical values to the
    unsharded run, since a root's postings travel to its shard whole).
    ``inf`` per non-empty shard when the scoring function is outside the
    bounded class — every shard is then dispatched, sharding stays
    exact, nothing skips.
    """
    parts = sharded.partition_roots(context.candidate_roots)
    bounds = context.query_bounds(scoring)
    if bounds is None:
        return [float("inf") if part else 0.0 for part in parts]
    return [
        SAFETY * sum(bounds.root_mass(root) for root in part)
        for part in parts
    ]


def execute_sharded_plan(
    snap: PathIndexes,
    plan: QueryPlan,
    sharded: ShardedIndexes,
    uppers: List[float],
    candidate_roots: int = 0,
) -> SearchResult:
    """The best-bound-first merge loop over a partition, in process.

    Every dispatched shard runs through :func:`execute_shard_plan`.
    Shards are visited best-bound-first and skipped once the running
    k-th score disproves their upper bound; answers merge under a single
    global :class:`~repro.core.topk.TopKQueue` with canonical tie keys —
    bit-identical to the unsharded engine.  The service and the fork-pool
    workers both run this one function, so the two spines cannot drift.
    """
    watch = Stopwatch()
    queue: TopKQueue[PatternAnswer] = TopKQueue(plan.k)
    threshold = TopKThreshold(queue)
    stats = SearchStats(
        algorithm=plan.algorithm,
        candidate_roots=candidate_roots,
    )
    stats.shards_total = sharded.num_shards
    # Best-bound-first: the strongest shard fills the queue and
    # tightens the global threshold before weaker shards are
    # considered, maximizing skips.  Shard id breaks bound ties
    # so the dispatch order is deterministic.
    order = sorted(
        range(sharded.num_shards), key=lambda s: (-uppers[s], s)
    )
    dispatched: List[int] = []
    for shard_id in order:
        upper = uppers[shard_id]
        # upper == 0.0 means no candidate root lives there; a
        # bound below the running k-th score cannot change the
        # queue (equality always admitted — docs/pruning.md).
        if upper <= 0.0 or not threshold.admits(upper):
            stats.shards_skipped += 1
            continue
        dispatched.append(shard_id)
        portable, shard_stats = execute_shard_plan(
            sharded.shards[shard_id], plan
        )
        for name in _ADDITIVE_COUNTERS:
            setattr(
                stats,
                name,
                getattr(stats, name) + getattr(shard_stats, name),
            )
        for answer in result_from_portable(
            snap, plan, portable, shard_stats
        ).answers:
            queue.push(
                answer.score,
                answer,
                tie_key=canonical_pattern_key(answer.pattern),
            )
    stats.shard_dispatch_order = tuple(dispatched)
    threshold.write_stats(stats)
    answers = order_answers([answer for _, answer in queue.ranked()])
    stats.elapsed_seconds = watch.elapsed()
    return SearchResult(
        query=plan.words,
        k=plan.k,
        d=plan.d,
        answers=answers,
        stats=stats,
    )
