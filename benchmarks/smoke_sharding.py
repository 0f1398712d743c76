"""BENCH_5: sharded execution — work reduction + exactness.

Partitions the wiki synthetic (d=3) posting store into K shards by root
type (pattern-containment partitioning, see ``docs/sharding.md``), serves
the same heavy 1-3 keyword workload BENCH_3/BENCH_4 use through a
``SearchService(num_shards=K)``, and measures **bound-driven shard
skipping**: how much posting work the per-shard score upper bounds prove
away before a shard is ever run.

Per shard count K in {2, 4, 7}, each query runs at the report ``k`` and
at ``k=1`` (tight thresholds are where skipping bites):

* **divergence gate** — every sharded answer list (scores, pattern keys,
  subtree rows) must be bit-identical to a cold single-store
  ``TableAnswerEngine`` run; any mismatch fails the bench (exit 1);
* **shards skipped / dispatched** — totals from ``SearchStats``;
* **postings work avoided** — for each skipped shard, the posting-list
  entries under its candidate roots that were never scanned, as a
  fraction of the query's total posting work.

The bench also **fails (exit 1) if no shard is ever skipped** across the
whole grid — the bound machinery regressing to "dispatch everything"
must not pass silently.  CI runs the ``smoke`` profile and uploads the
JSON; ``full`` is the acceptance configuration (800 entities)::

    PYTHONPATH=src python benchmarks/smoke_sharding.py --profile full \
        --out BENCH_5.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.datasets.queries import WorkloadConfig, generate_workload
from repro.datasets.wiki import WikiConfig, generate_wiki_graph
from repro.index.builder import ResolvedQuery, build_indexes
from repro.index.shards import partition_indexes
from repro.search.context import EnumerationContext
from repro.search.engine import TableAnswerEngine
from repro.search.linear_enum import count_answers
from repro.search.service import SearchService

SHARD_COUNTS = (2, 4, 7)

PROFILES = {
    # ~seconds in CI; mirrors the BENCH_3/BENCH_4 smoke graph.
    "smoke": {
        "wiki": WikiConfig(
            num_entities=120, num_types=8, num_attrs=12,
            vocabulary_size=60, seed=5,
        ),
        "min_subtrees": 64,
        "max_queries": 8,
    },
    # The acceptance configuration: wiki synthetic, 800 entities, d=3.
    "full": {
        "wiki": WikiConfig(
            num_entities=800, num_types=24, num_attrs=36,
            vocabulary_size=240, seed=23,
        ),
        "min_subtrees": 4096,
        "max_queries": 10,
    },
}


def heavy_workload(indexes, min_subtrees, max_queries):
    """Deduplicated 1-3 keyword queries in the heavy answer-set group."""
    seen = set()
    heavy = []
    for seed in (23, 29, 31, 37, 41):
        for query in generate_workload(
            indexes,
            WorkloadConfig(
                queries_per_size=6, min_keywords=1, max_keywords=3, seed=seed
            ),
        ):
            if query in seen:
                continue
            seen.add(query)
            _patterns, subtrees = count_answers(indexes, query)
            if subtrees >= min_subtrees:
                heavy.append(query)
        if len(heavy) >= max_queries:
            break
    return heavy[:max_queries]


def fingerprint(result):
    return (
        result.scores(),
        result.pattern_keys(),
        [answer.num_subtrees for answer in result.answers],
        [
            [tuple(combo) for combo in answer.subtrees]
            for answer in result.answers
        ],
    )


def posting_work(indexes, words, roots):
    """Posting entries a store-native scan touches under ``roots``."""
    root_first = indexes.root_first
    return sum(
        root_first.path_count(word, root)
        for root in roots
        for word in words
    )


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
    k_values = sorted({1, k})

    # The no-cache oracle: cold engine on a pinned snapshot per (query, k).
    snap = indexes.snapshot()
    engine = TableAnswerEngine(snap.graph, indexes=snap)
    oracle = {
        (query, kk): fingerprint(engine.search(query, k=kk))
        for query in queries
        for kk in k_values
    }
    divergences = []
    per_k = {}

    for num_shards in SHARD_COUNTS:
        sharded = partition_indexes(indexes, num_shards)
        dispatched = skipped = 0
        work_total = work_avoided = 0
        latencies = []
        with SearchService(
            indexes, num_shards=num_shards, sharded=sharded
        ) as service:
            for query in queries:
                plan_words = service.plan(query, k=k).words
                candidates = EnumerationContext(
                    snap, ResolvedQuery(plan_words)
                ).candidate_roots
                parts = sharded.partition_roots(candidates)
                query_work = posting_work(snap, plan_words, candidates)
                for kk in k_values:
                    service._results.clear()  # measure execution, not cache
                    started = time.perf_counter()
                    result = service.search(query, k=kk)
                    latencies.append(time.perf_counter() - started)
                    if fingerprint(result) != oracle[(query, kk)]:
                        divergences.append(
                            {
                                "num_shards": num_shards,
                                "k": kk,
                                "query": " ".join(query),
                            }
                        )
                    stats = result.stats
                    dispatched += len(stats.shard_dispatch_order)
                    skipped += stats.shards_skipped
                    work_total += query_work
                    skipped_ids = set(range(num_shards)) - set(
                        stats.shard_dispatch_order
                    )
                    work_avoided += sum(
                        posting_work(snap, plan_words, parts[shard])
                        for shard in skipped_ids
                    )
        per_k[num_shards] = {
            "shard_paths": [s.store.num_paths for s in sharded.shards],
            "searches": len(queries) * len(k_values),
            "shards_dispatched": dispatched,
            "shards_skipped": skipped,
            "postings_work_total": work_total,
            "postings_work_avoided": work_avoided,
            "work_reduction": (
                work_avoided / work_total if work_total else 0.0
            ),
            "mean_latency_ms": (
                sum(latencies) / len(latencies) * 1000 if latencies else None
            ),
        }

    total_skipped = sum(row["shards_skipped"] for row in per_k.values())
    report = {
        "bench": "BENCH_5",
        "profile": profile_name,
        "k": k,
        "k_values": k_values,
        "d": indexes.d,
        "num_entities": profile["wiki"].num_entities,
        "queries": [" ".join(query) for query in queries],
        "per_shard_count": {str(n): row for n, row in per_k.items()},
        "total_shards_skipped": total_skipped,
        "divergences": divergences,
        "acceptance": {
            "bit_identical_met": not divergences,
            "shards_skipped_met": total_skipped > 0,
        },
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    for num_shards, row in per_k.items():
        print(
            f"K={num_shards}: dispatched {row['shards_dispatched']}, "
            f"skipped {row['shards_skipped']} "
            f"(work reduction {row['work_reduction']:.1%}, "
            f"mean {row['mean_latency_ms']:.2f} ms)"
        )
    print(f"wrote {out_path}")
    if divergences:
        print(
            f"FAIL: {len(divergences)} sharded results diverged from the "
            "cold single-store engine",
            file=sys.stderr,
        )
        return 1
    if total_skipped == 0:
        print(
            "FAIL: no shard was ever skipped — the per-shard bounds "
            "stopped pruning",
            file=sys.stderr,
        )
        return 1
    print("all sharded results identical to the single-store engine")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default="smoke"
    )
    parser.add_argument("-k", type=int, default=10)
    parser.add_argument("--out", default="BENCH_5.json")
    args = parser.parse_args(argv)
    return run(args.profile, args.k, args.out)


if __name__ == "__main__":
    sys.exit(main())
