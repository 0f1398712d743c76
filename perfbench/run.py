"""The repository benchmark: one command, three workloads, checked answers.

Run from the root of a checkout::

    python3 perfbench/run.py --workload exec-unique --seed 1 --seconds 7 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced replay and prints the per-layer metrics
and the tracing overhead.  Either way the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  The lines before it are the full
report: environment fingerprint, sample counts, the percentile each
tail sits at, and the workload-specific figures.  Workload definitions,
the metric map and what is out of scope are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve-zipf", "exec-unique", "write-read")

#: End-to-end metrics: every workload reports every one (``--trace 0``).
END_TO_END = (
    ("setup_s", "s"),
    ("first_answer_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("peak_rss_mb", "MB"),
)
#: End-to-end metrics every workload prints but the result line leaves
#: out: their run-to-run spread on a two-core machine is wider than the
#: largest bound ``BENCHMARK.json`` may set (see ``README.md``).
PRINTED_ONLY = (
    ("read_tail_ms", "ms"),
)

#: Per-layer metrics (``--trace 1``), each measured on every workload.
#: Times are medians of per-span self times.  Counters a workload never
#: moves (no writes on a read-only workload, no HTTP in-process) read 0.
PER_LAYER = (
    ("datasets.generate_s", "s"),
    ("index.builder.build_s", "s"),
    ("index.serialize.save_s", "s"),
    ("index.serialize.file_bytes", "bytes"),
    ("index.serialize.load_ms", "ms"),
    ("index.store.cold_columns_ms", "ms"),
    ("index.mmapstore.words_materialized", "count"),
    ("index.mmapstore.stores_thawed", "count"),
    ("search.plan.plan_ms", "ms"),
    ("search.context.context_ms", "ms"),
    ("search.pattern_enum.execute_ms", "ms"),
    ("search.result.render_ms", "ms"),
    ("search.service.result_hit_ratio", "ratio"),
    ("search.service.context_hit_ratio", "ratio"),
    ("search.service.invalidations", "count"),
    ("search.pattern_enum.candidate_roots", "count"),
    ("search.pattern_enum.roots_expanded", "count"),
    ("search.pattern_enum.patterns_checked", "count"),
    ("search.pattern_enum.subtrees_enumerated", "count"),
    ("search.pattern_enum.answers_per_pattern", "ratio"),
    ("search.linear_topk.candidate_roots", "count"),
    ("search.linear_topk.roots_expanded", "count"),
    ("search.linear_topk.patterns_checked", "count"),
    ("search.linear_topk.subtrees_enumerated", "count"),
    ("search.linear_topk.answers_per_pattern", "ratio"),
    ("search.bounds.roots_skipped_ratio", "ratio"),
    ("search.bounds.prefixes_skipped", "count"),
    ("search.bounds.pairs_skipped", "count"),
    ("serve.http.coalesced_ratio", "ratio"),
    ("serve.http.shed_ratio", "ratio"),
    ("serve.http.expired_ratio", "ratio"),
    ("gc.full_collections", "count"),
    ("index.delta.overlay_words", "count"),
    ("index.delta.overlay_postings", "count"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)

#: Per-layer metrics a workload may legitimately leave untouched.
_ZERO_WHEN_NOT_CROSSED = {
    name for name, unit in PER_LAYER if unit in ("count", "ratio")
} - {"trace.overhead_ratio"}


class Context:
    """What a workload run gets: its inputs and the shared fixtures."""

    def __init__(self, args, tracer, oracle, timings, work_dir,
                 interlude) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.tracer = tracer
        self.oracle = oracle
        self.setup_timings = timings
        #: Runs the next pending set-up and its cold opens; a workload
        #: calls it between its timed segments (``SEGMENTS`` - 1 times).
        self.interlude = interlude
        self.work_dir = work_dir
        self.index_path = work_dir / "wiki.v3"
        #: Extra set-up a workload pays before timing (server start and
        #: warm-up for ``serve-zipf``), added to ``setup_s``: wall time
        #: and at the reference speed (:meth:`add_extra_setup`).
        self.extra_setup_s = 0.0
        self.extra_setup_ref_s = 0.0

    def add_extra_setup(self, wall: float, reference: float) -> None:
        """Add ``wall`` seconds of extra set-up, ``reference`` seconds at
        the reference speed."""
        self.extra_setup_s += wall
        self.extra_setup_ref_s += reference


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _layer_metrics(outcome, tracer, setup_values) -> dict:
    values = dict(setup_values)
    unattributed = []
    for name, selfs in tracer.layer_self_ms().items():
        if name.endswith(".request"):
            # A root's self time is the part of its request no layer
            # span covers: pooled over every kind of request, and also
            # reported per kind.
            unattributed += selfs
            name = "trace.unattributed." + name[:-len(".request")]
        values[f"{name}_ms"] = statistics.median(selfs)
    values["trace.unattributed_ms"] = statistics.median(unattributed)
    values.update(outcome.report)
    metrics = {}
    for name, unit in PER_LAYER:
        if name not in values:
            if name not in _ZERO_WHEN_NOT_CROSSED:
                raise RuntimeError(f"per-layer metric {name} not measured")
            values[name] = 0
        metrics[name] = (float(values[name]), unit)
    outcome.report["layers"] = {
        key: value for key, value in sorted(values.items())
        if isinstance(value, (int, float))
    }
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # The program under test is the checkout's own source tree, never an
    # installed copy.
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # ``benchmarks/loadgen.py`` scrapes ``/metrics`` for serve-zipf.
    sys.path.append(str(ROOT / "benchmarks"))

    from repro.index.mmapstore import MappedPostingStore

    import core
    from spans import NullTracer, Tracer

    module = {
        "serve-zipf": "serve_zipf",
        "exec-unique": "exec_unique",
        "write-read": "write_read",
    }[args.workload]
    workload = __import__(module)

    from probes import COLD_OPENS_PER_POINT, Forker

    work_dir = ROOT / core.WORK_DIR
    work_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = Tracer() if args.trace else NullTracer()
    outcome = core.Outcome()
    forker = Forker()  # before this process grows; see its docstring
    index_path = work_dir / "wiki.v3"
    opens = []
    pending = 0 if args.trace else core.SETUP_REPEATS - 1
    #: The calibration loop's time at each segment boundary.
    calibrations = []

    def cold_opens():
        opens.extend(forker.opens(
            index_path, timings[0]["cold_query"], COLD_OPENS_PER_POINT
        ))

    def interlude():
        # The speed of a shared machine drifts over seconds to minutes,
        # so the later set-ups (and their cold opens) run between the
        # workload's timed segments: every metric then samples the whole
        # run instead of one stretch of it.
        nonlocal pending
        calibrations.append(core.calibrate())
        if pending:
            pending -= 1
            timings.append(forker.setup(work_dir / "wiki-setup.v3"))
            cold_opens()
            core.log(f"[{args.workload}] set-up {len(timings)} done")

    try:
        core.log(f"[{args.workload}] set-up and oracle ...")
        timing, oracle = core.setup_oracle(index_path)
        timings = [timing]
        cold_opens()
        calibrations.append(core.calibrate())
        core.log(f"[{args.workload}] set-up done")
        try:
            ctx = Context(args, tracer, oracle, timings, work_dir,
                          interlude)
            workload.run(ctx, outcome)
            while pending:
                interlude()
            calibrations.append(core.calibrate())
        finally:
            oracle.close()
    finally:
        forker.close()
        for leftover in work_dir.glob("*.v3*"):
            leftover.unlink()
    firsts = [o["first_answer_ref_ms"] for o in opens]
    outcome.metric("first_answer_ms", core.median(firsts), "ms")
    outcome.report.update({
        "host.loop_ms": calibrations,
        "host.loop_ms_p50": core.median(calibrations),
        "first_answer_ms_samples": firsts,
        "wall.first_answer_ms": core.median(
            [o["first_answer_ms"] for o in opens]
        ),
        "cold_open_loop_ms": [o["loop_ms"] for o in opens],
        "index.serialize.load_ms": core.median(
            [o["load_ms"] for o in opens]
        ),
        "cold_open_words_materialized": core.median(
            [o["words_materialized"] for o in opens]
        ),
    })
    thawed = outcome.report.setdefault(
        "index.mmapstore.stores_thawed",
        MappedPostingStore.backed_stores_thawed,
    ) + sum(o["stores_thawed"] for o in opens)
    outcome.report["index.mmapstore.stores_thawed"] = thawed
    if thawed:
        outcome.problems.append(f"{thawed} mapped stores were thawed")

    if args.trace:
        check = tracer.reconcile()
        outcome.report["trace.reconcile"] = check
        if check["max_mismatch_ms"] > 1e-6:
            outcome.problems.append(
                "per-layer self times do not sum to the traced request "
                f"time (worst {check['max_mismatch_ms']:.9f} ms)"
            )
        metrics = _layer_metrics(
            outcome, tracer, core.setup_layers(timings)
        )
        tracer.dump(work_dir / f"{stem}.spans.jsonl")
    else:
        setup_s = core.median([t["total_ref_s"] for t in timings])
        outcome.metric("setup_s", setup_s + ctx.extra_setup_ref_s, "s")
        outcome.report.update({
            "setup_s_samples": [t["total_ref_s"] for t in timings],
            "setup_extra_s": ctx.extra_setup_ref_s,
            "setup_loop_ms": [t["loop_ms"] for t in timings],
            "wall.setup_s": (
                core.median([t["total_s"] for t in timings])
                + ctx.extra_setup_s
            ),
        })
        missing = [n for n, _u in END_TO_END + PRINTED_ONLY
                   if n not in outcome.metrics]
        if missing:
            raise RuntimeError(f"end-to-end metrics not measured: {missing}")
        metrics = {name: outcome.metrics[name] for name, _u in END_TO_END}

    outcome.report["failed_ratio"] = (
        outcome.failed / outcome.attempted if outcome.attempted else 0.0
    )
    report = {
        "environment": core.environment(args.workload, args.seed),
        "problems": outcome.problems,
        "report": outcome.report,
    }
    core.write_json(work_dir / f"{stem}.json", report)
    print(json.dumps(report, indent=1, sort_keys=True, default=str))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:42s} {value:14.4f} {unit}")
    if not args.trace:
        tail = outcome.report["read_tail"]
        value, unit = outcome.metrics["read_tail_ms"]
        print(f"{args.workload:12s} {'read_tail_ms':42s} {value:14.4f} "
              f"{unit} (p{tail['percentile']:g} of {tail['samples']} "
              "samples; not in the result line)")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
