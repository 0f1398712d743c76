"""Shared pieces of the benchmark: set-up, oracle, reference speed, stats.

Set-up (dataset generation, ``build_indexes``, v3 ``save_indexes``) runs
in forked children, so the benchmark process itself never holds the heap
build and its peak RSS reflects serving alone.  The first set-up child
stays alive as the **oracle**: it keeps the heap build and answers with
a cold :class:`~repro.search.engine.TableAnswerEngine`, applies the same
writes as the measured mapped bundle (the heap twin), and generates the
query pools.  It is idle while anything is timed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datasets.queries import WorkloadConfig, generate_workload
from repro.datasets.wiki import generate_wiki_graph, scaled_wiki_config
from repro.index.builder import build_indexes
from repro.index.incremental import add_entity, add_relationship
from repro.index.serialize import save_indexes
from repro.search.engine import TableAnswerEngine

#: The dataset every workload serves: the scaled wiki synthetic at 10k
#: entities (its generator seed is fixed; ``--seed`` drives the traffic).
NUM_ENTITIES = 10_000
#: Path length bound of the index (the paper's default).
D = 3
#: Answers per query.
K = 10
#: Table rows rendered per answer, by the HTTP tier and by the oracle.
MAX_ROWS = 10
#: Seed of the query pools.  A pool is part of its workload, like the
#: dataset: ``--seed`` draws the traffic from it (order, Zipf draws,
#: writes), so runs with different seeds measure the same query mix
#: instead of a different sample of a heavy-tailed cost distribution.
POOL_SEED = 1409
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Timed segments of a workload; the set-ups after the first run between
#: them (``Context.interlude``).
SEGMENTS = SETUP_REPEATS
#: Where runs keep their index files, reports and traces (relative to
#: the checkout root the benchmark is started from).
WORK_DIR = Path(".perfbench_work")
#: Type and link names the write workload adds.
DELTA_TYPE = "delta_type"
DELTA_LINK = "delta_link"


# ------------------------------------------------------------- statistics


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


#: Percentiles a tail may be reported at, highest first, in tenths of a
#: percent (999 is p99.9).
TAIL_PERMILLE = (950, 900, 750, 500)


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest of :data:`TAIL_PERMILLE` with at least ten samples
    beyond it.

    Returns the value, the percentile it sits at, the sample count and
    how many samples lie beyond.  Stopping at the standard percentiles
    rather than at exactly ten samples keeps a tail of a few hundred
    samples at p95, where it measures the slow requests, instead of at
    p97-p98, where it measures whichever few a collector pause hit.
    With fewer than eleven samples the maximum is returned.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"value": 0.0, "percentile": 0.0, "samples": 0, "beyond": 0}
    index, percentile = n - 1, 100.0
    for permille in TAIL_PERMILLE:
        # Nearest rank: the smallest sample with at least this share of
        # the samples at or below it.
        rank = -(-permille * n // 1000)
        if n - rank >= 10:
            index, percentile = rank - 1, permille / 10.0
            break
    return {
        "value": ordered[index],
        "percentile": percentile,
        "samples": n,
        "beyond": n - 1 - index,
    }


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, tail and sample count of a list of timings."""
    return {"p50": median(values), "tail": tail(values)}


def peak_rss_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class GcPauses:
    """Counts the interpreter's full (generation 2) collections and their
    pause times while installed: a tail read can be a read that a full
    collection landed on."""

    def __init__(self) -> None:
        self.pauses_ms: List[float] = []
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pauses_ms.append(
                (time.perf_counter() - self._started) * 1000.0
            )

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)

    def report(self) -> Dict[str, float]:
        return {
            "gc.full_collections": len(self.pauses_ms),
            "gc.full_pause_ms_max": max(self.pauses_ms, default=0.0),
            "gc.full_pause_ms_total": sum(self.pauses_ms),
        }


# ------------------------------------------------------ reference speed
#
# A shared machine runs the same code at speeds up to 1.5x apart, for
# stretches of a second to minutes, so wall times of the same program
# differ that much from run to run.  Every time the benchmark reports is
# therefore also taken at a *reference speed*: the wall time is scaled
# by how long a fixed pure-Python loop, which does not touch the
# program, took right next to it.  A time ``t`` measured while the loop
# took ``loop`` ms is reported as ``t * REFERENCE_LOOP_MS / loop``: the
# time the operation would take on a machine that runs the loop in
# ``REFERENCE_LOOP_MS``.  A change to the program moves both the wall and
# the reference times; a slower host moves the wall time only.  Reports
# carry the wall times too (``wall.*``).

#: Iterations of the calibration loop.
LOOP_ITERATIONS = 20_000
#: The loop time that defines the reference speed (a constant, not a
#: measurement: about the loop's time on the two-vCPU machine the
#: bounds were set on).
REFERENCE_LOOP_MS = 1.0


def loop_ms() -> float:
    """One run of the calibration loop, in milliseconds."""
    started = time.perf_counter()
    total = 0
    for value in range(LOOP_ITERATIONS):
        total += value
    return (time.perf_counter() - started) * 1000.0


def calibrate(repeats: int = 21) -> float:
    """Median of ``repeats`` runs of the calibration loop (ms) on each
    core this process may use, pinned to one core at a time: the work
    it stands for (a set-up, a server and its workers) runs on any of
    them, and a shared host slows each core on its own."""
    cores = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for core in cores:
            os.sched_setaffinity(0, {core})
            times += [loop_ms() for _ in range(repeats)]
    finally:
        os.sched_setaffinity(0, cores)
    return statistics.median(times)


def _sample_speed(conn, period: float) -> None:
    cores = sorted(os.sched_getaffinity(0))
    times = []
    while not conn.poll(period):
        os.sched_setaffinity(0, {cores[len(times) % len(cores)]})
        times.append(loop_ms())
    conn.send(times)
    conn.close()


class SpeedSampler:
    """The calibration loop, run every ``period`` seconds in a process of
    its own, on each core in turn, while the measured work runs in other
    processes (the server and its pool workers): about 4% of one core.
    Having slept, the sampler is scheduled ahead of busy processes, so
    its loop measures the core's speed rather than how busy it is."""

    def __init__(self, period: float = 0.025) -> None:
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(target=_sample_speed,
                                   args=(child, period))
        self.process.start()
        child.close()
        self.loop: Optional[float] = None

    def stop(self) -> float:
        """Stop sampling (once); the median loop time (ms) while it ran."""
        if self.loop is None:
            self.conn.send(None)
            times = self.conn.recv()
            self.process.join()
            self.conn.close()
            self.loop = statistics.median(times) if times else calibrate()
        return self.loop

    def __enter__(self) -> "SpeedSampler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def sampled(run):
    """``run()`` with a :class:`SpeedSampler` alongside: its value, the
    wall seconds it took and those seconds at the reference speed."""
    with SpeedSampler() as sampler:
        started = time.perf_counter()
        value = run()
        wall = time.perf_counter() - started
    return value, wall, to_reference(wall, sampler.loop)


def to_reference(wall: float, loop: float) -> float:
    """A wall time taken while the loop ran in ``loop`` ms, at the
    reference speed (same unit as ``wall``)."""
    return wall * REFERENCE_LOOP_MS / loop


class Speed:
    """Running estimate of the machine's speed next to a stream of timed
    operations: the loop runs after every ``every``-th operation, outside
    its timing, and an operation is scaled by the median of the last
    ``window`` loop times."""

    def __init__(self, every: int = 5, window: int = 5) -> None:
        self.every = every
        self.window = window
        self.loops: List[float] = []
        self._count = 0

    def reference(self, wall: float) -> float:
        """Record one timed operation's wall time; return it at the
        reference speed."""
        if self._count % self.every == 0:
            self.loops.append(loop_ms())
            del self.loops[:-self.window]
        self._count += 1
        return to_reference(wall, statistics.median(self.loops))


# ------------------------------------------------------------ environment


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> Optional[str]:
    if not Path(".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10,
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def environment(workload: str, seed: int) -> dict:
    """What a result was measured on: cores, Python, scale, seeds, code."""
    return {
        "workload": workload,
        "cpu_count": os.cpu_count(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "num_entities": NUM_ENTITIES,
        "dataset_seed": scaled_wiki_config(NUM_ENTITIES).seed,
        "traffic_seed": seed,
        "d": D,
        "k": K,
        "commit": _commit(),
        "source_sha256": _source_digest(Path("src")),
    }


def nproc() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ----------------------------------------------------------- fingerprints


def fingerprint(result) -> str:
    """Digest of a result's scores, pattern keys, subtree counts and
    first ``MAX_ROWS`` subtree rows (the path entries a table renders)."""
    return hashlib.sha256(repr([
        (answer.score, tuple(answer.pattern_key), answer.num_subtrees,
         [tuple(combo) for combo in answer.subtrees[:MAX_ROWS]])
        for answer in result.answers
    ]).encode("utf-8")).hexdigest()


def table_fingerprint(result, graph) -> str:
    """Digest of scores, pattern keys, subtree counts and the rendered
    table rows, normalised through JSON like an HTTP response body."""
    answers = []
    for answer in result.answers:
        table = answer.to_table(graph, MAX_ROWS)
        answers.append([
            answer.score,
            list(answer.pattern_key),
            answer.num_subtrees,
            list(table.headers()),
            [list(row) for row in table.rows],
        ])
    return _digest(json.loads(json.dumps(answers)))


def body_fingerprint(body: dict) -> str:
    """:func:`table_fingerprint`, read from a ``/search?include_rows=1``
    response body."""
    return _digest([
        [a["score"], a["pattern_key"], a["num_subtrees"], a["columns"],
         a["rows"]]
        for a in body["answers"]
    ])


def _digest(answers: list) -> str:
    return hashlib.sha256(
        json.dumps(answers, sort_keys=True).encode("utf-8")
    ).hexdigest()


# ------------------------------------------------------- set-up and oracle


def _query_pool(indexes, per_size: int) -> List[Tuple[str, ...]]:
    """Distinct 1-4 keyword queries drawn with ``POOL_SEED``, sizes
    interleaved."""
    queries = generate_workload(
        indexes,
        WorkloadConfig(
            queries_per_size=per_size, min_keywords=1, max_keywords=4,
            seed=POOL_SEED,
        ),
    )
    pool = list(dict.fromkeys(queries))
    random.Random(POOL_SEED).shuffle(pool)
    return pool


def apply_write(indexes, op) -> None:
    if op[0] == "entity":
        add_entity(indexes, DELTA_TYPE, op[1])
    else:
        add_relationship(indexes, op[1], DELTA_LINK, op[2])


def _answer(engine, kind: str, requests) -> List[str]:
    graph = engine.graph
    digests = []
    for query, algorithm in requests:
        result = engine.search(list(query), k=K, algorithm=algorithm)
        digests.append(
            table_fingerprint(result, graph) if kind == "table"
            else fingerprint(result)
        )
    return digests


def _answer_part(conn, engine, kind: str, requests) -> None:
    conn.send(_answer(engine, kind, requests))
    conn.close()


def _answer_all(engine, kind: str, requests) -> List[str]:
    """Cold-engine digests for ``requests``, split over this process and
    forked helpers, one per core (nothing is timed while the oracle
    works, so it may use every core)."""
    helpers = min(nproc(), len(requests) // 32 + 1) - 1
    if helpers <= 0:
        return _answer(engine, kind, requests)
    ctx = multiprocessing.get_context("fork")
    parts = [requests[i::helpers + 1] for i in range(helpers + 1)]
    running = []
    for part in parts[1:]:
        parent, child = ctx.Pipe()
        process = ctx.Process(
            target=_answer_part, args=(child, engine, kind, part)
        )
        process.start()
        child.close()
        running.append((process, parent))
    results = [_answer(engine, kind, parts[0])]
    for process, parent in running:
        results.append(parent.recv())
        process.join()
        parent.close()
    merged: List[str] = [""] * len(requests)
    for offset, digests in enumerate(results):
        merged[offset::helpers + 1] = digests
    return merged


def setup_child(conn, path: str, stay: bool) -> None:
    """Forked set-up: generate, build, save; then (``stay``) the oracle.

    A :class:`SpeedSampler` runs alongside, for the set-up's time at the
    reference speed."""
    walls = []

    def step(run):
        started = time.perf_counter()
        value = run()
        walls.append(time.perf_counter() - started)
        return value

    with SpeedSampler() as sampler:
        graph = step(lambda: generate_wiki_graph(
            scaled_wiki_config(NUM_ENTITIES)
        ))
        indexes = step(lambda: build_indexes(graph, d=D))
        file_bytes = step(lambda: save_indexes(indexes, path, version=3))
    loop = sampler.loop
    conn.send({
        "total_ref_s": to_reference(sum(walls), loop),
        "loop_ms": loop,
        "generate_s": walls[0],
        "build_s": walls[1],
        "save_s": walls[2],
        "total_s": sum(walls),
        "file_bytes": file_bytes,
        "num_nodes": indexes.graph.num_nodes,
        "cold_query": _query_pool(indexes, 1)[0],
    })
    if not stay:
        conn.close()
        return
    engine = TableAnswerEngine(indexes.graph, indexes=indexes)
    while True:
        try:
            command, payload = conn.recv()
        except EOFError:
            break
        if command == "close":
            break
        if command == "pool":
            conn.send(_query_pool(indexes, payload))
        elif command == "answer":
            conn.send(_answer_all(engine, *payload))
        elif command == "write":
            for op in payload:
                apply_write(indexes, op)
            conn.send(indexes.graph.num_nodes)
    conn.close()


class Oracle:
    """Handle on the oracle child (heap build, cold engine, heap twin)."""

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn

    def _call(self, command: str, payload=None):
        self.conn.send((command, payload))
        return self.conn.recv()

    def query_pool(self, per_size: int) -> List[Tuple[str, ...]]:
        """The workload's query pool (``per_size`` queries per size)."""
        return self._call("pool", per_size)

    def submit(self, requests: Sequence[Tuple[tuple, str]],
               kind: str = "rows") -> None:
        """Ask for the digests of ``(query, algorithm)`` pairs as a cold
        engine answers them (:func:`fingerprint`, or
        :func:`table_fingerprint` for ``kind="table"``); :meth:`collect`
        receives them."""
        self.conn.send(("answer", (kind, list(requests))))

    def collect(self) -> List[list]:
        return self.conn.recv()

    def write(self, ops: Sequence[tuple]) -> int:
        """Apply the same writes to the heap twin; returns its node count."""
        return self._call("write", list(ops))

    def close(self) -> None:
        try:
            self.conn.send(("close", None))
        except (OSError, ValueError):
            pass
        self.process.join(timeout=30)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.conn.close()


def setup_oracle(path: Path) -> Tuple[dict, Oracle]:
    """The first set-up, whose child stays as the oracle; its timings."""
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe()
    process = ctx.Process(target=setup_child, args=(child, str(path), True))
    process.start()
    child.close()
    return parent.recv(), Oracle(process, parent)


def setup_layers(timings: List[dict]) -> Dict[str, float]:
    """Per-layer set-up figures (medians over the set-ups run)."""
    return {
        "datasets.generate_s": median([t["generate_s"] for t in timings]),
        "index.builder.build_s": median([t["build_s"] for t in timings]),
        "index.serialize.save_s": median([t["save_s"] for t in timings]),
        "index.serialize.file_bytes": timings[-1]["file_bytes"],
    }


# ----------------------------------------------------------------- output


class Outcome:
    """What a workload run hands back to ``run.py``."""

    def __init__(self) -> None:
        #: Contract metrics: name -> (value, unit).
        self.metrics: Dict[str, Tuple[float, str]] = {}
        #: Everything else worth recording (sample counts, percentiles,
        #: workload-specific figures), printed as the report.
        self.report: Dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        #: Oracle and self-consistency failures, one line each.
        self.problems: List[str] = []

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def write_json(path: Path, obj) -> None:
    with open(path, "w") as handle:
        json.dump(obj, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")


_STARTED = time.perf_counter()


def log(message: str) -> None:
    """Progress on standard error, stamped with seconds since start."""
    elapsed = time.perf_counter() - _STARTED
    print(f"[{elapsed:7.2f}s] {message}", file=sys.stderr, flush=True)
