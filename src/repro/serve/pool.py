"""Fork-pool execution backend for the HTTP serving tier.

The asyncio dispatch loop (:mod:`repro.serve.http`) bridges request
execution to a ``ThreadPoolExecutor``, which the GIL caps at ~1×
single-thread throughput for the pure-Python top-k loops.  This module
adds the multi-core path ``docs/serving.md`` flags as the next capacity
unlock: :class:`PooledSearchService` is a drop-in
:class:`~repro.search.service.SearchService` whose cache-miss
executions cross to N long-lived **fork workers** instead of running
inline.

Division of labor — the parent keeps every piece of dispatch state:

* admission, deadlines, and in-flight coalescing stay on the asyncio
  loop (a worker never sees a shed or expired request);
* the result LRU, fragment tier, and term-resolution tier stay in the
  parent — only result-cache **misses** cross a pipe, and the completed
  result populates the parent caches so coalesced followers and repeat
  requests are served without touching the pool;
* workers are pure executors: they inherit the serving snapshot through
  the forked address space (``MappedPostingStore`` pages are shared
  copy-free — nothing index-sized is pickled, heap columns are
  copy-on-write) and answer canonical
  :class:`~repro.search.plan.QueryPlan` objects over tagged duplex
  pipes with the portable ``(score, pattern_key, num_subtrees,
  PathEntry-tuple combos, estimated_score)`` rows of
  :func:`~repro.search.sharding.portable_answers`, so
  ``include_rows=True`` (and ``search_many`` batches with kept subtree
  rows) work across the pipe.

Invalidation is the service's own version-guard protocol, one level up:
the pool is tagged with the store version it was forked at, and a
version mismatch at execution time closes it and forks a fresh pool
from the new snapshot — workers can never serve a stale snapshot.
Worker death (crash, OOM-kill, SIGKILL fault injection) is detected by
pipe liveness, answered by **inline failover** in the parent (the
request still gets a bit-identical answer), counted in
``ServiceStats.worker_failovers``, and healed by respawning the dead
slot.

Composing with ``--shards``: sharding is a property of the service, not
a process topology, so the composition is **parent dispatch → fork
worker → in-process merge over the inherited partition**.  Each worker
holds the whole :class:`~repro.index.shards.ShardedIndexes` partition
and runs :func:`~repro.search.sharding.execute_sharded_plan` — the same
function :class:`~repro.search.service.SearchService` runs inline, and
the one an inline failover runs in the parent — so shard skip counters
flow unchanged.  One process per concurrent request parallelizes the
stream without oversubscribing the cores and keeps the failure domain
one pipe wide.  See ``docs/serving.md``.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from typing import List, Optional

from repro.core.errors import SearchError
from repro.index.builder import PathIndexes
from repro.index.shards import ShardedIndexes
from repro.search.context import EnumerationContext
from repro.search.plan import QueryPlan
from repro.search.result import SearchResult
from repro.search.service import SearchService
from repro.search.sharding import (
    execute_shard_plan,
    execute_sharded_plan,
    plan_shardable,
    portable_answers,
    result_from_portable,
    shard_upper_bounds,
)

DEFAULT_POOL_PROCESSES = 2


class PoolWorkerError(SearchError):
    """A fork-pool worker died or stopped responding mid-request."""


def _execute_portable(
    bundle: PathIndexes, sharded: Optional[ShardedIndexes], plan: QueryPlan
):
    """Worker-side execution: a plan in, portable answers + stats out.

    Plain pools (and non-shardable plans on sharded pools) run the whole
    plan against the inherited snapshot; sharded pools run the merge
    loop over the inherited partition — the same
    :func:`execute_sharded_plan` ``SearchService`` runs inline, so the
    two spines produce bit-identical answers by construction.
    """
    if sharded is None or not plan_shardable(plan):
        return execute_shard_plan(bundle, plan)
    context = EnumerationContext(bundle, plan.resolved_query())
    result = execute_sharded_plan(
        bundle,
        plan,
        sharded,
        shard_upper_bounds(sharded, context, plan.scoring),
        candidate_roots=len(context.candidate_roots),
    )
    return portable_answers(result), result.stats


def _pool_worker_main(
    bundle: PathIndexes, sharded: Optional[ShardedIndexes], conn
) -> None:
    """One pool worker: handshake, then serve plans until told to stop.

    Protocol (all tuples): receives ``("execute", tag, plan)`` and
    answers ``("ok", tag, (portable_answers, stats))`` or
    ``("error", tag, message)``; ``("stop",)`` exits cleanly;
    ``("exit",)`` hard-kills immediately and ``("arm_exit",)`` arms a
    hard kill *after the next plan is received but before it is
    answered* — the deterministic mid-request death hook the
    fault-injection tests use.  The tag is echoed so a stale response
    left in the pipe by a timed-out request is discarded, never
    mismatched.  Pre-warm happens in the parent before the fork (once,
    not N times), so workers are born warm.
    """
    die_on_next = False
    try:
        conn.send(("ready",))
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "stop":
                break
            if kind == "exit":
                os._exit(1)
            if kind == "arm_exit":
                die_on_next = True
            elif kind == "execute":
                _, tag, plan = message
                if die_on_next:
                    os._exit(1)
                try:
                    payload = _execute_portable(bundle, sharded, plan)
                except Exception as exc:  # noqa: BLE001 - report, don't die
                    conn.send(("error", tag, f"{type(exc).__name__}: {exc}"))
                else:
                    conn.send(("ok", tag, payload))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent went away; nothing to report to
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass


class _PoolWorker:
    __slots__ = ("process", "conn", "tag", "busy", "executed", "respawns")

    def __init__(self, process, conn, respawns: int = 0) -> None:
        self.process = process
        self.conn = conn
        self.tag = 0
        self.busy = False
        self.executed = 0
        self.respawns = respawns


class ForkWorkerPool:
    """N interchangeable fork workers behind a free-slot queue.

    Every worker can execute every plan, and N requests execute
    concurrently — one executor thread owns one worker slot for the
    duration of a request,
    so each duplex pipe still has exactly one user at a time and needs
    no multiplexing.  Fork-only by design: the snapshot (and the
    optional shard partition) is inherited through the forked address
    space, never pickled.
    """

    def __init__(
        self,
        bundle: PathIndexes,
        num_workers: int,
        sharded: Optional[ShardedIndexes] = None,
        timeout: float = 60.0,
    ) -> None:
        import multiprocessing

        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-fork platform
            raise SearchError(
                f"the fork-pool backend requires the fork start method: "
                f"{exc}"
            ) from exc
        if num_workers < 1:
            raise SearchError(
                f"num_workers must be >= 1, got {num_workers}"
            )
        self.bundle = bundle
        self.sharded = sharded
        self.num_workers = num_workers
        self.timeout = timeout
        self.store_version = bundle.store.version
        self.closed = False
        self._respawn_lock = threading.Lock()
        self._workers: List[Optional[_PoolWorker]] = [None] * num_workers
        self._free: "queue.Queue[int]" = queue.Queue()
        try:
            for slot in range(num_workers):
                self._workers[slot] = self._spawn(slot)
            for slot in range(num_workers):
                self._await_ready(slot)
        except BaseException:
            self.close()
            raise
        for slot in range(num_workers):
            self._free.put(slot)

    # ----------------------------------------------------------- lifecycle

    def _spawn(self, slot: int, respawns: int = 0) -> _PoolWorker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_pool_worker_main,
            args=(self.bundle, self.sharded, child_conn),
            daemon=True,
            name=f"repro-pool-{slot}",
        )
        process.start()
        child_conn.close()
        return _PoolWorker(process, parent_conn, respawns=respawns)

    def _await_ready(self, slot: int) -> None:
        worker = self._workers[slot]
        message = self._recv(worker, self.timeout, slot)
        if message != ("ready",):
            raise PoolWorkerError(
                f"pool worker {slot} sent {message!r} instead of the "
                "ready handshake"
            )

    def respawn(self, slot: int) -> None:
        """Replace a dead (or wedged) worker with a fresh one."""
        with self._respawn_lock:
            if self.closed:
                return
            respawns = 0
            worker = self._workers[slot]
            if worker is not None:
                respawns = worker.respawns + 1
            self._discard(slot)
            self._workers[slot] = self._spawn(slot, respawns=respawns)
            self._await_ready(slot)

    def _discard(self, slot: int) -> None:
        worker = self._workers[slot]
        if worker is None:
            return
        self._workers[slot] = None
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():  # pragma: no cover - stuck in syscall
            worker.process.kill()
            worker.process.join(timeout=5.0)

    def kill_worker(self, slot: int) -> None:
        """Hard-kill one worker (SIGKILL) — the fault-injection hook."""
        worker = self._workers[slot]
        if worker is not None and worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=5.0)

    def arm_exit(self, slot: int) -> None:
        """Arm a deterministic mid-request death: the worker will
        ``os._exit(1)`` after receiving its next plan, before answering
        — so the killing request itself exercises inline failover."""
        worker = self._workers[slot]
        if worker is not None and worker.process.is_alive():
            worker.conn.send(("arm_exit",))

    def alive_workers(self) -> int:
        return sum(
            1
            for worker in self._workers
            if worker is not None and worker.process.is_alive()
        )

    def close(self) -> None:
        """Stop every worker; idempotent."""
        if self.closed:
            return
        self.closed = True
        for worker in self._workers:
            if worker is None:
                continue
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for slot in range(len(self._workers)):
            self._discard(slot)

    # ----------------------------------------------------------- execution

    def execute(self, plan: QueryPlan):
        """Run ``plan`` on any free worker; raises
        :class:`PoolWorkerError` when the slot's worker is dead, hangs
        up mid-request, or stays silent past the pool timeout (the
        caller then fails over inline).  The dead slot is respawned
        before the error propagates, so the pool is whole again by the
        time the failover answer is served.
        """
        try:
            slot = self._free.get(timeout=self.timeout)
        except queue.Empty:
            raise PoolWorkerError(
                f"no free pool worker within {self.timeout:g}s"
            ) from None
        try:
            return self._execute_on_slot(slot, plan)
        except PoolWorkerError:
            self.respawn(slot)
            raise
        finally:
            worker = self._workers[slot]
            if worker is not None:
                worker.busy = False
            if not self.closed:
                self._free.put(slot)

    def _execute_on_slot(self, slot: int, plan: QueryPlan):
        worker = self._workers[slot]
        if worker is None or not worker.process.is_alive():
            raise PoolWorkerError(f"pool worker {slot} is not alive")
        worker.busy = True
        worker.tag += 1
        tag = worker.tag
        try:
            worker.conn.send(("execute", tag, plan))
        except (BrokenPipeError, OSError) as exc:
            raise PoolWorkerError(
                f"pool worker {slot} pipe is broken: {exc}"
            ) from exc
        while True:
            message = self._recv(worker, self.timeout, slot)
            if message[0] == "ok" and message[1] == tag:
                worker.executed += 1
                return message[2]
            if message[0] == "error" and message[1] == tag:
                raise SearchError(
                    f"pool worker {slot} failed executing the plan: "
                    f"{message[2]}"
                )
            # A stale response from a request that timed out earlier:
            # discard and keep waiting for our tag.

    def _recv(self, worker: _PoolWorker, timeout: float, slot: int):
        """One message from a worker, with liveness-aware waiting."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                if worker.conn.poll(0.05):
                    return worker.conn.recv()
            except (EOFError, OSError) as exc:
                raise PoolWorkerError(
                    f"pool worker {slot} hung up: {exc}"
                ) from exc
            if not worker.process.is_alive():
                raise PoolWorkerError(
                    f"pool worker {slot} died (exit code "
                    f"{worker.process.exitcode})"
                )
            if time.monotonic() >= deadline:
                raise PoolWorkerError(
                    f"pool worker {slot} did not answer within {timeout:g}s"
                )

    # ----------------------------------------------------------- reporting

    def worker_snapshot(self) -> List[dict]:
        """Per-worker gauges for ``/metrics``: busy flag, lifetime
        executed count, and respawn count per slot."""
        rows = []
        for slot, worker in enumerate(self._workers):
            rows.append(
                {
                    "worker": slot,
                    "alive": bool(
                        worker is not None and worker.process.is_alive()
                    ),
                    "busy": bool(worker is not None and worker.busy),
                    "executed": worker.executed if worker is not None else 0,
                    "respawns": worker.respawns if worker is not None else 0,
                }
            )
        return rows

    def free_slots(self) -> int:
        return self._free.qsize()


class PooledSearchService(SearchService):
    """Drop-in service whose executions run on a fork-worker pool.

    Same caches, same snapshot protocol, bit-identical answers as
    :class:`~repro.search.service.SearchService` — with cache-miss
    executions crossing to :class:`ForkWorkerPool` workers.  The pool
    is built lazily on the first poolable execution and rebuilt whenever
    the store version moves.  ``num_shards`` / ``sharded`` (and every
    other :class:`~repro.search.service.SearchService` option) pass
    through: workers then run the merge loop over the inherited
    partition (module docstring).  Call :meth:`close` (or use as a
    context manager) to reap the workers.

    Only the ``baseline`` algorithm routes inline: it walks the live
    graph, which a forked worker froze at pool-build time.  Every
    store-reading plan — including sampled LETopK, whose single seeded
    RNG stream runs whole inside one worker — crosses the pipe.
    """

    def __init__(
        self,
        indexes: PathIndexes,
        processes: int = DEFAULT_POOL_PROCESSES,
        worker_timeout: float = 60.0,
        **kwargs,
    ) -> None:
        if processes < 1:
            raise SearchError(f"processes must be >= 1, got {processes}")
        super().__init__(indexes, **kwargs)
        self.processes = processes
        self.worker_timeout = worker_timeout
        self.stats.execution_backend = (
            "fork-pool+sharded" if self.num_shards else "fork-pool"
        )
        self.stats.execution_workers = processes
        self._pool: Optional[ForkWorkerPool] = None
        #: Guards pool lifecycle only — executions run outside it, N at
        #: a time, each owning one worker slot.
        self._pool_lock = threading.Lock()

    # ----------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Reap the worker pool (the service stays usable; the next
        poolable execution forks a fresh pool)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.close()
                self._pool = None

    def _ensure_pool(self, snap: PathIndexes) -> ForkWorkerPool:
        """The pool for the serving version, rebuilt when the store
        moved — the service's version-guard protocol, one level up."""
        version = snap.store.version
        pool = self._pool
        if pool is not None and not pool.closed and (
            pool.store_version == version
        ):
            return pool
        with self._pool_lock:
            pool = self._pool
            if pool is not None and not pool.closed and (
                pool.store_version == version
            ):
                return pool  # another thread rebuilt while we waited
            if pool is not None:
                pool.close()
                self._pool = None
            sharded = self._partition(snap) if self.num_shards else None
            # Warm in the parent, once, before the fork: every worker
            # inherits the boxed query columns (a range fill over every
            # path) and bound columns copy-on-write.  Mapped stores keep
            # their bound columns lazy per word and are never thawed by
            # warming.
            snap.store.warm_query_caches()
            if sharded is not None:
                for shard in sharded.shards:
                    shard.store.warm_query_caches()
            self._pool = ForkWorkerPool(
                snap,
                self.processes,
                sharded=sharded,
                timeout=self.worker_timeout,
            )
            self.stats.bump(pool_rebuilds=1)
            return self._pool

    def __repr__(self) -> str:
        pool = "up" if self._pool is not None and not self._pool.closed else "down"
        return (
            f"PooledSearchService(processes={self.processes}, pool={pool}, "
            f"{super().__repr__()[len('SearchService('):]}"
        )

    # ----------------------------------------------------------- execution

    def _plan_poolable(self, plan: QueryPlan) -> bool:
        return plan.algorithm != "baseline"

    def _execute_on(self, snap: PathIndexes, plan: QueryPlan) -> SearchResult:
        if not self._plan_poolable(plan):
            return super()._execute_on(snap, plan)
        pool = self._ensure_pool(snap)
        try:
            portable, stats = pool.execute(plan)
        except PoolWorkerError:
            # Inline failover: the request still gets its bit-identical
            # answer from the parent's own snapshot; the dead slot was
            # respawned by the pool before the error reached us.
            self.stats.bump(worker_failovers=1)
            return super()._execute_on(snap, plan)
        return result_from_portable(snap, plan, portable, stats)

    # ----------------------------------------------------------- reporting

    def worker_snapshot(self) -> List[dict]:
        """Per-worker pool gauges (empty before the first execution —
        the pool is lazy)."""
        pool = self._pool
        if pool is None or pool.closed:
            return []
        return pool.worker_snapshot()

    def pool_info(self) -> dict:
        pool = self._pool
        return {
            "backend": self.stats.execution_backend,
            "processes": self.processes,
            "num_shards": self.num_shards,
            "built": bool(pool is not None and not pool.closed),
            "free_slots": (
                pool.free_slots()
                if pool is not None and not pool.closed
                else 0
            ),
            "store_version": (
                pool.store_version
                if pool is not None and not pool.closed
                else None
            ),
        }

    def kill_worker(self, slot: int) -> None:
        """Fault-injection passthrough (tests, BENCH_9)."""
        if self._pool is not None:
            self._pool.kill_worker(slot)

    def arm_exit(self, slot: int) -> None:
        """Fault-injection passthrough: deterministic mid-request death."""
        if self._pool is not None:
            self._pool.arm_exit(slot)
