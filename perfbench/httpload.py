"""HTTP clients for ``serve-zipf``: open loop at a fixed rate, and closed.

The open loop follows the scheme of ``benchmarks/loadgen.py``: request
*i* is due at ``start + i / rate`` whether or not earlier requests have
completed, and latency runs from the due time, so a stall is charged to
every request it delays.  Each client holds one keep-alive connection
and takes the next request from a shared counter when it is free, so a
slow response delays later requests only when every connection is
busy (``loadgen.py`` pins request *i* to client ``i % clients``, which
queues requests behind one slow response while another connection
idles).  Each request also records how late the generator itself sent
it (``lag``): the time from when its client was free and the request
was due to when it went out.  A large lag means the generator, not the
server, was the bottleneck.  ``/metrics`` is scraped with
``loadgen.fetch_metrics``.
"""

from __future__ import annotations

import http.client
import threading
import time
from typing import List, Sequence, Set

#: Client socket timeout, seconds.
TIMEOUT = 60.0


class Observation:
    __slots__ = ("index", "status", "latency", "lag", "body")

    def __init__(self, index, status, latency, lag, body=None):
        self.index = index
        self.status = status
        #: Seconds from the due time (open loop) or the send (closed
        #: loop) to the full response.
        self.latency = latency
        self.lag = lag
        self.body = body


class LoadResult:
    """Every observation of one run, and its wall time."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.observations: List[Observation] = []

    @property
    def achieved(self) -> float:
        done = sum(1 for o in self.observations if o.status == 200)
        return done / self.wall if self.wall else 0.0

    def latencies_ms(self) -> List[float]:
        return [o.latency * 1000.0 for o in self.observations
                if o.status == 200]

    def lags_ms(self) -> List[float]:
        return [o.lag * 1000.0 for o in self.observations]

    def failures(self) -> int:
        return sum(1 for o in self.observations if o.status != 200)


def _split(address: str):
    host, _, port = address.rpartition(":")
    return host, int(port)


def _request(conn, path):
    conn.request("GET", path)
    response = conn.getresponse()
    return response.status, response.read()


def _run(address, paths, clients, rate, duration, keep: Set[int]):
    host, port = _split(address)
    result = LoadResult()
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)
    stop_at: List[float] = [0.0]
    counter = iter(range(len(paths)))

    def client() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=TIMEOUT)
        barrier.wait()
        start = stop_at[0] - duration
        free = start
        mine: List[Observation] = []
        while True:
            with lock:
                index = next(counter, None)
            if index is None:
                break
            if rate is not None:
                due = start + index / rate
                if due >= stop_at[0]:
                    break
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            elif time.perf_counter() >= stop_at[0]:
                break
            sent = time.perf_counter()
            if rate is None:
                due = sent
            lag = sent - max(due, free)
            try:
                status, body = _request(conn, paths[index])
            except (OSError, http.client.HTTPException):
                conn.close()
                conn = http.client.HTTPConnection(host, port, timeout=TIMEOUT)
                status, body = 0, b""
            free = time.perf_counter()
            mine.append(Observation(
                index, status, free - due, lag,
                body if index in keep else None,
            ))
        conn.close()
        with lock:
            result.observations.extend(mine)

    threads = [
        threading.Thread(target=client, daemon=True) for _ in range(clients)
    ]
    for thread in threads:
        thread.start()
    # Let every client reach the barrier before the first due time.
    stop_at[0] = time.perf_counter() + 0.05 + duration
    barrier.wait()
    for thread in threads:
        thread.join()
    result.wall = max(
        time.perf_counter() - (stop_at[0] - duration), 1e-9
    )
    result.observations.sort(key=lambda o: o.index)
    return result


def open_loop(address: str, paths: Sequence[str], rate: float,
              clients: int, duration: float,
              keep: Set[int] = frozenset()) -> LoadResult:
    """Send ``paths[i]`` at ``start + i / rate`` until ``duration`` is
    over; keep the bodies of the indexes in ``keep``."""
    return _run(address, paths, clients, rate, duration, keep)


def closed_loop(address: str, paths: Sequence[str], clients: int,
                duration: float,
                keep: Set[int] = frozenset()) -> LoadResult:
    """Each client sends its next request as soon as the last returns."""
    return _run(address, paths, clients, None, duration, keep)
