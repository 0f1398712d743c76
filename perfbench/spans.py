"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own files, around its calls into
the program's public functions: the program itself is not instrumented.
Each span has a name, start, end, parent and request id; spans are kept
in memory and written out once, when the run ends.

A layer's *self time* is its span's duration minus the part of that
interval covered by its child spans.  The self times of every span of
one request therefore sum to the request's root span: the root's own
self time is the part no layer span accounts for (``unattributed``).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "index")

    def __init__(self, name, start, parent, request, index):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.index = index

    @property
    def duration(self) -> float:
        return self.end - self.start


class _SpanContext:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc_info) -> None:
        self.span.end = time.perf_counter()
        self.tracer._stack.pop()


class Tracer:
    """Records nested spans; one request id per root span."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_request = 0

    def span(self, name: str) -> _SpanContext:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            request = self._next_request
            self._next_request += 1
        else:
            request = parent.request
        span = Span(
            name,
            time.perf_counter(),
            parent.index if parent is not None else None,
            request,
            len(self.spans),
        )
        self.spans.append(span)
        self._stack.append(span)
        return _SpanContext(self, span)

    # ------------------------------------------------------------ analysis

    def self_times(self) -> List[float]:
        """Per-span self time: duration minus the union of its children."""
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        result = []
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.index, ()),
                                key=lambda s: s.start):
                lo = max(child.start, cursor)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result.append(span.duration - covered)
        return result

    def layer_self_ms(self) -> Dict[str, List[float]]:
        """Span name -> self times in milliseconds, one per span."""
        layers: Dict[str, List[float]] = defaultdict(list)
        for span, own in zip(self.spans, self.self_times()):
            layers[span.name].append(own * 1000.0)
        return layers

    def reconcile(self) -> Dict[str, float]:
        """Check that each request's self times sum to its root span.

        Requests are the root spans named ``*.request``.
        Returns the request count, the worst absolute mismatch between
        the sum of self times and the root's duration, and the median
        unattributed share (the root's own self time over its duration).
        """
        own = self.self_times()
        sums: Dict[int, float] = defaultdict(float)
        for span, value in zip(self.spans, own):
            sums[span.request] += value
        worst = 0.0
        shares = []
        requests = 0
        for span, value in zip(self.spans, own):
            if span.parent is None and span.name.endswith(".request"):
                requests += 1
                worst = max(worst, abs(sums[span.request] - span.duration))
                if span.duration > 0:
                    shares.append(value / span.duration)
        shares.sort()
        return {
            "requests": requests,
            "max_mismatch_ms": worst * 1000.0,
            "unattributed_share_p50": (
                shares[len(shares) // 2] if shares else 0.0
            ),
        }

    def dump(self, path) -> None:
        """Write every span as one JSON line (name, times, parent, ids)."""
        own = self.self_times()
        with open(path, "w") as handle:
            for span, value in zip(self.spans, own):
                handle.write(json.dumps({
                    "id": span.index,
                    "name": span.name,
                    "request": span.request,
                    "parent": span.parent,
                    "start": span.start,
                    "end": span.end,
                    "self_ms": value * 1000.0,
                }) + "\n")


class _NullContext:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class NullTracer:
    """The untraced stand-in: same interface, records nothing."""

    def span(self, name: str) -> _NullContext:
        return _NULL_CONTEXT


def rename(span: Optional[Span], name: str) -> None:
    """Relabel a span once its outcome is known (e.g. cache hit/miss)."""
    if span is not None:
        span.name = name
