"""Span recorder, counters and self-time aggregation for the benchmark.

Spans are recorded only around calls the benchmark itself makes into a
library module; nothing inside the library is instrumented.  A span
carries its name, start, end, parent span and operation id.  A layer's
self time is its span's duration minus the part of that interval its
child spans cover.

``NullTracer`` is what the untraced (end-to-end) runs use: every hook
reduces to a plain call, so those runs measure the library alone.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    enabled = False

    def begin_op(self, op_id: str) -> None:
        pass

    def end_op(self) -> None:
        pass

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def gauge_max(self, name: str, value: float) -> None:
        pass

    def counting(self, name: str, fn):
        return fn


class Tracer(NullTracer):
    """Records spans in memory; :meth:`dump` writes them out at the end."""

    enabled = True

    def __init__(self):
        # (name, start, end, parent index or -1, op id)
        self.spans = []
        self.counters = defaultdict(int)
        self.gauges = {}
        self._stack = []
        self._op = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: str) -> None:
        self._op = op_id
        self._open("bench.op")

    def end_op(self) -> None:
        self._close(self._stack[-1])
        self._op = None

    def call(self, name: str, fn, *args, **kwargs):
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def gauge_max(self, name: str, value: float) -> None:
        self.gauges[name] = max(self.gauges.get(name, value), value)

    def counting(self, name: str, fn):
        counters = self.counters

        def wrapped(*args):
            counters[name] += 1
            return fn(*args)
        return wrapped

    @staticmethod
    def dump_all(tracers, path) -> None:
        """Write the spans of several tracers, one list per tracer."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "passes": [t.spans for t in tracers]}, fh)


def self_times(spans, by_op: bool = False) -> dict:
    """Total self time per span name, or per (name, op id) with
    ``by_op``: each span's duration minus the union of the intervals
    covered by its direct children.  Parent indices refer to ``spans``."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals = defaultdict(float)
    for index, (name, start, end, _, op) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            lo = max(c_start, reach)
            if c_end > lo:
                covered += c_end - lo
                reach = c_end
        totals[(name, op) if by_op else name] += (end - start) - covered
    return dict(totals)
