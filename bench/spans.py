"""In-memory spans for the traced benchmark run.

A span records one call the benchmark makes into a layoutkit module: its
name (``module.function``), start and end in nanoseconds, the index of the
enclosing span, the operation it belongs to, and whether the call returned
normally.  Spans are appended to a list and only summarised when the run
ends, so recording one costs two clock reads and a tuple.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: Optional[int]
    op: int
    ok: bool


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.op = 0
        #: name -> [sum, samples] of counts recorded at span boundaries
        self.counts: Dict[str, List[int]] = defaultdict(lambda: [0, 0])

    def call(self, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` inside a span named ``name``; the span's slot is
        taken when it opens, so a parent precedes its children."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        ok = False
        start = perf_counter_ns()
        try:
            out = fn(*args)
            ok = True
            return out
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent, self.op, ok)

    def next_op(self) -> None:
        self.op += 1

    def add(self, name: str, value: int = 1) -> None:
        c = self.counts[name]
        c[0] += value
        c[1] += 1


def self_times(spans: List[Span]) -> List[int]:
    """Each span's duration minus the part of its interval covered by the
    union of its children's intervals."""
    children: Dict[int, List[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0
        lo = s.start
        for c in sorted(children[i], key=lambda k: spans[k].start):
            a, b = max(spans[c].start, lo), min(spans[c].end, s.end)
            if b > a:
                covered += b - a
                lo = b
        out.append(s.end - s.start - covered)
    return out


def median_us(spans: List[Span], name: str) -> Optional[float]:
    """Median duration in microseconds of the successful spans named
    ``name``; None when there are none."""
    d = [s.end - s.start for s in spans if s.name == name and s.ok]
    return statistics.median(d) / 1e3 if d else None


def self_time_by_name(spans: List[Span]) -> Dict[str, int]:
    """Total self time in nanoseconds per span name."""
    out: Dict[str, int] = defaultdict(int)
    for s, t in zip(spans, self_times(spans)):
        out[s.name] += t
    return dict(out)
