"""In-memory spans and counters for the traced benchmark run.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (``-1`` for a root). Spans are kept in a list while the
repetition runs and written out once at the end; nothing is flushed on the
hot path. A layer's self time is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    """Nested wall-clock spans plus named counters, one per repetition."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), 0.0,
                  self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def inside(self, name: str) -> bool:
        """True while a span called ``name`` is open."""
        return any(self.spans[i][0] == name for i in self._stack)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's, so a child that outlives
    its parent (clock skew, a span closed late) never drives self time
    below zero.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        clipped = [(max(lo, start), min(hi, end)) for lo, hi in children[i]
                   if min(hi, end) > max(lo, start)]
        out.append((end - start) - _covered(clipped))
    return out


def self_time_by_name(spans: list[list]) -> dict[str, float]:
    """Sum of self time over all spans sharing a name."""
    totals: dict[str, float] = defaultdict(float)
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[name] += own
    return dict(totals)


def total_time_by_name(spans: list[list]) -> dict[str, float]:
    """Inclusive time per name, counting only the outermost span of a name."""
    totals: dict[str, float] = defaultdict(float)
    for name, start, end, parent in spans:
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            totals[name] += end - start
    return dict(totals)
