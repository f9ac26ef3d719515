"""The benchmark's own span recorder.

Spans are recorded from the benchmark's files, around the calls into each
layer (the program itself is not instrumented in this PR). A span is
``(id, name, start, end, parent, trace)``: ``parent`` is the span that
caused it, ``trace`` is one id per fit or per request. Spans stay in
memory until the run ends and are then written as JSON lines.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (children may overlap each other, so the
covered part is the union of their intervals, clipped to the parent).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

__all__ = ["Span", "Tracer", "self_times", "summarize"]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    trace: str


class Tracer:
    """Thread-safe in-memory span store with an injectable clock."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()

    def add(self, name: str, start: float, end: float, *, trace: str,
            parent: int | None = None) -> int:
        """Record a finished span (also how reported durations such as a
        worker's W time become spans); returns its id."""
        with self._lock:
            sid = len(self.spans)
            self.spans.append(Span(sid, name, float(start), float(end), parent, trace))
        return sid

    @contextmanager
    def span(self, name: str, *, trace: str, parent: int | None = None):
        """Time a block; yields the span id children should name as parent."""
        with self._lock:
            sid = len(self.spans)
            span = Span(sid, name, self.clock(), float("nan"), parent, trace)
            self.spans.append(span)
        try:
            yield sid
        finally:
            span.end = self.clock()

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            p = by_id[s.parent]
            children.setdefault(s.parent, []).append(
                (max(s.start, p.start), min(s.end, p.end))
            )
    return {
        s.id: (s.end - s.start) - _covered(children.get(s.id, []))
        for s in spans
    }


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: count, total seconds and total self seconds."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += selfs[s.id]
    return out
