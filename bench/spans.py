"""In-memory spans around the benchmark's calls into the library.

A span is (name, start, end, parent, query) plus optional counts recorded
at the same boundary. Spans stay in memory and are written to one JSON file
when the run ends. Tracing off is a separate code path in the workloads, so
untraced runs never touch this module.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    query: int | None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, query: int | None = None, **counts):
        """Time the body; the innermost open span is the parent. Yields the
        span's counts dict, so the body can add counts it measures."""
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        if query is None and parent is not None:
            query = self.spans[parent].query
        rec = Span(name, 0.0, 0.0, parent, query, dict(counts))
        self.spans.append(rec)
        self._open.append(sid)
        rec.start = time.perf_counter()
        try:
            yield rec.counts
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def by_query(self, name: str) -> dict:
        """query id -> summed seconds of the spans called `name` for it."""
        out: dict = defaultdict(float)
        for s in self.named(name):
            out[s.query] += s.seconds
        return out

    def self_seconds(self) -> dict:
        """Per span name: total duration minus the time its children cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        out: dict = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s.name] += s.seconds - child[i]
        return dict(out)

    def write(self, path, summary: dict) -> None:
        """One JSON file: the spans (times relative to the first span) and a summary."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = []
        for s in self.spans:
            row = asdict(s)
            row["start"] -= t0
            row["end"] -= t0
            rows.append(row)
        doc = {"summary": summary, "self_seconds": self.self_seconds(), "spans": rows}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
