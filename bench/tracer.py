"""In-memory spans around the benchmark's calls into the package's layers.

Every call the workloads make into ``latentvar`` goes through ``call``.  The
untraced run passes a ``NullTracer``, so both runs execute the same code and
the traced run differs only by the span bookkeeping.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass
class Span:
    """One timed call: ``parent`` is the id of the span that caused it."""

    sid: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Records nothing; ``call`` is a plain call."""

    enabled = False

    def span(self, name: str):
        return nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Keeps every span in memory until the run writes them out."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(rec)
        self._stack.append(rec.sid)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def children(self, sid: int) -> list[Span]:
        return [s for s in self.spans if s.parent == sid]

    def as_records(self) -> list[dict]:
        return [
            {"id": s.sid, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end}
            for s in self.spans
        ]
