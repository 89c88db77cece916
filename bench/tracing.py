"""In-memory spans around the benchmark's own calls into pairsim.

A span holds a name, a start, an end and the id of the span that was open
when it started.  The first dot-separated part of a name is the layer (the
pairsim module called, or ``bench`` for the benchmark's own grouping
spans).  Spans are kept in memory and written out once, at the end of a run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._stack[-1] if tracer._stack else None
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, time.perf_counter(), None, parent])
        tracer._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer.spans[self.index][2] = time.perf_counter()
        tracer._stack.pop()
        return False


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class Tracer:
    """Records spans while ``enabled``; otherwise ``span`` costs one branch."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_time_by_layer(self) -> dict[str, float]:
        """Span duration minus the time its direct children cover, summed per layer."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += (end - start) - child_time[index]
        return dict(out)

    def write(self, path) -> None:
        records = [
            {"id": i, "name": n, "start": s, "end": e, "parent": p}
            for i, (n, s, e, p) in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": records}, fh)
