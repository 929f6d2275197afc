"""In-memory spans around the benchmark's calls into each layer.

A span records its name, start, end, parent span, the workload, a run id and
an optional work count (pairs, records, requests). Spans stay in memory while
the benchmark runs and are written out as JSON Lines when it ends. A disabled
tracer records nothing, so the untraced run pays one no-op context manager
per layer call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    run: str
    count: int


class _NullSpan:
    count = 0


class Tracer:
    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.run = ""
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, count: int = 0):
        """Time the body; the yielded span's ``count`` may be set inside it."""
        if not self.enabled:
            yield _NullSpan()
            return
        span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else None, self.workload, self.run, count)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def of_run(self, run: str) -> list[Span]:
        return [s for s in self.spans if s.run == run]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def totals(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """name -> (summed duration in seconds, summed count)."""
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for s in spans:
        out[s.name][0] += s.end - s.start
        out[s.name][1] += s.count
    return {k: (v[0], v[1]) for k, v in out.items()}


def self_times(spans: list[Span]) -> dict[str, float]:
    """name -> summed self time: duration minus the time its children cover.

    Children of one span run one after another in this benchmark, so their
    durations add up without overlap.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - child_time[s.id]
    return dict(out)
