"""In-memory spans recorded around the benchmark's calls into the library.

A span is opened with ``tracer.span(name)`` and closes when its ``with`` block
ends; it nests under the innermost span still open. The runner opens one
``request`` span per request and the workloads open one ``<layer>.<function>``
span around each public library call, so a layer's busy time is the summed
duration of its spans and a request's self time is what its children leave
uncovered. `NullTracer` keeps the same interface at near-zero cost for the
untraced runs that give the end-to-end metrics.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Iterator

REQUEST = "request"


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None  # index of the enclosing span in `Tracer.spans`
    request_id: int


class Tracer:
    """Keeps every span in memory until `write` is called."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request_id = -1
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter_ns(), 0, parent, self.request_id)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record.end_ns = time.perf_counter_ns()
            self._open.pop()

    def write(self, path: Path) -> None:
        """Write spans as JSON rows of (name, start_ns, end_ns, parent, request_id)."""
        rows = [astuple(span) for span in self.spans]
        path.write_text(json.dumps({"fields": list(Span.__annotations__), "spans": rows}))


class NullTracer:
    """Tracer stand-in that records nothing."""

    request_id = -1
    _context = nullcontext()

    def span(self, name: str):
        return self._context


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and children run inside their parent one after
    another, so children never overlap and their durations simply add up.
    """
    covered = [0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end_ns - span.start_ns
    return [span.end_ns - span.start_ns - c for span, c in zip(spans, covered)]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
