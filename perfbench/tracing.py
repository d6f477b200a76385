"""In-memory spans recorded around calls into farecast's public functions.

The traced run swaps selected module attributes for wrappers that open a
span around each call; untraced runs never import or patch anything from
here, so end-to-end numbers carry no tracing cost. Spans are recorded only
while a root span (a set-up or a pass of the workload) is open, so output
checks made between passes leave no spans behind.
"""

from __future__ import annotations

import functools
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    root: int
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Holds every span of one run in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        root = self._open[0] if self._open else index
        span = Span(name=name, start=perf_counter(), parent=parent, root=root)
        self.spans.append(span)
        self._open.append(index)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """fn with a span named `name` around each call made under a root span.

        count(result, *args) returns the counters to attach to the span; it
        runs after the span closes, so its cost lands on the caller.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._open:
                return fn(*args, **kwargs)
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if count is not None:
                span.counts.update(count(result, *args))
            return result

        return traced

    @contextmanager
    def instrument(self, targets):
        """Patch (owner, attribute, span name, counter) targets for the block."""
        saved = []
        try:
            for owner, attr, name, count in targets:
                raw = owner.__dict__[attr]
                wrapped = self.wrap(name, getattr(owner, attr), count)
                # A class attribute is replaced by a static method wrapping
                # the bound original, so classmethods keep their binding.
                setattr(owner, attr, staticmethod(wrapped) if isinstance(owner, type) else wrapped)
                saved.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.parent is None and s.name == name]

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time covered by its direct children."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def layer_totals(self, root: int) -> dict[str, dict[str, float]]:
        """Per span name under one root: total and self seconds, calls, counters."""
        own = self.self_seconds()
        out: dict[str, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            if s.root != root or i == root:
                continue
            layer = out.setdefault(s.name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            layer["total_s"] += s.seconds
            layer["self_s"] += own[i]
            layer["calls"] += 1
            for key, value in s.counts.items():
                layer[key] = layer.get(key, 0) + value
        return out

    def durations(self, name: str, roots: list[int]) -> list[float]:
        keep = set(roots)
        return [s.seconds for s in self.spans if s.name == name and s.root in keep]


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0
