"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (layer, name, start, end, parent, attrs). Spans nest through a
stack; a span may also name its parent explicitly, which the benchmark
uses for replayed calls: a replay runs the same public calls a layer made
inside an opaque span (``rolling_cv``, ``cli.main``), after that span has
closed, and is attached to it as a child so that its time is subtracted
from the opaque span's self time. Self time derived that way is an
estimate, not a measurement of the calls that really ran inside.

Spans stay in memory and are only summarised when the run ends.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("series", "lrd", "models", "evaluation", "cli", "synthgen")


@dataclass
class Span:
    layer: str
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.name}"

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans when enabled; a disabled tracer records nothing and
    costs one branch per call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, layer: str, name: str, parent: int | None = None, **attrs):
        if not self.enabled:
            yield None
            return
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        if parent is None and self._stack:
            parent = self._stack[-1]
        idx = len(self.spans)
        self.spans.append(Span(layer, name, time.perf_counter(), parent=parent, attrs=attrs))
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def durations(self, key: str) -> list[float]:
        return [s.duration for s in self.spans if s.key == key]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its children."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def busy_share(self) -> dict:
        """Share of all recorded self time that each layer accounts for.
        A self time estimated below zero (a replay slower than the span it
        stands for) counts as zero here."""
        per_layer = dict.fromkeys(LAYERS, 0.0)
        for s, t in zip(self.spans, self.self_times()):
            per_layer[s.layer] += max(t, 0.0)
        total = sum(per_layer.values())
        return {layer: (t / total if total > 0 else 0.0) for layer, t in per_layer.items()}


def quantile(values, q: float) -> float:
    """The q-quantile by linear interpolation; 0.0 when there are no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1])
