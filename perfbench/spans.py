"""In-memory spans around the layer functions the hiermor controller calls.

The benchmark never edits the package: `traced(tracer)` swaps the module
attributes listed in TARGETS for wrappers while a traced sweep runs and puts
the originals back afterwards.  Every wrapper records one span (layer name,
start, end, parent span, request id) per call.  A target whose attribute no
longer exists is skipped, and a layer none of whose targets exist is
reported as absent rather than as zero.
"""

from __future__ import annotations

import importlib
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# (module, attribute, layer).  The attribute is the name the caller looks up
# at call time, so patching it there times exactly the calls the controller
# (or `enrich`, or `build_hierarchy`) makes.
TARGETS = (
    ("hiermor.cli", "assemble", "fem.assemble"),
    ("hiermor.hierarchy", "solve_fom", "fem.solve_fom"),
    ("hiermor.hierarchy", "enrich", "rb.enrich"),
    ("hiermor.hierarchy", "project", "rb.project"),
    ("hiermor.hierarchy", "solve_rb", "rb.solve_rb"),
    ("hiermor.hierarchy", "estimate", "rb.estimate"),
    ("hiermor.hierarchy", "fit", "kernel.fit"),
    ("hiermor.hierarchy", "predict", "kernel.predict"),
    ("hiermor.rb", "project", "rb.project"),
    ("hiermor.rb", "pod", "pod.pod"),
    ("hiermor.rb", "hapod", "pod.hapod"),
    ("hiermor.rb", "h_orthonormalize", "pod.h_orthonormalize"),
    ("hiermor.rb", "coercivity_constants", "rb.coercivity_constants"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    # `enrich` spans keep the number of modes the call added.
    added: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder for one sequential sweep; spans stay in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request: int | None = None
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), float("nan"), parent, self.request))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield self.spans[idx]
        finally:
            self.end(idx)

    def wrap(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            idx = self.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if layer == "rb.enrich":
                self.spans[idx].added = int(result[1])
            return result

        return wrapper


def present_layers() -> set[str]:
    """Layers with at least one wrapped name that still exists."""
    return {
        layer for module, attr, layer in TARGETS
        if hasattr(importlib.import_module(module), attr)
    }


@contextmanager
def traced(tracer: Tracer):
    """Route every existing target through `tracer` for the duration of the block."""
    saved = []
    try:
        for module_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(layer, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


@dataclass
class LayerStats:
    calls: int
    self_s: float
    p50_s: float  # median inclusive duration; 0.0 when there were no calls


def layer_stats(spans: list[Span], own: list[float]) -> dict[str, LayerStats]:
    durations: dict[str, list[float]] = {}
    selfs: dict[str, float] = {}
    for s, t in zip(spans, own):
        durations.setdefault(s.name, []).append(s.duration)
        selfs[s.name] = selfs.get(s.name, 0.0) + t
    return {
        name: LayerStats(len(d), selfs[name], statistics.median(d))
        for name, d in durations.items()
    }
