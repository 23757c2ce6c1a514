"""In-memory span tracing around the public functions of each module.

A probe replaces a function at the name its caller looks it up (for
example `pansampler.sampler.sat_solve`, which `solve_once` calls) with
a wrapper that records one span per call: name, start, end, parent span
and formula id. Probes are installed for the length of a `with` block
and the original attributes are put back on exit, even on error.

A layer's self time is its span's duration minus the durations of its
direct children; calls are single-threaded, so children never overlap
and the self times of all spans add up to the root spans' durations.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    formula: str


# A hook sees one call that returned and updates the tracer's counters.
Hook = Callable[["Tracer", tuple, object, str], None]


@dataclass(frozen=True)
class Probe:
    target: str  # "module:attr" or "module:Class.method"
    span: str
    hook: Hook | None = None
    # Names the formula a call works on; later spans carry that id.
    formula: Callable[[tuple, dict], str] | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.formula = ""
        self._stack: list[int] = []

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.formula))

    def _close(self) -> None:
        self.spans[self._stack.pop()].end = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def wrap(self, fn: Callable, probe: Probe) -> Callable:
        def traced(*args, **kwargs):
            if probe.formula is not None:
                self.formula = probe.formula(args, kwargs)
            caller = self.spans[self._stack[-1]].name if self._stack else ""
            self._open(probe.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if probe.hook is not None:
                probe.hook(self, args, result, caller)
            return result
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, probes: list[Probe]):
        """Install every probe; restore the original attributes on exit."""
        saved: list[tuple[object, str, object]] = []
        try:
            for probe in probes:
                owner, attr = _resolve(probe.target)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, probe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _resolve(target: str) -> tuple[object, str]:
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def self_times(spans: list[Span]) -> list[float]:
    """Per-span self time: duration minus the durations of direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + t
    return totals


def total_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Inclusive time per name, counting a span nested in a span of the
    same name once."""
    totals: dict[str, float] = {}
    for s in spans:
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start)
    return totals
