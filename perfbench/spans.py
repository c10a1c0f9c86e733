"""In-memory span recorder that wraps the program's public functions.

A span is recorded around each call made through a patched attribute:
name, start, end, parent span and operation id, plus counts taken from
the call's arguments and result and the time taking them cost.  What
tracing adds to an operation is its span count times ``wrap_cost()``
plus that counting time.  Spans stay in memory until the run
ends.  Wrapping happens at the attribute the caller looks the function up
through (``leakaudit.experiment.train_forest``, not
``leakaudit.forest.train_forest``), because modules bind imported names
at import time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the recorder's span list
    op: str
    counts: dict = field(default_factory=dict)
    count_s: float = 0.0  # time taken by the count function, after ``end``

    def to_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "counts": self.counts,
                "count_s": self.count_s}


class SpanRecorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = ""
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` recording a span per call.

        ``count(arguments, result)`` gets the call's arguments by parameter
        name and returns a dict of counts; it runs after the span has ended.
        """
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.clock(), 0.0, self._open[-1] if self._open else None, self.op)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
            if count is not None:
                counted = self.clock()
                span.counts = count(signature.bind(*args, **kwargs).arguments, result)
                span.count_s = self.clock() - counted
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap each ``(module, attribute, span name, count)`` target for the block."""
        saved = []
        try:
            for module_name, attr, name, count in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def wrap_cost(calls: int = 10000, repeats: int = 5) -> float:
    """Seconds that wrapping adds to one call without a count function:
    the best of ``repeats`` timings of ``calls`` wrapped calls, less the same
    number of bare ones."""
    def bare():
        return None

    def per_call(fn) -> float:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, time.perf_counter() - t0)
        return best / calls

    recorder = SpanRecorder()
    return max(per_call(recorder.wrap("calibration", bare)) - per_call(bare), 0.0)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(i, [])):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out
