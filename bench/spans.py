"""In-memory spans recorded around the calls into each layer.

The benchmark times the program from outside: for a traced run it swaps
selected module attributes of ``reslearn`` for wrappers that record one
span per call, then puts the originals back. Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    """One call: name, start/end in ``perf_counter`` seconds, the index of
    the enclosing span (None at the root), the trial and leg it ran in,
    and any work counts read off its arguments and return value."""

    name: str
    start: float
    end: float
    parent: int | None
    trial: int
    leg: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``trial`` and ``leg`` label every span opened next."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.trial = -1
        self.leg = ""

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped to record a span named ``name``.

        ``count(arguments, result)`` receives the call's bound arguments
        (defaults applied) and its return value, and returns the span's
        work counts.
        """
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, perf_counter(), float("nan"),
                        self._open[-1] if self._open else None, self.trial, self.leg)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = count(bound.arguments, result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


@contextmanager
def patched(replacements):
    """Set ``module.attr = value`` for each (module, attr, value) and
    restore every original on exit, also when the body raises."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, value in replacements:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in originals:
            setattr(module, attr, value)
