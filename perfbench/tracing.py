"""In-memory spans around calls into the library, and the numbers read off them.

A span is ``[name, parent, start, end]``; ``parent`` is the index of the
enclosing span or ``None``.  The layer of a span is the part of its name
before the first dot (``solvers.solve_gamma_b`` belongs to ``solvers``); the
benchmark's own root spans are named ``bench.*``.  With tracing off every
call goes straight through and nothing is recorded.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

LAYERS = ("bdom", "graphs", "trees", "broadcasts", "solvers", "formulas", "diametrical", "bench")


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args):
        """fn(*args), inside a span called `name` when tracing is on."""
        if not self.enabled:
            return fn(*args)
        sid = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(sid)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished root span measured by the caller."""
        if self.enabled:
            self.spans.append([name, None, start, end])


def durations(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (number of spans, total seconds)."""
    out: dict[str, tuple[int, float]] = {}
    for name, _parent, start, end in spans:
        count, total = out.get(name, (0, 0.0))
        out[name] = (count + 1, total + end - start)
    return out


def self_times(spans) -> dict[str, float]:
    """Per layer: span time not covered by child spans."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = dict.fromkeys(LAYERS, 0.0)
    for sid, (name, _parent, start, end) in enumerate(spans):
        layer = name.split(".", 1)[0]
        out[layer] += (end - start) - child_time[sid]
    return out
