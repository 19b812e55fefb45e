"""In-memory spans around the benchmark's calls into the program."""

from __future__ import annotations

import time


def call(name, fn, *args):
    """Untraced call with the signature of Tracer.call."""
    return fn(*args)


class Tracer:
    """Records (name, start_ns, end_ns, parent index, unit id) for each span.

    Spans nest: a span opened inside another names it as its parent, and
    every span of one unit (a census repetition, a class, a query) carries
    that unit's id.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._unit = None

    def call(self, name, fn, *args):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._unit)

    def unit(self, unit_id, fn, *args):
        """Run fn(*args) as one unit: a span named 'unit' that parents the calls inside."""
        self._unit = unit_id
        try:
            return self.call("unit", fn, *args)
        finally:
            self._unit = None

    def durations(self, name):
        """Durations in seconds of every span with this name."""
        return [(e - s) * 1e-9 for n, s, e, _, _ in self.spans if n == name]
