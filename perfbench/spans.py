"""In-memory spans around the library calls the benchmark makes.

A span is [name, start, end, parent, op]: `parent` is the index of the
enclosing span (None for an op span) and `op` is the index of the op the
span belongs to. Spans stay in memory until the batch ends. The layer
spans are the benchmark's own calls into public functions, so the library
itself is not instrumented.
"""

import contextlib
from time import perf_counter


class Tracer:
    """Records spans and per-layer counts for one batch."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self.op]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount


class NoTracer:
    """Stands in for Tracer in the untraced runs; records nothing."""

    enabled = False
    _NULL = contextlib.nullcontext()

    def __init__(self):
        self.op = None

    def span(self, name):
        return self._NULL

    def count(self, name, amount):
        pass


def self_times(spans, scales):
    """Total self time per span name: each span's duration minus the time
    its child spans cover, times scales[op], the factor to reference seconds
    of the op the span belongs to. Calls are sequential, so children never
    overlap and the covered time is the sum of their durations."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    out = {}
    for i, (name, start, end, _, op) in enumerate(spans):
        out[name] = out.get(name, 0.0) + ((end - start) - covered[i]) * scales[op]
    return out
