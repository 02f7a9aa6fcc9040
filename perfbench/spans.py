"""In-memory span recorder for the traced benchmark run.

A span is one call across a layer boundary: name, start, end, the index of
the span that was open when it began (its parent), and a small dict of
facts about the call (model, phase, sample rate, bytes, ...). Spans are
kept in a list while the workload runs and written out once at the end.

Wrapping happens from outside the program: a layer instance gets an
instance attribute that shadows its class's ``forward``/``backward``, and a
module function is replaced by name in the module it is looked up from.
``Tracer.restore`` undoes the module and class patches in reverse order;
an instance's wrappers hold it only weakly and go away with it.
"""

from __future__ import annotations

import functools
import json
import time
import weakref

class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.info = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans; single-threaded by design (the workloads are)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, info=None):
        """Return ``fn`` recording one span per call.

        ``name`` is a string or ``name(args, kwargs) -> str``; ``info`` is
        ``info(args, kwargs, result) -> dict`` and runs after the call.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        label = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(label(args, kwargs), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def swap(self, owner, attr, value):
        """Set a module's or class's ``attr`` until ``restore``."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch(self, owner, attr, name, info=None):
        """Replace a module's or class's ``attr`` by a traced version."""
        self.swap(owner, attr, self.wrap(getattr(owner, attr), name, info))

    def patch_method(self, obj, attr, name, info=None):
        """Shadow ``obj``'s method by a traced one. The wrapper refers to
        ``obj`` weakly, so the instance (a model built and dropped inside
        the harness, with its cached activations) is freed on schedule."""
        method, ref = getattr(type(obj), attr), weakref.ref(obj)
        setattr(obj, attr, self.wrap(lambda *a, **k: method(ref(), *a, **k), name, info))

    def restore(self):
        while self._patches:
            setattr(*self._patches.pop())

    def open(self, name):
        """Start a span by hand (the benchmark's own operations)."""
        span = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def dump(self, path):
        rows = [[s.name, s.start, s.end, s.parent, s.info] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "info"], "spans": rows}, fh)


def wrapper_cost_s(n=20000):
    """Seconds one traced call adds over the bare call (traced minus
    untraced), measured on a no-op with the same wrapper shape the layers
    get. Multiplied by the span count it gives the tracing overhead."""
    def noop(x, train=False):
        return x

    tracer = Tracer()
    traced = tracer.wrap(noop, lambda a, k: "calib", lambda a, k, r: {"m": "x"})
    best = float("inf")
    for _ in range(3):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(n):
            noop(0, True)
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n):
            traced(0, True)
        best = min(best, (time.perf_counter() - t0 - bare) / n)
    return max(best, 0.0)
