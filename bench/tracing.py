"""Spans recorded from outside the program, around calls into each layer.

The tracer replaces public functions on the program's modules with wrappers
that record a span per call: (id, name, start, end, parent, query, thread,
attrs). ``attrs`` holds the counts measured at that boundary. Spans stay in
memory until the run ends.
"""
from __future__ import annotations

import itertools
import threading
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.query: int | None = None  # id of the query being run, if any
        self._root: int | None = None  # open mine() span; parent for pool threads
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, measure=None, root=False):
        """Return ``fn`` wrapped in a span named ``name``.

        ``measure(args, result)`` returns the span's counts; it runs after the
        span has ended, so its cost is not part of the span. A ``root`` span
        becomes the parent of spans opened on threads that have none open.
        """

        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1] if stack else self._root
            span_id = next(self._ids)
            stack.append(span_id)
            if root:
                self._root = span_id
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if root:
                    self._root = None
            attrs = measure(args, result) if measure else ()
            self.spans.append((span_id, name, start, end, parent, self.query,
                               threading.get_ident(), attrs))
            return result

        return wrapper

    def patch(self, module, attr: str, name: str, measure=None) -> None:
        """Replace ``module.attr`` with a traced wrapper until ``unpatch``."""
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, measure))

    def unpatch(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total
