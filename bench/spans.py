"""Spans and call counters for the traced run.

The benchmark opens spans around its own calls into each heckebasis
module; spans are never opened inside the package. A span records its
name, start, end and parent; a layer's self time is its span time minus
the part covered by its child spans. Counters come from wrappers on
public class methods, installed only for the traced pass and removed
afterwards.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

_NULL = contextlib.nullcontext()


class Tracer:
    """Collects spans in memory while enabled; a no-op otherwise."""

    def __init__(self) -> None:
        self.enabled = False
        self.counting = False
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counts[name] += amount

    def self_times(self) -> Counter:
        """Seconds per span name, minus time covered by child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child_time[i]
        return out


def _counting(tracer: Tracer, key: str, fn):
    def wrapper(*args, **kwargs):
        if tracer.counting:
            tracer.counts[key] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


@contextlib.contextmanager
def counted(tracer: Tracer, targets):
    """Wrap each (class, method name, counter key) so that calls made
    while tracer.counting is set add one to the key; restore on exit."""
    saved = []
    try:
        for cls, attr, key in targets:
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, _counting(tracer, key, original))
        yield
    finally:
        for cls, attr, original in reversed(saved):
            setattr(cls, attr, original)
