"""Spans and counters recorded from the benchmark's own files.

A :class:`Recorder` is created for each pass. With tracing off it only keeps
the stage timers that the workloads always measure; with tracing on it also
records one span per call into a layer (total and self time, keyed by span
name) and per-layer work counts. Spans nest: a span's self time is its
duration minus the time of the spans opened inside it.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    def __init__(self, traced: bool, clock=time.perf_counter):
        self.traced = traced
        self.clock = clock
        self.stages: dict[str, float] = defaultdict(float)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._children: list[float] = []  # child time of each open span

    @contextmanager
    def stage(self, name: str):
        """Time a block of a pass; always on, it costs two clock reads."""
        start = self.clock()
        try:
            yield
        finally:
            self.stages[name] += self.clock() - start

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` when tracing."""
        if not self.traced:
            return fn(*args, **kwargs)
        self._children.append(0.0)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            child = self._children.pop()
            self.total[name] += elapsed
            self.self_time[name] += elapsed - child
            if self._children:
                self._children[-1] += elapsed

    def count(self, name: str, value: float) -> None:
        if self.traced:
            self.counts[name] += value

    def wrap(self, name, fn, counter=None):
        """Wrapper that records a span per call.

        ``name`` is a string or a function of the call's arguments;
        ``counter(result, *args, **kwargs)`` returns {count name: value}.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(*args, **kwargs) if callable(name) else name
            result = self.call(span, fn, *args, **kwargs)
            if counter is not None:
                for key, value in counter(result, *args, **kwargs).items():
                    self.count(key, value)
            return result

        return wrapper


@contextmanager
def patched(targets):
    """Temporarily replace attributes: ``targets`` is [(owner, attr, new)]."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, new in targets:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
