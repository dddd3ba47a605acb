"""In-memory span tracer that wraps gupsqueeze's public functions from outside.

Each wrapped call records a span: name, start, end, parent span and the id
of the benchmark operation it ran under.  A function is patched in every
gupsqueeze module that holds it under that name, because callers look it up
in their own module (``cli`` imports ``verify_bch_collection`` by name,
``analytic`` imports ``to_natural`` and ``collect_monomial_series``).

Only single-threaded, in-process work is seen: spans recorded in pool
workers are lost, so traced sweeps run with ``--jobs 1``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index into Tracer.spans
    op: int | None       # benchmark operation id


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.op: int | None = None
        self._stack: list[int] = []

    def _begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        return len(self.spans) - 1

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped in a span.  ``observe(args, result)`` may
        update counters after each call.  Generator functions get a span that
        runs from the first item to exhaustion and is the parent of whatever
        the generator body calls."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn, observe)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin(name)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index].end = time.perf_counter()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def _wrap_generator(self, name, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin(name)
            inner = fn(*args, **kwargs)
            last = None
            try:
                while True:
                    self._stack.append(index)
                    try:
                        item = next(inner)
                    except StopIteration:
                        break
                    finally:
                        self._stack.pop()
                    last = item
                    yield item
            finally:
                self.spans[index].end = time.perf_counter()
            if observe is not None:
                observe(self, args, last)

        return traced

    def bump(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def raise_to(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    @contextlib.contextmanager
    def installed(self, targets: Iterable[tuple[str, str, str]],
                  observers: dict[str, Callable] | None = None):
        """Patch each ``(module, attribute, span name)`` target in every
        loaded gupsqueeze module that binds the same function, and restore
        the originals on exit."""
        observers = observers or {}
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "gupsqueeze" or n.startswith("gupsqueeze.")]
        patched = []
        try:
            for module_name, attr, span_name in targets:
                original = getattr(sys.modules[module_name], attr)
                wrapper = self.wrap(span_name, original, observers.get(span_name))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            patched.append((module, key, original))
            yield self
        finally:
            for module, key, original in reversed(patched):
                setattr(module, key, original)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as stream:
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(("index", "name", "start", "end", "parent", "op"))
            for i, s in enumerate(self.spans):
                writer.writerow((i, s.name, repr(s.start), repr(s.end),
                                 "" if s.parent is None else s.parent,
                                 "" if s.op is None else s.op))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for j in sorted(children.get(i, ()), key=lambda j: spans[j].start):
            lo = max(spans[j].start, cursor)
            hi = min(spans[j].end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s (sum of durations) and self_s."""
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += own
    return out
