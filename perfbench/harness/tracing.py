"""In-memory spans around calls into the program's layers.

A span has a name, a start, an end and a parent; spans nest through
one stack (only the benchmark's main thread opens them).  Nothing is
written until
:meth:`Tracer.dump`.  A disabled tracer hands out one shared no-op
context manager, so untraced runs pay an attribute lookup per call.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time

__all__ = ["Tracer"]

_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "child_s", "tracer")

    def __init__(self, tracer: "Tracer", sid: int, parent, name: str) -> None:
        self.tracer = tracer
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        """Duration minus the durations of direct children."""
        return self.end - self.start - self.child_s

    def __enter__(self) -> "_Span":
        self.tracer._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        stack = self.tracer._stack
        stack.pop()
        if stack:
            stack[-1].child_s += self.end - self.start
        self.tracer._finished.append(self)


class Tracer:
    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._stack: list[_Span] = []
        self._finished: list[_Span] = []
        self._ids = itertools.count(1)

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        stack = self._stack
        return _Span(self, next(self._ids),
                     stack[-1].sid if stack else None, name)

    def spans(self, name: str) -> list[_Span]:
        return [s for s in self._finished if s.name == name]

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans(name)]

    def dump(self, path) -> int:
        """Write every finished span as JSON lines; returns the count."""
        with open(path, "w") as fh:
            for s in self._finished:
                fh.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end,
                    "self_s": s.self_s,
                }) + "\n")
        return len(self._finished)
