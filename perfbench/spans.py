"""In-memory spans for the traced benchmark run.

A :class:`Tracer` records one :class:`Span` per call into a layer: name,
start, end, the span that was open on the same thread when it began, and
a few counts taken at the boundary. Spans stay in memory until the run
ends. :meth:`Tracer.patch` swaps a module or class attribute for a
:class:`Traced` wrapper and :meth:`Tracer.restore` puts every original
back, so nothing under ``src/`` is edited.
"""
from __future__ import annotations

import functools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, **counts: float):
        stack = self._stack()
        s = Span(name, time.perf_counter(), parent=stack[-1] if stack else None, counts=counts)
        with self._lock:
            self.spans.append(s)
            idx = len(self.spans) - 1
        stack.append(idx)
        try:
            yield s
        finally:
            stack.pop()
            s.end = time.perf_counter()

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_call: Callable[..., dict[str, float]] | None = None,
        on_result: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``on_call(*args, **kwargs)`` returns counts stored on the span;
        ``on_result(span, result, *args, **kwargs)`` runs after the call,
        outside the timed interval of the span itself.
        """
        orig = getattr(owner, attr)
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, Traced(self, orig, name, on_call, on_result))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # ------------------------------------------------------------ readout

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def count(self, name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in self.named(name))

    def self_time(self, name: str) -> float:
        """Duration of ``name`` spans minus that of their direct children."""
        ids = {i for i, s in enumerate(self.spans) if s.name == name}
        child = sum(s.duration for s in self.spans if s.parent in ids)
        return self.total(name) - child


class Traced:
    """Callable stand-in for a function or method that records a span.

    Pickles as the original attribute of the original module, so a Spark
    closure that captures a traced module global ships the untraced
    function to the workers.
    """

    def __init__(self, tracer, fn, name, on_call, on_result) -> None:
        self.tracer, self.fn, self.name = tracer, fn, name
        self.on_call, self.on_result = on_call, on_result
        functools.update_wrapper(self, fn)

    def __call__(self, *args, **kwargs):
        counts = self.on_call(*args, **kwargs) if self.on_call else {}
        with self.tracer.span(self.name, **counts) as s:
            out = self.fn(*args, **kwargs)
        if self.on_result:
            self.on_result(s, out, *args, **kwargs)
        return out

    def __get__(self, obj, objtype=None):
        # Bind like a function when patched onto a class.
        return self if obj is None else functools.partial(self, obj)

    def __reduce__(self):
        return getattr, (sys.modules[self.fn.__module__], self.fn.__name__)
