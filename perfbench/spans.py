"""In-memory spans around calls into mfrde, for the traced benchmark run.

A span records its name, start, end, parent span and run (one benchmark
cycle).  Wrapping replaces a module attribute that callers look up at call
time, so spans sit at the layer boundaries without touching the program.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: int
    start: float
    end: float = float("nan")
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "run": self.run, "start": self.start, "end": self.end,
                **self.counts}


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Collects spans; ``wrap`` installs them around module attributes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: int | None = None
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        # a worker thread starts under the operation that spawned it
        parent = stack[-1] if stack else self._root
        with self._lock:
            sp = Span(len(self.spans), name, parent, self.run, 0.0)
            self.spans.append(sp)
        stack.append(sp.id)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    @contextmanager
    def op(self, name: str):
        """A top-level span: one benchmark operation, parent of its worker threads."""
        with self.span(name) as sp:
            self._root = sp.id
            try:
                yield sp
            finally:
                self._root = None

    def wrap(self, owner, attr: str, name: str, on_call=None) -> bool:
        """Trace calls to ``owner.attr`` as spans called ``name``.

        ``on_call(span, args, kwargs, result)`` runs after the span closes,
        so its cost stays out of the span.  A missing attribute is recorded
        in ``missing`` and skipped.
        """
        original = getattr(owner, attr, None)
        if original is None:
            if f"{owner.__name__}.{attr}" not in self.missing:
                self.missing.append(f"{owner.__name__}.{attr}")
            return False

        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = original(*args, **kwargs)
            if on_call is not None:
                on_call(sp, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))
        return True

    def unwrap_all(self, keep: int = 0) -> None:
        """Restore wrapped attributes, newest first, leaving the oldest ``keep``."""
        while len(self._patched) > keep:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def wrapping(self, owner, attr: str, name: str, on_call=None):
        """:meth:`wrap` for the duration of a ``with`` block."""
        keep = len(self._patched)
        self.wrap(owner, attr, name, on_call)
        try:
            yield
        finally:
            self.unwrap_all(keep)

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                kids.setdefault(sp.parent, []).append(sp)
        return kids

    def self_time(self, sp: Span, kids: dict[int, list[Span]]) -> float:
        """Duration minus the part of it that direct children cover."""
        return sp.duration - covered(
            [(c.start, c.end) for c in kids.get(sp.id, ())], sp.start, sp.end
        )

    def descendants(self, root: Span, kids: dict[int, list[Span]]) -> list[Span]:
        out, todo = [], [root]
        while todo:
            for c in kids.get(todo.pop().id, ()):
                out.append(c)
                todo.append(c)
        return out


class NoTracer:
    """Stands in for :class:`Tracer` when tracing is off."""

    run = 0

    def span(self, name: str):
        return nullcontext()

    op = span
