"""In-memory spans recorded by wrapping the program's callables from outside.

:class:`SpanRecorder` replaces a class or module attribute with a wrapper
that records one :class:`Span` per call (name, start, end, parent span,
thread, the workload's current batch id, and an optional ``info`` value
derived from the call's arguments and result).  Nothing in ``src/`` is
changed: the wrappers are installed by the benchmark and removed again
by :meth:`SpanRecorder.uninstall`.

Parent links follow the calling thread's stack of open spans.  Work that
a :class:`concurrent.futures.ThreadPoolExecutor` runs for a caller (shard
workers, chunk prefetch) inherits the caller's innermost open span at
``submit`` time, so a span opened on a worker thread attaches to the span
that fanned the work out, e.g. ``ShardedDPTC.matmul``.

:func:`self_times` gives each span's self time: its duration minus the
part of its interval that its child spans cover (the union of the
children's intervals clipped to the parent, so children running in
parallel on several threads are not counted twice).
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable

ROOT = -1


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    thread: int
    batch: int
    info: Any = None


def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent != ROOT:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start)
        - union_length(children.get(index, []), span.start, span.end)
        for index, span in enumerate(spans)
    ]


class SpanRecorder:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.batch = 0
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- span stack ------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else ROOT

    def _open(self, name: str, parent: int) -> int:
        span = Span(name, time.perf_counter(), 0.0, parent, threading.get_ident(), self.batch)
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    def record(self, name: str, fn: Callable, *args, info=None, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside one span named ``name``.

        ``info(args, kwargs, result)`` may derive a value stored on the
        span (a shape, a batch size, a hit flag).
        """
        stack = self._stack()
        index = self._open(name, stack[-1] if stack else ROOT)
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            self.spans[index].end = time.perf_counter()
        if info is not None:
            self.spans[index].info = info(args, kwargs, result)
        return result

    # -- installing wrappers ---------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str, info=None) -> bool:
        """Replace ``owner.attr`` with a recording wrapper.

        ``owner`` is a class or a module.  A target that no longer exists
        is listed in :attr:`missing` instead of failing the run, so a
        renamed layer shows up as a gap in the per-layer report.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(
            owner, attr, None
        )
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {attr}: static and class methods are unsupported")
        recorder = self

        def wrapper(*args, **kwargs):
            return recorder.record(name, original, *args, info=info, **kwargs)

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        return True

    def propagate_thread_pools(self) -> None:
        """Let pool workers inherit the submitting thread's open span."""
        original = ThreadPoolExecutor.submit
        recorder = self

        def submit(executor, fn, /, *args, **kwargs):
            parent = recorder.current()
            if parent == ROOT:
                return original(executor, fn, *args, **kwargs)

            def adopted(*a, **k):
                stack = recorder._stack()
                stack.append(parent)
                try:
                    return fn(*a, **k)
                finally:
                    stack.pop()

            return original(executor, adopted, *args, **kwargs)

        ThreadPoolExecutor.submit = submit
        self._patches.append((ThreadPoolExecutor, "submit", original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------
    def write_jsonl(self, path: str, batch: int) -> None:
        """Write the spans of one ``batch``, one JSON object a line."""
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                if span.batch != batch:
                    continue
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "thread": span.thread,
                            "batch": span.batch,
                        }
                    )
                    + "\n"
                )
