"""Nestable-span tracing for the GLAF pipeline.

A :class:`Tracer` records a tree of :class:`Span` objects per thread.  Each
span captures a wall-clock duration (``time.perf_counter``), arbitrary
key/value attributes, and its children, so the whole pipeline run —
parse → access analysis → dependence → parallelization → pruning →
codegen → execution — is kept, span for span, in the run record
(:func:`repro.observe.build_record`) and renders as one flame-style tree
(:func:`repro.observe.render_run`).

The module-level default is :data:`NULL_TRACER`, a no-op whose ``span``
call returns a shared singleton context manager; instrumented code that
runs without an active observation therefore costs one global read and
two trivial method calls per site.  Install a real tracer with
:func:`set_tracer` or, more commonly, :func:`repro.observe.observed`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
]


@dataclass
class Span:
    """One timed region of the pipeline, with nested children."""

    name: str
    start: float
    end: float | None = None
    attrs: dict[str, object] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    thread: str = ""

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def set(self, **attrs: object) -> None:
        """Attach key/value attributes to this span."""
        self.attrs.update(attrs)

    def walk(self) -> Iterator["Span"]:
        yield self
        for c in self.children:
            yield from c.walk()


class _SpanContext:
    """Context manager produced by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, *exc) -> None:
        self._tracer._pop(self._span)
        return None


class Tracer:
    """Collects spans into per-root trees; safe for concurrent threads.

    Each thread keeps its own span stack (``threading.local``); completed
    top-of-stack spans attach to their parent, and parentless spans become
    roots.  The roots list is guarded by a lock so threads may open spans
    concurrently.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.epoch = clock()
        self.roots: list[Span] = []

    # -- recording -----------------------------------------------------
    def span(self, name: str, **attrs: object) -> _SpanContext:
        """Open a nestable span: ``with tracer.span("analysis.step", fn=f):``."""
        s = Span(name=name, start=self._clock(), attrs=dict(attrs),
                 thread=threading.current_thread().name)
        return _SpanContext(self, s)

    def annotate(self, **attrs: object) -> None:
        """Attach attributes to the innermost open span (no-op at top level)."""
        stack = self._stack()
        if stack:
            stack[-1].set(**attrs)

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- internals -----------------------------------------------------
    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        span.end = self._clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)

    # -- inspection ----------------------------------------------------
    def all_spans(self) -> Iterator[Span]:
        for r in self.roots:
            yield from r.walk()

    def total_seconds(self) -> float:
        return sum(r.duration for r in self.roots)

    def reset(self) -> None:
        with self._lock:
            self.roots.clear()
        self.epoch = self._clock()


class _NullSpan:
    """Inert stand-in yielded by the no-op tracer's span context."""

    __slots__ = ()
    name = ""
    attrs: dict[str, object] = {}
    children: list = []
    duration = 0.0

    def set(self, **attrs: object) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Do-nothing tracer installed by default: every ``span`` call returns
    one shared inert context manager, so un-instrumented runs pay nothing."""

    enabled = False
    roots: list[Span] = []

    def span(self, name: str, **attrs: object) -> _NullSpan:
        return _NULL_SPAN

    def annotate(self, **attrs: object) -> None:
        return None

    def current(self) -> None:
        return None

    def all_spans(self):
        return iter(())

    def total_seconds(self) -> float:
        return 0.0

    def reset(self) -> None:
        return None


NULL_TRACER = NullTracer()

_tracer: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The process-wide tracer (the shared no-op unless observation is on)."""
    return _tracer


def set_tracer(tracer: Tracer | NullTracer | None) -> Tracer | NullTracer:
    """Install ``tracer`` (``None`` restores the no-op); returns the previous."""
    global _tracer
    prev = _tracer
    _tracer = tracer if tracer is not None else NULL_TRACER
    return prev
