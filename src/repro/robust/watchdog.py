"""Execution watchdogs: iteration budgets and wall-clock limits.

Nothing in the pipeline bounded interpreter runtime before this module: a
mis-transformed loop nest (or an injected stall) could hang a run
silently.  :class:`ResourceLimits` declares the budget, :class:`Budget`
enforces it from inside the IR interpreter (which counts innermost loop
iterations), and :func:`wall_clock_guard` enforces the wall-clock half for
generated-Python execution, where we cannot count iterations but can trace
the generated module's frames.

All violations raise the typed :class:`repro.errors.ResourceLimitError`
(an :class:`ExecutionError` that ``retry_call`` deliberately never
retries — re-running an exhausted step only digs deeper).
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from ..errors import ResourceLimitError

__all__ = ["ResourceLimits", "Budget", "wall_clock_guard",
           "apply_memory_limit"]


@dataclass(frozen=True)
class ResourceLimits:
    """Execution budget for one entry-point call.

    ``max_loop_iterations`` bounds the total number of innermost loop-body
    executions (IR interpreter only); ``max_wall_seconds`` bounds elapsed
    wall-clock time (IR interpreter and generated Python);
    ``max_memory_mb`` bounds the address space of an isolated batch
    worker process (enforced by :func:`apply_memory_limit` at worker
    startup — the parent process is never limited).
    """

    max_loop_iterations: int | None = None
    max_wall_seconds: float | None = None
    max_memory_mb: int | None = None

    def __post_init__(self) -> None:
        if self.max_loop_iterations is not None and self.max_loop_iterations <= 0:
            raise ValueError("max_loop_iterations must be positive")
        if self.max_wall_seconds is not None and self.max_wall_seconds <= 0:
            raise ValueError("max_wall_seconds must be positive")
        if self.max_memory_mb is not None and self.max_memory_mb <= 0:
            raise ValueError("max_memory_mb must be positive")


def apply_memory_limit(max_memory_mb: int) -> bool:
    """Cap this process's address space at ``max_memory_mb`` MiB.

    Uses ``RLIMIT_AS``, so an over-budget allocation surfaces as a clean
    :class:`MemoryError` inside the process (which the batch worker
    converts to a typed :class:`repro.errors.ResourceLimitError`) instead
    of inviting the kernel OOM killer.  Returns ``False`` when the
    platform has no ``resource`` module or refuses the limit — callers
    degrade to wall-clock budgets only.
    """
    try:
        import resource
    except ImportError:              # pragma: no cover - non-POSIX
        return False
    limit = int(max_memory_mb) * 1024 * 1024
    try:
        _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    except (ValueError, OSError):    # pragma: no cover - platform refusal
        return False
    return True


class Budget:
    """Runtime enforcement state for one :class:`ResourceLimits`."""

    def __init__(self, limits: ResourceLimits, what: str = "execution"):
        self.limits = limits
        self.what = what
        self.iterations = 0
        self._deadline: float | None = None

    def start(self) -> None:
        self.iterations = 0
        if self.limits.max_wall_seconds is not None:
            self._deadline = time.monotonic() + self.limits.max_wall_seconds

    def tick(self, n: int = 1) -> None:
        """Account ``n`` innermost loop iterations; raise when over budget."""
        self.iterations += n
        cap = self.limits.max_loop_iterations
        if cap is not None and self.iterations > cap:
            raise ResourceLimitError(
                f"{self.what}: iteration budget exceeded "
                f"({self.iterations} > {cap})"
            )
        self.check_time()

    def check_time(self) -> None:
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise ResourceLimitError(
                f"{self.what}: wall-clock limit of "
                f"{self.limits.max_wall_seconds}s exceeded"
            )


@contextmanager
def wall_clock_guard(limits: ResourceLimits | None, *, what: str,
                     filename_prefix: str = "<glaf:") -> Iterator[None]:
    """Enforce ``max_wall_seconds`` over a block of generated-Python code.

    Installs a line-granular trace function restricted to frames whose
    code objects come from ``filename_prefix`` (the ``compile`` filename
    GeneratedModule uses), so only generated code pays the tracing cost.
    A no-op when ``limits`` is ``None`` or has no wall-clock bound.
    """
    if limits is None or limits.max_wall_seconds is None:
        yield
        return
    deadline = time.monotonic() + limits.max_wall_seconds
    message = (f"{what}: wall-clock limit of "
               f"{limits.max_wall_seconds}s exceeded")

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(filename_prefix):
            return None
        if time.monotonic() > deadline:
            raise ResourceLimitError(message)
        return tracer

    prev = sys.gettrace()
    sys.settrace(tracer)
    try:
        yield
    finally:
        sys.settrace(prev)
