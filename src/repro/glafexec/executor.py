"""Pluggable executors for GLAF programs.

Three interchangeable back ends run a program's entry point against an
:class:`~repro.glafexec.context.ExecutionContext`:

``interpreter``
    The reference :class:`~repro.glafexec.interp.Interpreter` —
    authoritative FORTRAN semantics.  Each step compiles once to nested
    closures and then runs one loop iteration at a time.
``vectorized``
    :class:`~repro.glafexec.vectorize.VectorizedInterpreter` — liftable loop
    steps run as whole-grid NumPy array programs; everything else falls back
    to the interpreter per step (recorded as ``executor:fallback`` events).
``guarded``
    :func:`~repro.glafexec.guard.guarded_vectorized_run` — the vectorized
    path runs on a cloned context and is cross-checked against the
    interpreter under a tolerance policy; the interpreter's result is
    always the one kept.

Selection is either explicit (:func:`get_executor`) or through the
process-wide executor mode (the CLI's ``--executor`` flag, or the
``REPRO_EXECUTOR`` environment variable for whole-process runs such as the
CI vectorized leg), mirroring the guard-mode trio in
:mod:`repro.glafexec.guard`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..core.function import GlafProgram
from ..errors import ExecutionError
from ..robust import ResourceLimits
from .context import ExecutionContext
from .guard import DEFAULT_GUARD_TOLERANCE, VectorizedGuardResult, guarded_vectorized_run
from .interp import Interpreter
from .vectorize import FallbackEvent, VectorizedInterpreter

__all__ = [
    "EXECUTOR_NAMES", "Executor", "ExecutorRun",
    "GuardedExecutor", "InterpreterExecutor", "VectorizedExecutor",
    "executor_mode", "get_executor", "set_executor_mode", "using_executor",
]

#: Valid executor names, in guard-strictness order.
EXECUTOR_NAMES = ("interpreter", "vectorized", "guarded")


@dataclass
class ExecutorRun:
    """Outcome of one :meth:`Executor.run` invocation."""

    result: Any
    context: ExecutionContext
    executor: str
    fallbacks: tuple[FallbackEvent, ...] = ()
    guard: VectorizedGuardResult | None = None


class Executor:
    """Common construction + entry point for the pluggable back ends."""

    name = ""

    def __init__(self, *, save_inner_arrays: bool = False,
                 limits: ResourceLimits | None = None):
        self.save_inner_arrays = save_inner_arrays
        self.limits = limits

    def _context(self, program: GlafProgram,
                 sizes: dict[str, int] | None,
                 values: dict[str, Any] | None,
                 context: ExecutionContext | None) -> ExecutionContext:
        if context is not None:
            return context
        return ExecutionContext(program, sizes=sizes, values=values)

    def run(self, program: GlafProgram, entry: str,
            args: list[Any] | tuple = (), *,
            sizes: dict[str, int] | None = None,
            values: dict[str, Any] | None = None,
            context: ExecutionContext | None = None) -> ExecutorRun:
        raise NotImplementedError


class InterpreterExecutor(Executor):
    """Reference semantics: the step-compiling scalar interpreter."""

    name = "interpreter"

    def run(self, program, entry, args=(), *, sizes=None, values=None,
            context=None) -> ExecutorRun:
        from ..observe import get_tracer

        ctx = self._context(program, sizes, values, context)
        interp = Interpreter(program, ctx,
                             save_inner_arrays=self.save_inner_arrays,
                             limits=self.limits)
        with get_tracer().span("exec.run.interp", entry=entry,
                               program=program.name):
            result = interp.call(entry, list(args))
        return ExecutorRun(result=result, context=ctx, executor=self.name)


class VectorizedExecutor(Executor):
    """Whole-grid array execution with per-step interpreter fallback."""

    name = "vectorized"

    def run(self, program, entry, args=(), *, sizes=None, values=None,
            context=None) -> ExecutorRun:
        from ..observe import get_tracer

        ctx = self._context(program, sizes, values, context)
        interp = VectorizedInterpreter(
            program, ctx, save_inner_arrays=self.save_inner_arrays,
            limits=self.limits)
        with get_tracer().span("exec.run.vectorized", entry=entry,
                               program=program.name):
            result = interp.call(entry, list(args))
        return ExecutorRun(result=result, context=ctx, executor=self.name,
                           fallbacks=tuple(interp.fallbacks))


class GuardedExecutor(Executor):
    """Vectorized execution cross-checked against the interpreter.

    The vectorized probe runs on a clone of the context; the interpreter
    then runs on the real one, so the kept state is always the reference
    result — divergence only decides whether a ``guard:serial-fallback``
    event is recorded (via the PR-5 tolerance policies).
    """

    name = "guarded"

    def __init__(self, *, tolerance: float = DEFAULT_GUARD_TOLERANCE,
                 policy: str = "abs", **kw: Any):
        super().__init__(**kw)
        self.tolerance = tolerance
        self.policy = policy

    def run(self, program, entry, args=(), *, sizes=None, values=None,
            context=None) -> ExecutorRun:
        ctx = self._context(program, sizes, values, context)
        res = guarded_vectorized_run(
            program, entry, args, context=ctx,
            tolerance=self.tolerance, policy=self.policy, limits=self.limits)
        return ExecutorRun(result=res.result, context=res.context,
                           executor=self.name, fallbacks=res.fallbacks,
                           guard=res)


_EXECUTORS: dict[str, type[Executor]] = {
    "interpreter": InterpreterExecutor,
    "vectorized": VectorizedExecutor,
    "guarded": GuardedExecutor,
}


def get_executor(name: str | None = None, **kw: Any) -> Executor:
    """Instantiate an executor by name (current mode when ``None``)."""
    if name is None:
        name = executor_mode()
    try:
        cls = _EXECUTORS[name]
    except KeyError:
        raise ExecutionError(
            f"unknown executor {name!r}; choose from {EXECUTOR_NAMES}"
        ) from None
    return cls(**kw)


# ----------------------------------------------------------------------
# process-wide executor mode (the CLI's --executor flag)
# ----------------------------------------------------------------------
def _initial_mode() -> str:
    env = os.environ.get("REPRO_EXECUTOR", "interpreter")
    return env if env in EXECUTOR_NAMES else "interpreter"


_EXECUTOR_MODE = _initial_mode()


def executor_mode() -> str:
    """The currently-selected executor name (default ``interpreter``)."""
    return _EXECUTOR_MODE


def set_executor_mode(name: str) -> str:
    """Select the process-wide executor; returns the previous name."""
    global _EXECUTOR_MODE
    if name not in EXECUTOR_NAMES:
        raise ExecutionError(
            f"unknown executor {name!r}; choose from {EXECUTOR_NAMES}")
    prev = _EXECUTOR_MODE
    _EXECUTOR_MODE = name
    return prev


@contextmanager
def using_executor(name: str) -> Iterator[None]:
    """Select an executor for the block (validation paths that honor the
    mode route execution through :func:`get_executor`)."""
    prev = set_executor_mode(name)
    try:
        yield
    finally:
        set_executor_mode(prev)
