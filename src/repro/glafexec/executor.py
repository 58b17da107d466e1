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
    interpreter under the ``abs`` policy; the interpreter's result is
    always the one kept.

Selection is either explicit (:func:`get_executor`) or through the
active :class:`~repro.runconfig.RunConfig` (the CLI's ``--executor`` flag,
or the ``REPRO_EXECUTOR`` environment variable for whole-process runs such
as the CI vectorized leg).  :func:`run_configured` is the one place that
chooses between the divergence guard and the configured executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.function import GlafProgram
from ..robust import ResourceLimits
from ..runconfig import EXECUTOR_NAMES, RunConfig, current
from .context import ExecutionContext
from .guard import (DEFAULT_GUARD_TOLERANCE, GuardedRunner, GuardResult,
                    guarded_vectorized_run)
from .interp import Interpreter
from .vectorize import FallbackEvent, VectorizedInterpreter

__all__ = [
    "EXECUTOR_NAMES", "Executor", "ExecutorRun",
    "GuardedExecutor", "InterpreterExecutor", "VectorizedExecutor",
    "get_executor", "run_configured",
]


@dataclass
class ExecutorRun:
    """Outcome of one :meth:`Executor.run` invocation."""

    result: Any
    context: ExecutionContext
    executor: str
    fallbacks: tuple[FallbackEvent, ...] = ()
    guard: GuardResult | None = None


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
    event is recorded.
    """

    name = "guarded"

    def __init__(self, *, tolerance: float = DEFAULT_GUARD_TOLERANCE,
                 **kw: Any):
        super().__init__(**kw)
        self.tolerance = tolerance

    def run(self, program, entry, args=(), *, sizes=None, values=None,
            context=None) -> ExecutorRun:
        ctx = self._context(program, sizes, values, context)
        res = guarded_vectorized_run(
            program, entry, args, context=ctx,
            tolerance=self.tolerance, limits=self.limits)
        return ExecutorRun(result=res.result, context=res.context,
                           executor=self.name, fallbacks=res.fallbacks,
                           guard=res)


_EXECUTORS: dict[str, type[Executor]] = {
    "interpreter": InterpreterExecutor,
    "vectorized": VectorizedExecutor,
    "guarded": GuardedExecutor,
}


def get_executor(name: str | None = None, **kw: Any) -> Executor:
    """Instantiate an executor by name (the configured one when ``None``);
    :class:`RunConfig` rejects an unknown name with ``ExecutionError``."""
    config = current() if name is None else RunConfig(executor=name)
    return _EXECUTORS[config.executor](**kw)


def run_configured(program: GlafProgram, entry: str, args: list[Any], *,
                   context: ExecutionContext, guarded: bool | None = None,
                   executor: str | None = None, **kw: Any) -> None:
    """Run ``entry`` on ``context`` the way the active configuration says:
    through :class:`GuardedRunner` (per-step access-conflict checks, serial
    fallback) when guarded, else on the configured executor.  ``guarded``
    and ``executor`` override the configuration; ``kw``
    (``save_inner_arrays``, ``limits``) goes to either."""
    if current().guarded if guarded is None else guarded:
        GuardedRunner(program, **kw).run(entry, args, context=context)
    else:
        get_executor(executor, **kw).run(program, entry, args,
                                         context=context)
