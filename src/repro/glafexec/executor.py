"""Pluggable executors for GLAF programs.

Three interchangeable back ends run a program's entry point against an
:class:`~repro.glafexec.context.ExecutionContext`:

``interpreter``
    The reference :class:`~repro.glafexec.interp.Interpreter` —
    authoritative FORTRAN semantics.  Each step compiles once to one
    emitted Python function and then runs one loop iteration at a time.
``vectorized``
    :class:`~repro.glafexec.vectorize.VectorizedInterpreter` — liftable loop
    steps run as whole-grid NumPy array programs; everything else falls back
    to the interpreter per step (recorded as ``executor:fallback`` events).
``guarded``
    :class:`~repro.glafexec.conflicts.CheckedInterpreter` — the
    interpreter, with every step the ``GLAF-parallel v0`` plan marks
    parallel run under the access-conflict check (one
    ``parallel:conflict`` event per conflicting step and grid); its
    results equal the interpreter's.

Selection is either explicit (:func:`get_executor`) or through the
active :class:`~repro.runconfig.RunConfig` (the CLI's ``--executor`` flag,
or the ``REPRO_EXECUTOR`` environment variable for whole-process runs such
as the CI vectorized leg).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.function import GlafProgram
from ..optimize.plan import Tweaks, make_plan
from ..robust import ResourceLimits
from ..runconfig import EXECUTOR_NAMES, RunConfig, current
from .conflicts import CheckedInterpreter, Conflict
from .context import ExecutionContext
from .interp import Interpreter
from .vectorize import FallbackEvent, VectorizedInterpreter

__all__ = [
    "EXECUTOR_NAMES", "Executor", "ExecutorRun",
    "GuardedExecutor", "InterpreterExecutor", "VectorizedExecutor",
    "get_executor",
]


@dataclass
class ExecutorRun:
    """Outcome of one :meth:`Executor.run` invocation."""

    result: Any
    context: ExecutionContext
    executor: str
    fallbacks: tuple[FallbackEvent, ...] = ()
    conflicts: tuple[Conflict, ...] = ()


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
    """The interpreter under the access-conflict check of the
    ``GLAF-parallel v0`` plan, whose ``save_inner_arrays`` tweak is the
    executor's; ``conflicts`` holds the check's findings."""

    name = "guarded"

    def run(self, program, entry, args=(), *, sizes=None, values=None,
            context=None) -> ExecutorRun:
        from ..observe import get_tracer

        ctx = self._context(program, sizes, values, context)
        plan = make_plan(program, "GLAF-parallel v0", tweaks=Tweaks(
            save_inner_arrays=self.save_inner_arrays))
        interp = CheckedInterpreter(program, ctx, plan, limits=self.limits)
        with get_tracer().span("exec.run.guarded", entry=entry,
                               program=program.name):
            result = interp.call(entry, list(args))
        return ExecutorRun(result=result, context=ctx, executor=self.name,
                           conflicts=tuple(interp.conflicts.values()))


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
