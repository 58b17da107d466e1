"""Convenience runners: execute kernels via the IR interpreter or via
GLAF-generated Python, from one call.

``run_generated_python`` compiles the Python source emitted by
:mod:`repro.codegen.python_gen` and executes the requested entry point with
a ``Globals`` object mirroring an :class:`ExecutionContext`, so the two
execution paths can be compared element-for-element in tests.
"""

from __future__ import annotations

from typing import Any

from ..codegen.python_gen import generate_python_source
from ..core.function import GlafProgram
from ..errors import CodegenError, ExecutionError
from ..optimize.plan import OptimizationPlan, make_plan
from ..robust import ResourceLimits, wall_clock_guard
from .context import ExecutionContext
from .interp import Interpreter

__all__ = ["run_interpreted", "run_generated_python", "GeneratedModule"]


def run_interpreted(
    program: GlafProgram,
    entry: str,
    args: list[Any] | tuple = (),
    *,
    sizes: dict[str, int] | None = None,
    values: dict[str, Any] | None = None,
    save_inner_arrays: bool = False,
    limits: ResourceLimits | None = None,
) -> tuple[Any, ExecutionContext, Interpreter]:
    """Run ``entry`` through the IR interpreter on a fresh context."""
    from ..observe import get_tracer

    with get_tracer().span("exec.run.interp", entry=entry, program=program.name):
        ctx = ExecutionContext(program, sizes=sizes, values=values)
        interp = Interpreter(program, ctx, save_inner_arrays=save_inner_arrays,
                             limits=limits)
        result = interp.call(entry, list(args))
        return result, ctx, interp


class GeneratedModule:
    """A compiled GLAF-generated Python module plus its globals object."""

    def __init__(self, plan: OptimizationPlan, context: ExecutionContext):
        self.source = generate_python_source(plan)
        self.module_name = f"<glaf:{plan.program.name}>"
        self.namespace: dict[str, Any] = {}
        try:
            exec(compile(self.source, self.module_name, "exec"), self.namespace)
        except SyntaxError as e:
            lines = self.source.splitlines()
            bad = (lines[e.lineno - 1].strip()
                   if e.lineno and 0 < e.lineno <= len(lines) else "?")
            raise CodegenError(
                f"generated Python for module {self.module_name} does not "
                f"compile: {e.msg} at line {e.lineno}: {bad!r}"
            ) from e
        self.globals_obj = self.namespace["Globals"](
            **{name: store for name, store in context.globals.items()}
        )

    def call(self, entry: str, args: list[Any] | tuple = (),
             *, limits: ResourceLimits | None = None) -> Any:
        fn = self.namespace.get(entry)
        if fn is None:
            raise ExecutionError(f"generated module has no function {entry!r}")
        with wall_clock_guard(limits, what=f"generated {self.module_name}"):
            return fn(self.globals_obj, *args)

    def reset_save_store(self) -> None:
        self.namespace["reset_save_store"]()


def run_generated_python(
    program: GlafProgram,
    entry: str,
    args: list[Any] | tuple = (),
    *,
    variant: str = "GLAF serial",
    sizes: dict[str, int] | None = None,
    values: dict[str, Any] | None = None,
    save_inner_arrays: bool = False,
) -> tuple[Any, ExecutionContext]:
    """Generate Python for ``program``, execute ``entry``, return result+context.

    The context's global storage is shared with the generated module's
    ``Globals`` object, so global effects are observable on the returned
    context exactly as with the interpreter path.
    """
    from ..observe import get_tracer
    from ..optimize.plan import Tweaks

    with get_tracer().span("exec.run.python", entry=entry, program=program.name):
        ctx = ExecutionContext(program, sizes=sizes, values=values)
        plan = make_plan(
            program, variant, tweaks=Tweaks(save_inner_arrays=save_inner_arrays)
        )
        mod = GeneratedModule(plan, ctx)
        result = mod.call(entry, list(args))
        return result, ctx
