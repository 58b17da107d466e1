"""Guarded execution: parallel steps checked for access conflicts, with
serial fallback.

The paper checks its OpenMP directives by hand and validates the
parallelized kernels offline against the legacy output (§4, Table 1).
The :class:`GuardedRunner`, which the ``guarded`` executor runs, moves
the directive check *into* the run: every step the optimization plan
marks parallel runs once, serially, under the access-conflict check of
:mod:`repro.glafexec.conflicts`.  A conflict — or an
:class:`ExecutionError` at the step's ``exec.interp.step`` fault site —
demotes the step to serial and records a ``guard:serial-fallback``
decision naming the cause.  Nothing is snapshotted, probed or
re-executed, so a guarded run's results and ``ExecStats`` equal a plain
interpreted run's.

:func:`guarded_python_run` guards a whole run differentially: it runs
the generated Python against the interpreter, compares under the ``abs``
policy through :func:`repro.numeric.compare_grids`, and keeps the
interpreter's result on divergence, :class:`CodegenError` or
:class:`ExecutionError`.  Both guards report a fallback through one
recorder, so each one counts ``guard.serial_fallbacks``; neither
recovers a :class:`ResourceLimitError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.function import GlafProgram
from ..core.step import Step
from ..errors import CodegenError, ExecutionError, ResourceLimitError
from ..numeric import AbsolutePolicy, compare_grids
from ..optimize.plan import OptimizationPlan, Tweaks, make_plan
from ..robust import ResourceLimits, inject
from .conflicts import CheckedInterpreter, Conflict
from .context import ExecutionContext

__all__ = [
    "GuardEvent", "GuardResult", "GuardedInterpreter", "GuardedRun",
    "GuardedRunner", "guarded_python_run",
]

DEFAULT_GUARD_TOLERANCE = 1e-9


def _record_fallback(function: str, step_index: int, step_name: str,
                     reason: str, **attrs: object) -> None:
    """Count one serial fallback in ``guard.serial_fallbacks`` and record
    its ``guard:serial-fallback`` decision; both guards report here."""
    from ..observe import get_decisions, get_metrics

    m = get_metrics()
    if m.enabled:
        m.counter("guard.serial_fallbacks").inc()
    dl = get_decisions()
    if dl.enabled:
        dl.record("guard", function, step_index, step_name,
                  "serial-fallback", reasons=(reason,), **attrs)


@dataclass(frozen=True)
class GuardEvent:
    """One demotion of a parallel step to serial."""

    function: str
    step_index: int
    step_name: str
    reason: str
    conflict: Conflict | None = None     # None: the step's boundary raised


class GuardedInterpreter(CheckedInterpreter):
    """The checking interpreter, demoting each plan-parallel step once —
    on its first conflict, or on an :class:`ExecutionError` at its
    boundary fault site (which then stops firing for it)."""

    def __init__(self, program: GlafProgram, context: ExecutionContext,
                 plan: OptimizationPlan, **kw: Any):
        super().__init__(program, context, plan, **kw)
        self.events: list[GuardEvent] = []
        self.demoted: set[tuple[str, int]] = set()

    def _exec_step(self, frame, idx: int, step: Step) -> None:
        key = (frame.fn.name, idx)
        if key not in self.demoted and key in self._leads:
            try:
                inject("exec.interp.step", function=key[0], step=idx,
                       parallel=True)
            except ResourceLimitError:
                raise                        # budget exhausted: never retry
            except ExecutionError as e:
                self._demote(key, step, f"ExecutionError in parallel step: {e}")
        super()._exec_step(frame, idx, step)

    def _run_checked(self, frame, idx: int, step: Step) -> list[Conflict]:
        found = super()._run_checked(frame, idx, step)
        key = (frame.fn.name, idx)
        if found and key not in self.demoted:
            self._demote(key, step, f"access conflict: {found[0]}", found[0])
        return found

    def _demote(self, key: tuple[str, int], step: Step, reason: str,
                conflict: Conflict | None = None) -> None:
        self.demoted.add(key)
        self.events.append(GuardEvent(key[0], key[1], step.name, reason, conflict))
        _record_fallback(key[0], key[1], step.name, reason,
                         **({} if conflict is None else {"grid": conflict.grid}))


@dataclass
class GuardedRun:
    """Result of one :class:`GuardedRunner.run` invocation."""

    result: Any
    context: ExecutionContext
    events: list[GuardEvent]
    demoted: frozenset[tuple[str, int]]
    plan: OptimizationPlan

    @property
    def fell_back(self) -> bool:
        return bool(self.events)

    def demoted_plan(self) -> OptimizationPlan:
        """The plan with every demoted step force-serialized — hand this to
        codegen to emit a variant that drops the untrusted directives."""
        return self.plan.with_force_serial(self.demoted)


class GuardedRunner:
    """Front door for guarded execution of a program's entry point.

    SAVE'd storage follows the plan's tweak: a plan built here from
    ``variant`` takes ``save_inner_arrays``, which (like ``limits``) means
    what it does to the executors.
    """

    def __init__(self, program: GlafProgram, plan: OptimizationPlan | None = None,
                 *, variant: str = "GLAF-parallel v0",
                 save_inner_arrays: bool = False,
                 limits: ResourceLimits | None = None):
        self.program = program
        self.plan = plan if plan is not None else make_plan(
            program, variant, tweaks=Tweaks(save_inner_arrays=save_inner_arrays))
        self.limits = limits

    def run(self, entry: str, args: list[Any] | tuple = (), *,
            sizes: dict[str, int] | None = None,
            values: dict[str, Any] | None = None,
            context: ExecutionContext | None = None) -> GuardedRun:
        from ..observe import get_tracer

        ctx = context if context is not None else ExecutionContext(
            self.program, sizes=sizes, values=values)
        interp = GuardedInterpreter(self.program, ctx, self.plan,
                                    limits=self.limits)
        with get_tracer().span("exec.run.guarded", entry=entry,
                               program=self.program.name):
            result = interp.call(entry, list(args))
        return GuardedRun(
            result=result, context=ctx, events=list(interp.events),
            demoted=frozenset(interp.demoted), plan=self.plan,
        )


# ----------------------------------------------------------------------
# the whole-run guard of generated Python
# ----------------------------------------------------------------------
@dataclass
class GuardResult:
    """Outcome of :func:`guarded_python_run`."""

    result: Any
    context: ExecutionContext          # authoritative (interpreter on fallback)
    fell_back: bool
    reason: str = ""
    max_error: float | None = None
    tolerance: float = DEFAULT_GUARD_TOLERANCE


def guarded_python_run(
    program: GlafProgram,
    entry: str,
    args: list[Any] | tuple = (),
    *,
    variant: str = "GLAF serial",
    sizes: dict[str, int] | None = None,
    values: dict[str, Any] | None = None,
    compare: list[str] | None = None,
    tolerance: float = DEFAULT_GUARD_TOLERANCE,
) -> GuardResult:
    """Run the generated-Python path against the interpreter reference.

    On divergence beyond ``tolerance`` over the ``compare`` grids (all
    globals by default), or a :class:`CodegenError` / non-budget
    :class:`ExecutionError` in the generated path, falls back to the
    interpreter's result and records a ``guard:serial-fallback`` decision.
    """
    from .runner import run_generated_python, run_interpreted

    ref_result, ref_ctx, _ = run_interpreted(
        program, entry, args, sizes=sizes, values=values)

    def fallback(reason: str, err: float | None = None) -> GuardResult:
        _record_fallback(entry, -1, "generated-python", reason,
                         max_abs_error=err, tolerance=tolerance)
        return GuardResult(
            result=ref_result, context=ref_ctx, fell_back=True,
            reason=reason, max_error=err, tolerance=tolerance)

    try:
        py_result, py_ctx = run_generated_python(
            program, entry, args, variant=variant, sizes=sizes, values=values)
    except ResourceLimitError:
        raise
    except (CodegenError, ExecutionError) as e:
        return fallback(f"{type(e).__name__} in generated Python: {e}")

    cmp = compare_grids(py_ctx.snapshot(compare), ref_ctx.snapshot(compare),
                        AbsolutePolicy(tolerance))
    if not cmp.ok:
        return fallback(
            f"generated-Python divergence (max abs error {cmp.max_error:.3e} "
            f"> tolerance {tolerance:.1e})", cmp.max_error)
    return GuardResult(
        result=py_result, context=py_ctx, fell_back=False,
        max_error=cmp.max_error, tolerance=tolerance)
