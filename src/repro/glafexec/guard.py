"""Guarded execution: divergence-checked parallel steps with serial fallback.

The paper validates auto-parallelized kernels offline, by side-by-side
comparison against the legacy output (§4, Table 1).  The
:class:`GuardedRunner` moves that check *into* the run: every step the
optimization plan marks parallel is first *probed* in a shuffled iteration
order (reusing :class:`ShuffledInterpreter` semantics) on a snapshot of the
affected state, then executed serially; if the probe diverges from the
serial result beyond tolerance — or raises an :class:`ExecutionError` —
the step is demoted to serial for the rest of the run and a structured
``guard:serial-fallback`` event is recorded in the PR-1 DecisionLog.

The serial result is **always** the one kept, so a guarded run is
bit-identical to a plain interpreted run; the probe only decides whether
the parallel annotation deserves trust.  :class:`ResourceLimitError` is
deliberately re-raised rather than recovered: a step that exhausted its
budget will not do better when re-executed.

:func:`guarded_python_run` applies the same policy to the generated-Python
path, and :func:`guarded_vectorized_run` to the vectorized executor: run
it against the interpreter reference and fall back to the interpreter's
result on divergence, :class:`CodegenError`, or :class:`ExecutionError`.
Every guard compares under the ``abs`` policy through
:func:`repro.numeric.compare_grids` and reports a fallback through one
recorder, so each one counts ``guard.serial_fallbacks``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.function import GlafProgram
from ..core.step import Step
from ..errors import CodegenError, ExecutionError, ResourceLimitError
from ..numeric import AbsolutePolicy, compare_grids
from ..optimize.plan import OptimizationPlan, make_plan
from ..robust import ResourceLimits, inject
from .context import ExecutionContext
from .interp import Interpreter
from .shuffle import ShuffledInterpreter

__all__ = [
    "GuardEvent", "GuardResult", "GuardedInterpreter", "GuardedRun",
    "GuardedRunner", "guarded_python_run", "guarded_vectorized_run",
]

DEFAULT_GUARD_TOLERANCE = 1e-9


def _record_fallback(function: str, step_index: int, step_name: str,
                     reason: str, err: float | None, tolerance: float) -> None:
    """Count one serial fallback in ``guard.serial_fallbacks`` and record
    its ``guard:serial-fallback`` decision; every guard reports here."""
    from ..observe import get_decisions, get_metrics

    m = get_metrics()
    if m.enabled:
        m.counter("guard.serial_fallbacks").inc()
    dl = get_decisions()
    if dl.enabled:
        dl.record("guard", function, step_index, step_name,
                  "serial-fallback", reasons=(reason,),
                  max_abs_error=err, tolerance=tolerance)


@dataclass(frozen=True)
class GuardEvent:
    """One serial-fallback demotion decided by the divergence guard."""

    function: str
    step_index: int
    step_name: str
    reason: str
    max_abs_error: float | None = None
    tolerance: float = DEFAULT_GUARD_TOLERANCE


class GuardedInterpreter(ShuffledInterpreter):
    """Interpreter that probes each plan-parallel step before trusting it.

    For every plan-parallel loop step (without early exits): snapshot the
    reachable state, execute the step once in a shuffled order (the probe),
    snapshot again, roll back, execute serially, and compare.  Divergence
    or an :class:`ExecutionError` inside the probe demotes the step —
    stickily, so later executions of the same step skip the probe.

    ``ExecStats`` iteration counts include the probe, so guarded runs
    roughly double-count loop iterations; the *results* are those of the
    serial execution, always.
    """

    def __init__(self, program: GlafProgram, context: ExecutionContext,
                 plan: OptimizationPlan, *, seed: int = 1,
                 tolerance: float = DEFAULT_GUARD_TOLERANCE, **kw: Any):
        super().__init__(program, context, plan, seed=seed, **kw)
        self.tolerance = tolerance
        self._policy = AbsolutePolicy(tolerance)
        self.events: list[GuardEvent] = []
        self.demoted: set[tuple[str, int]] = set()
        self._suspended = 0

    # ------------------------------------------------------------------
    def _exec_step(self, frame, idx: int, step: Step) -> None:
        key = (frame.fn.name, idx)
        if (self._suspended or key in self.demoted
                or not self._shuffles(frame.fn.name, idx, step)):
            Interpreter._exec_step(self, frame, idx, step)
            return

        before = self._snapshot(frame)
        probe_error: ExecutionError | None = None
        after_probe: dict | None = None
        self._suspended += 1
        try:
            inject("exec.interp.step", function=frame.fn.name, step=idx,
                   parallel=True)
            super()._exec_step(frame, idx, step)   # shuffled probe
            after_probe = self._snapshot(frame)
        except ResourceLimitError:
            raise                        # budget exhausted: never retry
        except ExecutionError as e:
            probe_error = e
        finally:
            self._suspended -= 1

        # Roll back and execute serially; the serial result is authoritative.
        self._restore(frame, before)
        self._suspended += 1
        try:
            Interpreter._exec_step(self, frame, idx, step)
        finally:
            self._suspended -= 1

        if probe_error is not None:
            self._demote(key, step,
                         f"ExecutionError in parallel step: {probe_error}",
                         None)
            return
        cmp = compare_grids(after_probe, self._snapshot(frame), self._policy)
        if not cmp.ok:
            self._demote(
                key, step,
                f"shuffled-order divergence (max abs error "
                f"{cmp.max_error:.3e} > tolerance {self.tolerance:.1e})",
                cmp.max_error)

    # ------------------------------------------------------------------
    # snapshot / restore of everything a step can reach
    # ------------------------------------------------------------------
    def _snapshot(self, frame) -> dict[tuple, np.ndarray]:
        snap: dict[tuple, np.ndarray] = {}
        for name, arr in frame.storage.items():
            snap[("frame", name)] = arr.copy()
        for name, arr in self.context.globals.items():
            snap[("global", name)] = arr.copy()
        for key, arr in self._save_store.items():
            snap[("save",) + key] = arr.copy()
        return snap

    def _restore(self, frame, snap: dict[tuple, np.ndarray]) -> None:
        # In-place so aliases (by-reference arguments, SAVE'd storage held
        # elsewhere) stay associated.
        for name, arr in frame.storage.items():
            arr[...] = snap[("frame", name)]
        for name, arr in self.context.globals.items():
            arr[...] = snap[("global", name)]
        for key in list(self._save_store):
            skey = ("save",) + key
            if skey in snap:
                self._save_store[key][...] = snap[skey]
            else:
                # SAVE'd local first allocated inside the probe: discard it
                # so the serial execution allocates afresh.
                del self._save_store[key]

    # ------------------------------------------------------------------
    def _demote(self, key: tuple[str, int], step: Step, reason: str,
                err: float | None) -> None:
        self.demoted.add(key)
        self.events.append(GuardEvent(
            function=key[0], step_index=key[1], step_name=step.name,
            reason=reason, max_abs_error=err, tolerance=self.tolerance,
        ))
        _record_fallback(key[0], key[1], step.name, reason, err,
                         self.tolerance)


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
    """Front door for guarded execution of a program's entry point."""

    def __init__(self, program: GlafProgram, plan: OptimizationPlan | None = None,
                 *, variant: str = "GLAF-parallel v0", seed: int = 1,
                 tolerance: float = DEFAULT_GUARD_TOLERANCE,
                 limits: ResourceLimits | None = None):
        self.program = program
        self.plan = plan if plan is not None else make_plan(program, variant)
        self.seed = seed
        self.tolerance = tolerance
        self.limits = limits

    def run(self, entry: str, args: list[Any] | tuple = (), *,
            sizes: dict[str, int] | None = None,
            values: dict[str, Any] | None = None,
            context: ExecutionContext | None = None) -> GuardedRun:
        from ..observe import get_tracer

        ctx = context if context is not None else ExecutionContext(
            self.program, sizes=sizes, values=values)
        interp = GuardedInterpreter(
            self.program, ctx, self.plan, seed=self.seed,
            tolerance=self.tolerance, limits=self.limits)
        with get_tracer().span("exec.run.guarded", entry=entry,
                               program=self.program.name):
            result = interp.call(entry, list(args))
        return GuardedRun(
            result=result, context=ctx, events=list(interp.events),
            demoted=frozenset(interp.demoted), plan=self.plan,
        )


# ----------------------------------------------------------------------
# whole-run guards: generated Python and the vectorized executor
# ----------------------------------------------------------------------
@dataclass
class GuardResult:
    """Outcome of :func:`guarded_python_run` or
    :func:`guarded_vectorized_run`."""

    result: Any
    context: ExecutionContext          # authoritative (interpreter on fallback)
    fell_back: bool
    reason: str = ""
    max_error: float | None = None
    tolerance: float = DEFAULT_GUARD_TOLERANCE
    #: per-step lift demotions recorded by the vectorized probe
    fallbacks: tuple = ()


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
        _record_fallback(entry, -1, "generated-python", reason, err,
                         tolerance)
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


def guarded_vectorized_run(
    program: GlafProgram,
    entry: str,
    args: list[Any] | tuple = (),
    *,
    sizes: dict[str, int] | None = None,
    values: dict[str, Any] | None = None,
    context: ExecutionContext | None = None,
    compare: list[str] | None = None,
    tolerance: float = DEFAULT_GUARD_TOLERANCE,
    limits: ResourceLimits | None = None,
) -> GuardResult:
    """Run the vectorized executor against the interpreter reference.

    The vectorized path executes on a **clone** of the context and on
    copies of the array arguments; the interpreter then executes on the
    real ones, so the kept state is always the reference result (same
    contract as :class:`GuardedRunner`).  The final globals (the
    ``compare`` grids, all by default) and the array arguments, by
    parameter name, are compared under the ``abs`` policy; divergence — or
    an :class:`ExecutionError` in the vectorized probe — records a
    ``guard:serial-fallback`` decision naming the vectorized executor.
    """
    from ..observe import get_tracer
    from .vectorize import VectorizedInterpreter

    ctx = context if context is not None else ExecutionContext(
        program, sizes=sizes, values=values)
    probe_ctx = ctx.clone()
    reason: str | None = None
    with get_tracer().span("exec.run.guarded-vectorized", entry=entry,
                           program=program.name):
        vec = VectorizedInterpreter(program, probe_ctx, limits=limits)
        # Array arguments are storage, exactly like context grids: the
        # probe gets copies, so neither its writes nor a mid-probe budget
        # trip can leak into the arrays the authoritative interpreter run
        # below reads and the caller keeps.
        probe_args = [a.copy() if isinstance(a, np.ndarray) else a
                      for a in args]
        try:
            vec.call(entry, probe_args)
        except ResourceLimitError:
            raise                        # budget exhausted: never retry
        except ExecutionError as e:
            reason = f"{type(e).__name__} in vectorized execution: {e}"
        ref_result = Interpreter(program, ctx, limits=limits).call(
            entry, list(args))

    fallbacks = tuple(vec.fallbacks)
    err: float | None = None
    if reason is None:
        params = program.find_function(entry).params

        def grids(c: ExecutionContext, a: list[Any] | tuple) -> dict:
            return {**c.snapshot(compare),
                    **{p: v for p, v in zip(params, a)
                       if isinstance(v, np.ndarray)}}

        cmp = compare_grids(grids(probe_ctx, probe_args), grids(ctx, args),
                            AbsolutePolicy(tolerance))
        err = cmp.max_error
        if cmp.ok:
            return GuardResult(
                result=ref_result, context=ctx, fell_back=False,
                max_error=err, tolerance=tolerance, fallbacks=fallbacks)
        reason = f"vectorized divergence on {cmp.detail}"
    _record_fallback(entry, -1, "vectorized-executor", reason, err, tolerance)
    return GuardResult(
        result=ref_result, context=ctx, fell_back=True, reason=reason,
        max_error=err, tolerance=tolerance, fallbacks=fallbacks)

