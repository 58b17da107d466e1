"""Shuffled-order execution: a functional check of parallel correctness.

The paper validates its OpenMP directives by inspection ("we manually
verify the correctness of the OpenMP directives and associated clauses").
This module mechanizes the idea: a step annotated PARALLEL DO must produce
the same result under *any* iteration order.  The
:class:`ShuffledInterpreter` executes exactly the steps a plan marks
parallel in a seeded-random iteration order; comparing against the
sequential run exposes mis-annotated loops (a loop-carried dependence
wrongly marked parallel changes the output).

Floating-point reductions and ATOMIC updates commute only up to rounding,
so comparisons use a tight tolerance rather than exact equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .. import runconfig as _rc
from ..core.function import GlafProgram
from ..core.step import ExitLoop, Return, Step, walk_stmts
from ..errors import ExecutionError
from ..numeric import AbsolutePolicy, compare_grids
from ..optimize.plan import OptimizationPlan
from ..robust import faults as _faults
from .context import ExecutionContext
from .interp import Interpreter

__all__ = ["ShuffledInterpreter", "ParallelValidation", "validate_parallel_semantics"]


class ShuffledInterpreter(Interpreter):
    """Executes plan-parallel steps in randomized iteration order."""

    def __init__(self, program: GlafProgram, context: ExecutionContext,
                 plan: OptimizationPlan, *, seed: int = 0, **kw: Any):
        super().__init__(program, context, **kw)
        self.plan = plan
        self.rng = np.random.default_rng(seed)
        self.shuffled_steps: list[tuple[str, int]] = []

    def _shuffles(self, fn_name: str, idx: int, step: Step) -> bool:
        """Whether a step runs in shuffled order (and so is probed by the
        guard): a plan-parallel loop with no ``RETURN``/``EXIT``.

        Early-exit loops keep their order even when parallel (the CRITICAL
        protocol preserves a deterministic winner only with extra
        machinery; GLAF serializes the decision).
        """
        return (self.plan.step_is_parallel(fn_name, idx) and step.is_loop
                and not any(isinstance(s, (Return, ExitLoop))
                            for s in walk_stmts(step.stmts)))

    def _exec_step(self, frame, idx: int, step: Step) -> None:
        if not self._shuffles(frame.fn.name, idx, step):
            super()._exec_step(frame, idx, step)
            return

        compiled = self._compiled(frame.fn, idx, step)
        tuples = self._enumerate_nest(frame, compiled.ranges)
        order = self.rng.permutation(len(tuples))
        self.shuffled_steps.append((frame.fn.name, idx))
        self.stats.note_iter(frame.fn.name, idx, len(tuples))
        names = step.index_names()
        cond, body = compiled.cond, compiled.body
        for k in order:
            if self._budget is not None:
                self._budget.tick()
            if _rc._active.faults is not None:
                _faults.inject("exec.interp.iter", function=frame.fn.name,
                               step=idx)
            for var, value in zip(names, tuples[k]):
                frame.indices[var] = value
            if cond is not None and not cond(frame):
                continue
            body(frame)
        for var in names:
            frame.indices.pop(var, None)

    def _enumerate_nest(self, frame, ranges: tuple) -> list[tuple[int, ...]]:
        """All index tuples of the nest (handles triangular bounds);
        ``ranges`` are the compiled ``(var, start, end, stride)`` levels."""
        out: list[tuple[int, ...]] = []
        names = [var for var, *_ in ranges]

        def rec(level: int, prefix: tuple[int, ...]) -> None:
            if level == len(ranges):
                out.append(prefix)
                return
            _, lo, hi, by = ranges[level]
            for var, value in zip(names, prefix):
                frame.indices[var] = value
            start, end, stride = lo(frame), hi(frame), by(frame)
            if stride <= 0:
                raise ExecutionError("non-positive stride")
            for i in range(start, end + 1, stride):
                rec(level + 1, prefix + (i,))

        rec(0, ())
        for var in names:
            frame.indices.pop(var, None)
        return out


@dataclass
class ParallelValidation:
    """Outcome of a sequential-vs-shuffled comparison."""

    entry: str
    shuffled_steps: list[tuple[str, int]]
    ok: bool
    max_abs_error: float
    tolerance: float
    compared_grids: list[str] = field(default_factory=list)
    detail: str = ""                 # the worst (seed, grid), named


def validate_parallel_semantics(
    program: GlafProgram,
    plan: OptimizationPlan,
    entry: str,
    make_args,
    *,
    sizes: dict[str, int] | None = None,
    values: dict[str, Any] | None = None,
    seeds: tuple[int, ...] = (1, 2, 3),
    tolerance: float = 1e-9,
    compare: list[str] | None = None,
) -> ParallelValidation:
    """Run ``entry`` sequentially and under several shuffled orders; the
    global state after every run must agree within ``tolerance``.

    ``make_args()`` must return a fresh argument list each call (arrays are
    mutated in place).  ``compare`` restricts the comparison to the named
    global grids — use it to exclude module-scope *scratch* whose final
    value legitimately depends on which iteration ran last (e.g. FUN3D's
    per-cell ``grad``).
    """
    def fresh_context() -> ExecutionContext:
        return ExecutionContext(program, sizes=sizes, values=values)

    ctx_ref = fresh_context()
    Interpreter(program, ctx_ref).call(entry, make_args())
    ref = ctx_ref.snapshot(compare)

    # One comparison over every (seed, grid) pair, so the verdict and the
    # worst error come from the same oracle as the guards.
    got: dict[tuple[int, str], np.ndarray] = {}
    shuffled_steps: list[tuple[str, int]] = []
    for seed in seeds:
        ctx = fresh_context()
        interp = ShuffledInterpreter(program, ctx, plan, seed=seed)
        interp.call(entry, make_args())
        shuffled_steps = interp.shuffled_steps
        got.update({(seed, name): arr
                    for name, arr in ctx.snapshot(compare).items()})
    cmp = compare_grids(
        got, {(seed, name): arr for seed in seeds for name, arr in ref.items()},
        AbsolutePolicy(tolerance))
    return ParallelValidation(
        entry=entry,
        shuffled_steps=sorted(set(shuffled_steps)),
        ok=cmp.ok,
        max_abs_error=cmp.max_error,
        tolerance=tolerance,
        compared_grids=sorted(ref),
        detail=cmp.detail,
    )
