"""Vectorized execution of GLAF steps as whole-grid NumPy array programs.

The reference :class:`~repro.glafexec.interp.Interpreter` executes one loop
iteration at a time; for the paper's kernels (2x60-level SARB loops, FUN3D
edge sweeps) that costs a Python-level dispatch per cell.  This module lifts
each step's perfect loop nest into array operations over the full iteration
space — the loop->map transformation of DaCe's ``LoopToMap`` pass, restricted
to the patterns GLAF steps actually produce:

* **pointwise** formulas (the write covers every loop index) become a single
  array expression committed through a strided slice;
* **reductions** (the write covers a proper subset of the loop indices and
  the formula is ``acc = acc + term``, ``acc = acc - term`` or
  ``acc = MIN/MAX(acc, term)``) become ``sum``/``min``/``max`` over the
  missing axes;
* **conditionals** (``IfStmt`` bodies and step conditions) become boolean
  masks applied with ``np.where`` (pointwise) or reduction identities
  (masked reductions).

Everything else — loop-carried dependences, indirect/scatter writes,
subroutine calls or early exits in the body, triangular bounds — is *not*
lifted: the step runs through the inherited reference interpreter and the
demotion is recorded as an ``executor:fallback`` DecisionLog event, so a
vectorized run is never wrong, only selectively slower.  A lift that fails
at runtime (out-of-bounds gather, zero divisor in integer arithmetic) rolls
back the step's written grids and re-executes through the interpreter the
same way.

Sequencing statements as whole-grid operations is loop distribution; it is
legal here because :func:`compile_step` only accepts steps in which every
read of a grid written by the step uses exactly the write's index pattern
(so all cross-statement dependences are iteration-local) and conditions
never read written grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.expr import (
    BinOp,
    Const,
    Expr,
    FuncCall,
    GridRef,
    IndexVar,
    LibCall,
    UnOp,
    grids_read,
    index_vars_used,
    walk,
)
from ..core.libfuncs import get as get_libfunc
from ..core.step import Assign, CallStmt, ExitLoop, IfStmt, Return, Step
from ..errors import ExecutionError, NumericIntegrityError, ResourceLimitError
from ..numeric import sentinel as _sentinel
from ..robust import faults as _faults
from .interp import Interpreter

__all__ = [
    "FallbackEvent", "LiftFailure", "LiftedStep", "VectorizedInterpreter",
    "compile_step", "liftability_report",
]


# ----------------------------------------------------------------------
# compile-time analysis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LiftFailure:
    """Why a step cannot run as an array program (it will be interpreted)."""

    reason: str


@dataclass(frozen=True)
class _ArrayAssign:
    """One flattened, classified assignment of a lifted step."""

    target: GridRef
    kind: str              # "pointwise" | "reduce"
    op: str                # "" (pointwise) | "+" | "min" | "max"
    expr: Expr             # full RHS (pointwise) or the reduction term
    mask: Expr | None      # conjunction of enclosing IfStmt conditions


@dataclass(frozen=True)
class LiftedStep:
    """A step compiled to an executable whole-grid array program.

    ``snapshot_free`` lists written grids whose pre-step copy the runtime
    provably never needs: the grid is written pointwise with no mask and
    no step condition, and the step reads it nowhere (per the backward
    grid-liveness pass over the step CFG).  Re-executing such a step
    through the interpreter rewrites every cell of the written slice from
    inputs the failed lift never touched, so a torn partial write heals
    itself and the rollback snapshot is dead weight.
    """

    assigns: tuple[_ArrayAssign, ...]
    written: tuple[str, ...]
    snapshot_free: tuple[str, ...] = ()


class _Unliftable(Exception):
    pass


def _conj(mask: Expr | None, cond: Expr) -> Expr:
    return cond if mask is None else BinOp("and", mask, cond)


def _flatten(stmts, mask: Expr | None) -> list[tuple[Assign, Expr | None]]:
    """Flatten a loop body into (assignment, guard-mask) pairs."""
    out: list[tuple[Assign, Expr | None]] = []
    for s in stmts:
        if isinstance(s, Assign):
            out.append((s, mask))
        elif isinstance(s, IfStmt):
            out.extend(_flatten(s.then, _conj(mask, s.cond)))
            out.extend(_flatten(s.orelse, _conj(mask, UnOp("not", s.cond))))
        elif isinstance(s, CallStmt):
            raise _Unliftable(f"subroutine call {s.name!r} inside the loop body")
        elif isinstance(s, Return):
            raise _Unliftable("early return inside the loop body")
        elif isinstance(s, ExitLoop):
            raise _Unliftable("early loop exit (EXIT) inside the loop body")
        else:
            raise _Unliftable(f"unsupported statement {type(s).__name__}")
    return out


def _match_reduction(target: GridRef, expr: Expr) -> tuple[str, Expr] | None:
    """Match ``acc = acc + t`` / ``acc = acc - t`` / ``acc = MIN|MAX(acc, t)``."""
    if isinstance(expr, BinOp) and expr.op == "+":
        if expr.left == target:
            return "+", expr.right
        if expr.right == target:
            return "+", expr.left
    if isinstance(expr, BinOp) and expr.op == "-" and expr.left == target:
        return "+", UnOp("neg", expr.right)
    if (isinstance(expr, LibCall) and expr.name in ("MIN", "MAX")
            and len(expr.args) == 2):
        op = "min" if expr.name == "MIN" else "max"
        if expr.args[0] == target:
            return op, expr.args[1]
        if expr.args[1] == target:
            return op, expr.args[0]
    return None


def compile_step(step: Step) -> LiftedStep | LiftFailure:
    """Analyze one loop step; return an array program or the lift failure."""
    if not step.is_loop:
        return LiftFailure("not a loop step")
    free = step.free_index_vars()
    if free:
        return LiftFailure(f"unbound index variable(s) {sorted(free)}")
    for e in step.all_exprs():
        for node in walk(e):
            if isinstance(node, FuncCall):
                return LiftFailure(
                    f"user-function call {node.name!r} in an expression")
    for r in step.ranges:
        for b in (r.start, r.end, r.step):
            if index_vars_used(b):
                return LiftFailure(
                    f"loop bounds of {r.var!r} depend on another loop index "
                    "(triangular iteration space)")
    try:
        flat = _flatten(step.stmts, None)
    except _Unliftable as u:
        return LiftFailure(str(u))
    if not flat:
        return LiftFailure("empty loop body")

    loop_vars = step.index_names()
    all_vars = set(loop_vars)
    assigns: list[_ArrayAssign] = []
    write_pattern: dict[str, tuple[Expr, ...]] = {}
    write_kind: dict[str, str] = {}
    write_op: dict[str, str] = {}
    for s, mask in flat:
        tgt = s.target
        tvars: list[str] = []
        for ie in tgt.indices:
            if isinstance(ie, IndexVar) and ie.name in all_vars:
                if ie.name in tvars:
                    return LiftFailure(
                        f"index variable {ie.name!r} used twice in the write "
                        f"target {tgt.grid!r}")
                tvars.append(ie.name)
            elif isinstance(ie, Const) and isinstance(ie.value, int):
                continue
            else:
                return LiftFailure(
                    f"indirect or non-identity write index on grid "
                    f"{tgt.grid!r}")
        if set(tvars) == all_vars:
            kind, op, expr = "pointwise", "", s.expr
        else:
            m = _match_reduction(tgt, s.expr)
            if m is None:
                return LiftFailure(
                    f"write to {tgt.grid!r} covers only loop indices "
                    f"{tvars or '[]'} and is not a recognized reduction "
                    "(loop-carried dependence)")
            op, expr = m
            if tgt.grid in grids_read(expr):
                return LiftFailure(
                    f"reduction term reads its accumulator {tgt.grid!r}")
            kind = "reduce"
            # Several reductions into one accumulator are fine when they use
            # the same associative-commutative op (the terms never read the
            # accumulator, so the combined result is order-independent);
            # mixed ops (+ then MAX) are genuinely order-dependent.
            prev_op = write_op.get(tgt.grid)
            if prev_op is not None and prev_op != op:
                return LiftFailure(
                    f"grid {tgt.grid!r} updated by reductions with mixed "
                    f"operators ({prev_op!r} and {op!r})")
            write_op[tgt.grid] = op
        prev = write_pattern.get(tgt.grid)
        if prev is not None and prev != tgt.indices:
            return LiftFailure(
                f"grid {tgt.grid!r} written with two different index patterns")
        if write_kind.get(tgt.grid, kind) != kind:
            return LiftFailure(
                f"grid {tgt.grid!r} mixes pointwise and reduction writes")
        write_pattern[tgt.grid] = tgt.indices
        write_kind[tgt.grid] = kind
        assigns.append(_ArrayAssign(tgt, kind, op, expr, mask))

    written = set(write_pattern)
    reduce_grids = {g for g, k in write_kind.items() if k == "reduce"}
    # Reads of written grids: pointwise-written grids may only be read with
    # exactly the write's index pattern (iteration-local dependence);
    # reduction accumulators may not be read at all outside their update.
    for a in assigns:
        for node in walk(a.expr):
            if not isinstance(node, GridRef) or node.grid not in written:
                continue
            if node.grid in reduce_grids:
                return LiftFailure(
                    f"reduction accumulator {node.grid!r} read elsewhere "
                    "in the step")
            if node.indices != write_pattern[node.grid]:
                return LiftFailure(
                    f"loop-carried dependence: {node.grid!r} read with an "
                    "index pattern different from its write pattern")
    guard_exprs = [a.mask for a in assigns if a.mask is not None]
    if step.condition is not None:
        guard_exprs.append(step.condition)
    for e in guard_exprs:
        overlap = grids_read(e) & written
        if overlap:
            return LiftFailure(
                f"condition reads grid(s) {sorted(overlap)} written in the "
                "step")
    for r in step.ranges:
        for b in (r.start, r.end, r.step):
            overlap = grids_read(b) & written
            if overlap:
                return LiftFailure(
                    f"loop bounds read grid(s) {sorted(overlap)} written in "
                    "the step")

    # Liveness proof for snapshot elision: a grid written only pointwise,
    # unmasked and unconditioned, that the step never reads (live-on-entry
    # per the dataflow engine's backward pass) is self-healing under
    # re-execution — no rollback copy needed.
    from ..analysis.dataflow import step_live_on_entry

    live_in = step_live_on_entry(step)
    masked = {a.target.grid for a in assigns if a.mask is not None}
    snapshot_free = tuple(sorted(
        g for g in written
        if write_kind[g] == "pointwise"
        and g not in masked
        and step.condition is None
        and g not in live_in))
    return LiftedStep(assigns=tuple(assigns), written=tuple(sorted(written)),
                      snapshot_free=snapshot_free)


def liftability_report(program) -> dict[tuple[str, int], str]:
    """Map every loop step to its lift-failure reason ('' when liftable).

    Non-loop steps are omitted: they execute through the interpreter by
    design (no fallback is recorded for them).  Used by tests and by the
    EXECUTORS.md worked example.
    """
    out: dict[tuple[str, int], str] = {}
    for fn in sorted(program.functions(), key=lambda f: f.name):
        for idx, step in enumerate(fn.steps):
            if not step.is_loop:
                continue
            plan = compile_step(step)
            out[(fn.name, idx)] = (
                plan.reason if isinstance(plan, LiftFailure) else "")
    return out


# ----------------------------------------------------------------------
# runtime
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FallbackEvent:
    """One step demoted from the vectorized path to the interpreter."""

    function: str
    step_index: int
    step_name: str
    reason: str


_DIRECT = object()   # sentinel plan: non-loop step, interpret without demoting


def _int_like(v: Any) -> bool:
    if isinstance(v, bool):
        return False
    if isinstance(v, int):
        return True
    if isinstance(v, np.ndarray):
        return np.issubdtype(v.dtype, np.integer)
    return isinstance(v, np.generic) and np.issubdtype(type(v), np.integer)


def _identity(op: str, dtype: np.dtype):
    """Reduction identity in the term's own dtype (masked-out lanes)."""
    if op == "+":
        return np.zeros((), dtype=dtype)[()]
    if np.issubdtype(dtype, np.floating):
        return np.inf if op == "min" else -np.inf
    info = np.iinfo(dtype)
    return info.max if op == "min" else info.min


class VectorizedInterpreter(Interpreter):
    """Interpreter subclass that executes liftable loop steps as whole-grid
    array programs and transparently interprets everything else.

    Results match the reference interpreter exactly for pointwise steps and
    to floating-point reassociation error for reductions (NumPy sums pair
    elements in a different order than the serial loop).  Fault-injection
    runs (:mod:`repro.robust.faults`) disable lifting entirely so injected
    faults hit the same per-iteration sites as the reference.
    """

    def __init__(self, *args: Any, **kw: Any):
        super().__init__(*args, **kw)
        self.fallbacks: list[FallbackEvent] = []
        self._plans: dict[tuple[str, int], Any] = {}
        self._demoted: set[tuple[str, int]] = set()

    def call(self, name: str, args: list[Any] | tuple = ()) -> Any:
        from ..observe import get_metrics, get_tracer

        _m = get_metrics()
        if _m.enabled:
            _m.counter("exec.vectorized.calls").inc()
        if self._depth == 0:
            if self._budget is not None:
                self._budget.start()
            with get_tracer().span("exec.vectorized", entry=name):
                return self._call(name, args)
        return self._call(name, args)

    # ------------------------------------------------------------------
    def _exec_step(self, frame, idx: int, step: Step) -> None:
        if _faults._ACTIVE is not None:
            # Keep injection sites (exec.interp.step/iter, numeric.sentinel)
            # hitting per iteration, exactly as the reference does.
            Interpreter._exec_step(self, frame, idx, step)
            return
        key = (frame.fn.name, idx)
        if key in self._demoted:
            Interpreter._exec_step(self, frame, idx, step)
            return
        plan = self._plans.get(key)
        if plan is None:
            plan = _DIRECT if not step.is_loop else compile_step(step)
            self._plans[key] = plan
            if isinstance(plan, LiftFailure):
                self._note_fallback(frame, idx, step, plan.reason)
            elif isinstance(plan, LiftedStep) and plan.snapshot_free:
                self._note_snapshot_elide(frame, idx, step, plan)
        if plan is _DIRECT or isinstance(plan, LiftFailure):
            Interpreter._exec_step(self, frame, idx, step)
            return

        frame.current_step = idx
        frame.current_step_name = step.name
        elided = set(plan.snapshot_free)
        snap = {g: self._storage(frame, g).copy() for g in plan.written
                if g not in elided}
        try:
            self._exec_lifted(frame, idx, step, plan)
        except ResourceLimitError:
            # The budget is spent for *this* run — the error stays
            # terminal — but the step's partial writes must not survive:
            # a later call on this interpreter (fresh budget) or a guard
            # probing a clone must see pre-step storage, not a torn grid.
            # Sticky-demote so any re-run interprets the step instead of
            # re-tripping the lift.
            for g, saved in snap.items():
                self._storage(frame, g)[...] = saved
            self._demoted.add(key)
            self._note_fallback(frame, idx, step,
                                "resource budget exhausted mid-lift")
            raise
        except NumericIntegrityError:
            raise
        except ExecutionError as e:
            # Roll back the step's writes and let the reference interpreter
            # produce the authoritative result (or the canonical error).
            for g, saved in snap.items():
                self._storage(frame, g)[...] = saved
            self._demoted.add(key)
            self._note_fallback(frame, idx, step,
                                f"runtime lift failure: {e}")
            Interpreter._exec_step(self, frame, idx, step)
            return
        from ..observe import get_metrics

        m = get_metrics()
        if m.enabled:
            m.counter("exec.vectorized.steps").inc()

    def _note_snapshot_elide(self, frame, idx: int, step: Step,
                             plan: LiftedStep) -> None:
        """Record the liveness-proved rollback-snapshot elision (once per
        compiled step)."""
        from ..observe import get_decisions, get_metrics

        m = get_metrics()
        if m.enabled:
            m.counter("exec.vectorized.snapshot_elided").inc(
                len(plan.snapshot_free))
        dl = get_decisions()
        if dl.enabled:
            dl.record("executor:snapshot-elide", frame.fn.name, idx,
                      step.name, "no-rollback-copy",
                      reasons=tuple(
                          f"grid {g!r} written pointwise, unmasked, and "
                          "never read in the step (dead on step entry)"
                          for g in plan.snapshot_free))

    def _note_fallback(self, frame, idx: int, step: Step, reason: str) -> None:
        self.fallbacks.append(
            FallbackEvent(frame.fn.name, idx, step.name, reason))
        from ..observe import get_decisions, get_metrics

        m = get_metrics()
        if m.enabled:
            m.counter("exec.vectorized.fallbacks").inc()
        dl = get_decisions()
        if dl.enabled:
            dl.record("executor:fallback", frame.fn.name, idx, step.name,
                      "interpreter", reasons=(reason,))

    # ------------------------------------------------------------------
    def _exec_lifted(self, frame, idx: int, step: Step,
                     plan: LiftedStep) -> None:
        nranges = len(step.ranges)
        axes: dict[str, np.ndarray] = {}
        extents: dict[str, tuple[int, int, int, int]] = {}  # start,last,stride,n
        axis_of: dict[str, int] = {}
        shape_l: list[int] = []
        ranges = self._compiled(frame.fn, idx, step).ranges
        for k, (var, lo, hi, by) in enumerate(ranges):
            start, end, stride = lo(frame), hi(frame), by(frame)
            if stride <= 0:
                raise ExecutionError(
                    f"{frame.fn.name}/{step.name}: non-positive stride")
            vals = np.arange(start, end + 1, stride, dtype=np.int64)
            shape_l.append(vals.size)
            axis_of[var] = k
            if vals.size:
                extents[var] = (start, int(vals[-1]), stride, vals.size)
            axes[var] = vals.reshape(
                (1,) * k + (vals.size,) + (1,) * (nranges - 1 - k))
        shape = tuple(shape_l)
        total = 1
        for n in shape:
            total *= n
        if total == 0:
            return
        self.stats.note_iter(frame.fn.name, idx, total)
        if self._budget is not None:
            self._budget.tick(total)

        base_mask = None
        if step.condition is not None:
            base_mask = self._veval(frame, step.condition, axes)

        for a in plan.assigns:
            store = self._storage(frame, a.target.grid)
            if not a.target.indices and store.ndim != 0:
                raise ExecutionError(
                    f"cannot assign scalar to whole array {a.target.grid!r}")
            sel: list[Any] = []
            out_axes: list[int] = []   # loop axis per IndexVar dim, in order
            for k, ie in enumerate(a.target.indices):
                if k >= store.ndim:
                    raise ExecutionError(
                        f"{frame.fn.name}: rank mismatch writing grid "
                        f"{a.target.grid!r}")
                extent = store.shape[k]
                if isinstance(ie, IndexVar):
                    start, last, stride, _n = extents[ie.name]
                    if start < 1 or last > extent:
                        bad = start if start < 1 else last
                        raise ExecutionError(
                            f"{frame.fn.name}: index {bad} out of bounds for "
                            f"dimension {k + 1} of grid {a.target.grid!r} "
                            f"(extent {extent})")
                    sel.append(slice(start - 1, last, stride))
                    out_axes.append(axis_of[ie.name])
                else:
                    c = int(ie.value)
                    if not (1 <= c <= extent):
                        raise ExecutionError(
                            f"{frame.fn.name}: index {c} out of bounds for "
                            f"dimension {k + 1} of grid {a.target.grid!r} "
                            f"(extent {extent})")
                    sel.append(c - 1)
            tsel = tuple(sel)

            mask = base_mask
            if a.mask is not None:
                mv = self._veval(frame, a.mask, axes)
                mask = mv if mask is None else np.logical_and(mask, mv)
            if mask is not None and np.ndim(mask) == 0:
                if not bool(mask):
                    continue       # uniformly false guard: no contribution
                mask = None        # uniformly true guard

            raw = np.asarray(self._veval(frame, a.expr, axes))
            if a.kind == "pointwise":
                value = np.broadcast_to(raw, shape)
                if out_axes != list(range(nranges)):
                    value = np.transpose(value, out_axes)
                if mask is not None:
                    mfull = np.broadcast_to(np.asarray(mask), shape)
                    if out_axes != list(range(nranges)):
                        mfull = np.transpose(mfull, out_axes)
                    value = np.where(mfull, value, store[tsel])
            else:
                tset = {v for v in
                        (ie.name for ie in a.target.indices
                         if isinstance(ie, IndexVar))}
                red_axes = tuple(k for k, r in enumerate(step.ranges)
                                 if r.var not in tset)
                term = np.broadcast_to(raw, shape)
                if mask is not None:
                    term = np.where(np.broadcast_to(np.asarray(mask), shape),
                                    term, _identity(a.op, term.dtype))
                if a.op == "+":
                    contrib = term.sum(axis=red_axes)
                elif a.op == "min":
                    contrib = term.min(axis=red_axes)
                else:
                    contrib = term.max(axis=red_axes)
                kept = [k for k in range(nranges) if k not in red_axes]
                perm = [kept.index(ax) for ax in out_axes]
                if perm != list(range(len(kept))):
                    contrib = np.transpose(contrib, perm)
                cur = store[tsel]
                if a.op == "+":
                    value = cur + contrib
                elif a.op == "min":
                    value = np.minimum(cur, contrib)
                else:
                    value = np.maximum(cur, contrib)
            if _sentinel._ACTIVE is not None:
                _sentinel.check_value(
                    value, function=frame.fn.name, step_index=idx,
                    step_name=step.name, grid=a.target.grid, cell=None)
            store[tsel] = value

    # ------------------------------------------------------------------
    # whole-grid expression evaluation
    # ------------------------------------------------------------------
    def _veval(self, frame, e: Expr, axes: dict[str, np.ndarray]) -> Any:
        if isinstance(e, Const):
            return e.value
        if isinstance(e, IndexVar):
            try:
                return axes[e.name]
            except KeyError:
                raise ExecutionError(
                    f"unbound index variable {e.name!r}") from None
        if isinstance(e, GridRef):
            store = self._storage(frame, e.grid)
            if not e.indices:
                return store[()] if store.ndim == 0 else store
            sel = []
            for k, ie in enumerate(e.indices):
                ia = np.asarray(self._veval(frame, ie, axes),
                                dtype=np.int64) - 1
                if k >= store.ndim:
                    raise ExecutionError(
                        f"{frame.fn.name}: rank mismatch reading grid "
                        f"{e.grid!r}")
                n = store.shape[k]
                lo, hi = int(ia.min()), int(ia.max())
                if lo < 0 or hi >= n:
                    bad = lo if lo < 0 else hi
                    raise ExecutionError(
                        f"{frame.fn.name}: index {bad + 1} out of bounds for "
                        f"dimension {k + 1} of grid {e.grid!r} (extent {n})")
                sel.append(ia)
            return store[tuple(sel)]
        if isinstance(e, BinOp):
            return self._veval_binop(frame, e, axes)
        if isinstance(e, UnOp):
            v = self._veval(frame, e.operand, axes)
            return np.logical_not(v) if e.op == "not" else np.negative(v)
        if isinstance(e, LibCall):
            f = get_libfunc(e.name)
            f.check_arity(len(e.args))
            args = [self._storage(frame, a.grid)
                    if isinstance(a, GridRef) and not a.indices
                    else self._veval(frame, a, axes)
                    for a in e.args]
            return f.impl(*args)
        raise ExecutionError(
            f"cannot vectorize expression {type(e).__name__}")

    def _veval_binop(self, frame, e: BinOp,
                     axes: dict[str, np.ndarray]) -> Any:
        op = e.op
        # No short-circuit for and/or: operands are side-effect free, and a
        # bounds violation in an unreachable operand falls back cleanly.
        lv = self._veval(frame, e.left, axes)
        rv = self._veval(frame, e.right, axes)
        if op == "and":
            return np.logical_and(lv, rv)
        if op == "or":
            return np.logical_or(lv, rv)
        if op == "+":
            return lv + rv
        if op == "-":
            return lv - rv
        if op == "*":
            return lv * rv
        if op in ("/", "//"):
            if op == "/" and not (_int_like(lv) and _int_like(rv)):
                return lv / rv
            if np.any(np.asarray(rv) == 0):
                raise ExecutionError("integer division by zero")
            q = np.trunc(np.true_divide(lv, rv))  # FORTRAN integer division
            return (q.astype(np.int64) if isinstance(q, np.ndarray)
                    else np.int64(q))
        if op == "%":
            if np.any(np.asarray(rv) == 0):
                raise ExecutionError("modulo by zero")
            r = np.abs(lv) % np.abs(rv)
            return np.where(np.asarray(lv) < 0, -r, r)  # dividend's sign
        if op == "**":
            return lv ** rv
        if op == "==":
            return np.equal(lv, rv)
        if op == "!=":
            return np.not_equal(lv, rv)
        if op == "<":
            return np.less(lv, rv)
        if op == "<=":
            return np.less_equal(lv, rv)
        if op == ">":
            return np.greater(lv, rv)
        if op == ">=":
            return np.greater_equal(lv, rv)
        raise ExecutionError(f"unknown operator {op!r}")
