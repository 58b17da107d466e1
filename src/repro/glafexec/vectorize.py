"""Lifting loop nests to whole-array NumPy programs.

The reference :class:`~repro.glafexec.interp.Interpreter` executes one loop
iteration at a time; for the paper's kernels (2x60-level SARB loops, FUN3D
edge sweeps) that costs a Python-level dispatch per cell.  This module
*lifts* a step's perfect loop nest into array operations over the full
iteration space — the loop->map transformation of DaCe's ``LoopToMap``
pass, restricted to the patterns GLAF steps actually produce:

* **pointwise** formulas (the write covers every loop index) become a single
  array expression committed through a strided slice;
* **reductions** (the write covers a proper subset of the loop indices and
  the formula is ``acc = acc + term``, ``acc = acc - term`` or
  ``acc = MIN/MAX(acc, term)``) fold their terms into the accumulator in
  loop order;
* **conditionals** (``IfStmt`` bodies and step conditions) become boolean
  masks.  A masked write's value, and a masked reduction's term, is
  evaluated on the active lanes only, and ``.AND.``/``.OR.`` evaluate
  their right operand only where the left one does not decide, as the
  scalar loop does: a gather is bounds-checked, and a floating-point
  condition raised, only where the scalar loop would evaluate it;
* **indirect accumulators** (``acc(idx(i)) = acc(idx(i)) + t``) fold
  with ``np.add.at``, which applies duplicate indices in index order,
  so the updates land in loop order.

It is one engine with two front ends.  :func:`compile_step` decides
legality on the IR :class:`~repro.core.step.Step` form, and every step
it lifts is a :class:`LiftedSweep`: a perfect nest is a sweep of one nest.
Given the program, it also lifts a loop step whose body calls leaf
subprograms (FUN3D's cell sweep) or keeps a per-iteration scalar
temporary: :mod:`repro.glafexec.inline` inlines the callees and splits
the body into nests with per-iteration scratch.  :func:`compiled_plan`
compiles a sweep once into one program interface, ``names``,
``written``, ``dims``, ``arith``, ``fixed``, ``bounds(S)`` and ``run(S,
ranges, account)``: a sweep of one nest with no scratch and no notes is
its nest's :class:`LiftProgram`, any other a :class:`SweepProgram` that
runs its nests' programs in order.  The GLAF IR executor
(:class:`VectorizedInterpreter`, below) and the FORTRAN-text runtime
(:mod:`repro.fortranlib.lower`, which lowers DO nests into the same step
form) each run it behind their own guards, with their own accounting
callback.  A lifted step equals the scalar loop bit for bit: reads of
plain loop-variable subscripts are strided views, reductions fold with
``np.add.accumulate`` (or the ``minimum``/``maximum`` ufunc) in nest
order, and every update of one accumulator interleaves in statement
order.

Everything else — loop-carried dependences, plain indirect stores,
calls the inliner refuses, early exits in the body, triangular bounds —
is *not* lifted: the step runs on its front end's scalar path, and the
demotion is recorded as an ``executor:fallback`` decision, so a lifted
run is never wrong, only selectively slower.  A lifted program that fails
at run time (out-of-bounds gather, zero integer divisor, integer
overflow) restores what it wrote and raises :class:`ExecutionError`; the
front end then runs the scalar path.  No lifted code runs while a hook
could fire inside it: fault sites and sentinel screens sit on the scalar
paths, per iteration and per assignment.  The IR front end lifts nothing
while the run configuration is hooked (a fault plan or numeric
sentinels), the FORTRAN front end nothing while the sentinels are on.

Sequencing statements as whole-grid operations is loop distribution; it is
legal here because :func:`compile_step` only accepts steps in which every
read of a grid written by the step uses exactly the write's index pattern
(so all cross-statement dependences are iteration-local) and conditions
never read written grids.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .. import runconfig as _rc
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
from ..core.step import Step
from ..errors import (
    CodegenError,
    ExecutionError,
    ResourceLimitError,
)
from ..observe.decisions import get_decisions
from ..observe.metrics import get_metrics
from ..observe.trace import get_tracer
from ..recurring import RecurringCache, digest
from .context import as_storage
from .inline import (
    Cast,
    Inlined,
    Nest,
    Note,
    Search,
    Split,
    Unliftable,
    flatten,
    search_vars,
    split_step,
)
from .interp import Interpreter

__all__ = [
    "FallbackEvent", "LiftFailure", "LiftProgram", "LiftedStep",
    "LiftedSweep", "SweepProgram", "VectorizedInterpreter",
    "compile_lifted", "compile_step", "compiled_plan", "liftability_report",
    "note_inline",
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
    kind: str              # "pointwise" | "reduce" | "scatter"
    op: str                # "" (pointwise) | "+" | "min" | "max"
    expr: Expr             # full RHS (pointwise) or the reduction term
    mask: Expr | None      # conjunction of enclosing IfStmt conditions
    acc_first: bool = True  # the accumulator is the left operand
    negate: bool = False    # ``acc = acc - expr``: the term is subtracted


@dataclass(frozen=True)
class LiftedStep:
    """One nest that the one-nest rules accepted, with its classified
    assignments in statement order.

    ``keep`` pairs an expanded scalar temporary with the grid that holds
    its last lane's value after the nest.
    """

    assigns: tuple[_ArrayAssign, ...]
    written: tuple[str, ...]
    step: Step = field(repr=False, compare=False, hash=False)
    keep: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class LiftedSweep:
    """A loop step that :func:`compile_step` lifted: its nests, in order,
    and the split (:mod:`repro.glafexec.inline`) that made them, which
    inlined its leaf calls and expanded its per-iteration scratch.  A
    perfect nest is a sweep of that one nest, with an empty split.

    ``written`` names the storage outside the scratch that the nests and
    the final keeps write; :meth:`SweepProgram.run` copies it before the
    first nest and restores it if the sweep fails.
    """

    nests: tuple[LiftedStep, ...]
    split: Split = field(repr=False)
    written: tuple[str, ...]
    step: Step = field(repr=False, compare=False, hash=False)

    @property
    def inlined(self) -> tuple[str, ...]:
        return self.split.inlined

    @property
    def depth(self) -> int:
        return self.split.depth


def _match_reduction(target: GridRef,
                     expr: Expr) -> tuple[str, Expr, bool, bool] | None:
    """Match ``acc = acc + t`` / ``acc = acc - t`` / ``acc = MIN|MAX(acc, t)``
    (either operand order); returns (op, term, accumulator-is-left,
    term-is-subtracted)."""
    if isinstance(expr, BinOp) and expr.op == "+":
        if expr.left == target:
            return "+", expr.right, True, False
        if expr.right == target:
            return "+", expr.left, False, False
    if isinstance(expr, BinOp) and expr.op == "-" and expr.left == target:
        return "+", expr.right, True, True
    if (isinstance(expr, LibCall) and expr.name in ("MIN", "MAX")
            and len(expr.args) == 2):
        op = "min" if expr.name == "MIN" else "max"
        if expr.args[0] == target:
            return op, expr.args[1], True, False
        if expr.args[1] == target:
            return op, expr.args[0], False, False
    return None


def compile_step(step: Step, program=None, fn=None, *,
                 save_inner_arrays: bool = False
                 ) -> LiftedSweep | LiftFailure:
    """Analyze one loop step; return the lifted sweep or the lift failure.

    These are the lift rules, in one place:

    * a body of assignments and IFs is one nest (:func:`_lift_nest`);
    * given ``program`` and ``fn`` (the function holding ``step``), calls
      inline and the body splits into nests with per-iteration scratch
      (:func:`~repro.glafexec.inline.split_step`, whose docstring states
      the rules for callees, arguments and scratch); each split nest must
      then pass the one-nest rules;
    * without them, a scalar temporary (written before it is read in
      every iteration) still expands, into one nest with scratch.

    ``save_inner_arrays`` is the interpreter's setting: it makes a
    callee's allocatable locals SAVE'd.
    """
    if not step.is_loop:
        return LiftFailure("not a loop step")
    calls = step.called_functions()
    direct = None
    if not calls or program is None or fn is None:
        direct = _lift_nest(step)
        if isinstance(direct, LiftedStep):
            return LiftedSweep((direct,), Split((Nest(step),), (), (), (),
                                                (), 0), direct.written, step)
        if calls:
            return direct               # no program to inline them from
    try:
        split = split_step(step, program, fn,
                           save_inner_arrays=save_inner_arrays)
    except Unliftable as u:
        return direct or LiftFailure(str(u))
    nests = []
    for nest in split.nests:
        lifted = _lift_nest(nest.step, keep=nest.keep)
        if isinstance(lifted, LiftFailure):
            if direct is not None:
                return direct
            if len(split.nests) == 1:
                return lifted
            return LiftFailure(f"split nest {nest.step.name!r}: "
                               f"{lifted.reason}")
        nests.append(lifted)
    scratch = {s.name for s in split.scratch}
    written = {g for n in nests for g in n.written if g not in scratch}
    written |= {s.target[1] for s in split.scratch
                if s.target is not None and s.target[0] == "grid"}
    return LiftedSweep(tuple(nests), split, tuple(sorted(written)), step)


def _lift_nest(step: Step, keep: tuple = ()) -> LiftedStep | LiftFailure:
    """The one-nest rules: classify every assignment of a loop step whose
    body holds only assignments and IFs."""
    free = step.free_index_vars()
    if free:
        free -= {v for e in step.all_exprs() for v in search_vars(e)}
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
        flat = flatten(step.stmts)
    except Unliftable as u:
        return LiftFailure(str(u))
    if not flat:
        return LiftFailure("empty loop body")

    loop_vars = step.index_names()
    all_vars = set(loop_vars)
    assigns: list[_ArrayAssign] = []
    write_pattern: dict[str, tuple[Expr, ...]] = {}
    write_kind: dict[str, str] = {}
    write_op: dict[str, str] = {}
    invariant: list[tuple[str, Expr]] = []
    for s, mask in flat:
        tgt = s.target
        tvars: list[str] = []
        indirect = False
        for ie in tgt.indices:
            if isinstance(ie, IndexVar) and ie.name in all_vars:
                if ie.name in tvars:
                    return LiftFailure(
                        f"index variable {ie.name!r} used twice in the write "
                        f"target {tgt.grid!r}")
                tvars.append(ie.name)
            else:
                # Loop-invariant (a constant, or an expression over grids
                # the step does not write: checked below) or gathered.
                invariant.append((tgt.grid, ie))
                indirect |= bool(index_vars_used(ie))
        acc_first, negate = True, False
        if indirect:
            # An indirect accumulator folds with np.add.at in loop order;
            # any other indirect store has no defined winner.
            m = _match_reduction(tgt, s.expr)
            if m is None or m[0] != "+":
                return LiftFailure(
                    f"indirect or non-identity write index on grid "
                    f"{tgt.grid!r}")
            op, expr, acc_first, negate = m
            if tgt.grid in grids_read(expr):
                return LiftFailure(
                    f"reduction term reads its accumulator {tgt.grid!r}")
            kind = "scatter"
            write_op[tgt.grid] = op
        elif set(tvars) == all_vars:
            kind, op, expr = "pointwise", "", s.expr
        else:
            m = _match_reduction(tgt, s.expr)
            if m is None:
                return LiftFailure(
                    f"write to {tgt.grid!r} covers only loop indices "
                    f"{tvars or '[]'} and is not a recognized reduction "
                    "(loop-carried dependence)")
            op, expr, acc_first, negate = m
            if tgt.grid in grids_read(expr):
                return LiftFailure(
                    f"reduction term reads its accumulator {tgt.grid!r}")
            kind = "reduce"
            # Several updates of one accumulator fold in loop order, then
            # statement order, so they must share the operator: mixed ops
            # (+ then MAX) do not fold into one sequence.
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
        assigns.append(_ArrayAssign(tgt, kind, op, expr, mask, acc_first,
                                    negate))

    written = set(write_pattern)
    for grid, ie in invariant:
        if grids_read(ie) & written:
            return LiftFailure(
                f"indirect or non-identity write index on grid {grid!r}")
    reduce_grids = {g for g, k in write_kind.items()
                    if k in ("reduce", "scatter")}
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
    for scratch, grid in keep:
        if write_kind.get(scratch) != "pointwise":
            return LiftFailure(f"scalar temporary {grid!r} is not written "
                               "on every lane")
        written.add(grid)
    return LiftedStep(assigns=tuple(assigns), written=tuple(sorted(written)),
                      step=step, keep=keep)


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
            plan = compile_step(step, program, fn)
            out[(fn.name, idx)] = (
                plan.reason if isinstance(plan, LiftFailure) else "")
    return out


# ----------------------------------------------------------------------
# array semantics of the operators
# ----------------------------------------------------------------------
def _int_like(v: Any) -> bool:
    if isinstance(v, bool):
        return False
    if isinstance(v, int):
        return True
    if isinstance(v, np.ndarray):
        return np.issubdtype(v.dtype, np.integer)
    return isinstance(v, np.generic) and np.issubdtype(type(v), np.integer)


def _int_array(r: Any) -> bool:
    """NumPy wraps integer *arrays* silently where scalars warn, so the
    arithmetic below checks array results for overflow itself."""
    return type(r) is np.ndarray and r.dtype.kind == "i"


def _overflow() -> ExecutionError:
    return ExecutionError("integer overflow")


_INT64_MIN = np.iinfo(np.int64).min


def _add(a: Any, b: Any) -> Any:
    r = a + b
    if _int_array(r) and (((a ^ r) & (b ^ r)) < 0).any():
        raise _overflow()
    return r


def _sub(a: Any, b: Any) -> Any:
    r = a - b
    if _int_array(r) and (((a ^ b) & (a ^ r)) < 0).any():
        raise _overflow()
    return r


def _mul(a: Any, b: Any) -> Any:
    r = a * b
    if _int_array(r):
        # Conservative: a product within a factor 2 of the limit refuses.
        limit = 2.0 ** (8 * r.dtype.itemsize - 2)
        if (np.abs(np.multiply(a, b, dtype=np.float64)) >= limit).any():
            raise _overflow()
    return r


def _neg(a: Any) -> Any:
    r = -a
    if _int_array(r) and (a == np.iinfo(r.dtype).min).any():
        raise _overflow()
    return r


def _div(lv: Any, rv: Any) -> Any:
    if not (_int_like(lv) and _int_like(rv)):
        return lv / rv
    return _floordiv(lv, rv)


def _floordiv(lv: Any, rv: Any) -> Any:
    """FORTRAN integer division: truncation toward zero, exact for integer
    operands (the dividend less its C remainder divides evenly)."""
    if np.any(np.asarray(rv) == 0):
        raise ExecutionError("integer division by zero")
    if _int_like(lv) and _int_like(rv):
        if np.any((np.asarray(rv) == -1) & (np.asarray(lv) == _INT64_MIN)):
            raise _overflow()             # the quotient is 2**63
        q = np.floor_divide(lv - np.fmod(lv, rv), rv)
    else:
        q = np.trunc(np.true_divide(lv, rv))
    return q.astype(np.int64) if isinstance(q, np.ndarray) else np.int64(q)


def _mod(lv: Any, rv: Any) -> Any:
    if np.any(np.asarray(rv) == 0):
        raise ExecutionError("modulo by zero")
    r = np.abs(lv) % np.abs(rv)
    return np.where(np.asarray(lv) < 0, -r, r)  # dividend's sign


# Arithmetic keeps Python operators, so Python scalars stay weakly typed
# exactly as in the scalar interpreter; ``and``/``or`` evaluate both sides
# (operands are side-effect free).
_BINOPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": _add,
    "-": _sub,
    "*": _mul,
    "/": _div,
    "//": _floordiv,
    "%": _mod,
    "**": operator.pow,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "and": np.logical_and,
    "or": np.logical_or,
}
#: Operators that can raise a floating-point condition.
_ARITH = frozenset(("+", "-", "*", "/", "//", "%", "**"))

_FOLD_UFUNC = {"+": np.add, "min": np.minimum, "max": np.maximum}


def _identity(op: str, dtype: np.dtype) -> Any:
    """The value a masked-out lane contributes: ``x op identity == x`` bit
    for bit (``-0.0`` for ``+``, since ``-0.0 + 0.0`` is ``+0.0``)."""
    if op == "+":
        return dtype.type(-0.0) if dtype.kind in "fc" else dtype.type(0)
    if dtype.kind == "f":
        return dtype.type(np.inf if op == "min" else -np.inf)
    if dtype.kind == "b":
        return dtype.type(op == "min")
    info = np.iinfo(dtype)
    return dtype.type(info.max if op == "min" else info.min)


# ----------------------------------------------------------------------
# the engine: a lifted step compiled once to closures
# ----------------------------------------------------------------------
class _Run:
    """One run of a :class:`LiftProgram`: resolved storage ``S`` (in
    ``LiftProgram.names`` order), the views ``V`` and written regions ``R``
    prepared before any write, the nest axes' index arrays ``ax``, the
    per-run mask memo ``M``, the deferred reduction terms ``T``, the
    front end's ``account`` callback and the ``undo`` log (``None`` when
    none is kept).

    A *lane-restricted* run (:func:`_restrict`) evaluates expressions on
    some lanes of the nest only: ``sel`` holds their positions along each
    nest axis, in nest order, every value is 1-D over them, and ``ax``
    may carry the per-lane values of search variables after the nest
    axes.  ``sel`` is ``None`` for the full nest."""

    __slots__ = ("S", "V", "R", "ax", "M", "T", "geom", "account", "undo",
                 "sel")

    def __init__(self, S: list, account: Callable | None = None,
                 undo: list | None = None):
        self.S = S
        self.account = account
        self.undo = undo
        self.sel = None


_Eval = Callable[[_Run], Any]


class _Lanes:
    """The geometry of a lane-restricted run: ``shape`` is ``(lanes,)``,
    ``base`` the full nest's :class:`_Geometry`."""

    __slots__ = ("base", "shape")

    def __init__(self, base: "_Geometry", n: int) -> None:
        self.base = base
        self.shape = (n,)


class _Views:
    """A restricted run's views: the full nest's views, gathered at its
    lanes on first use."""

    __slots__ = ("full", "sel", "memo")

    def __init__(self, full: list, sel: tuple) -> None:
        self.full = full
        self.sel = sel
        self.memo: dict[int, Any] = {}

    def __getitem__(self, m: int) -> Any:
        v = self.memo.get(m)
        if v is None:
            view = self.full[m]
            v = self.memo[m] = view[tuple(
                s if n != 1 else 0 for s, n in zip(self.sel, view.shape))]
        return v


def _restrict(r: _Run, m: Any) -> tuple[_Run, Any]:
    """The lanes of ``r`` where ``m`` holds, as a run of their own, and
    their positions among ``r``'s lanes (per nest axis for a full run)."""
    if r.sel is not None:
        where = np.flatnonzero(np.broadcast_to(m, r.geom.shape))
        return _take(r, where), where
    base = r.geom
    where = np.nonzero(np.broadcast_to(m, base.shape))
    sub = _Run(r.S, r.account, r.undo)
    sub.sel = where
    sub.ax = tuple(start + w * stride
                   for (start, stride, _), w in zip(base.ranges, where))
    sub.V = _Views(r.V, where)
    sub.geom = _Lanes(base, len(where[0]))
    sub.M = [None] * len(r.M)
    return sub, where


def _take(r: _Run, where: np.ndarray) -> _Run:
    """The restricted run over the lanes ``where`` of restricted run
    ``r``."""
    sub = _Run(r.S, r.account, r.undo)
    sub.sel = tuple(a[where] for a in r.sel)
    sub.ax = tuple(a[where] for a in r.ax)
    sub.V = _Views(r.V.full, sub.sel)
    sub.geom = _Lanes(r.geom.base, len(where))
    sub.M = [None] * len(r.M)
    return sub


def _lanes(r: _Run) -> int:
    return _prod(r.geom.shape)


def _charge(r: _Run, note: Note, n: int) -> None:
    """Hand ``n`` of a note's events to the run's accounting callback."""
    if n and r.account is not None:
        r.account(note, n)


def _on_lanes(value: _Eval, mask: _Eval | None, r: _Run) -> tuple:
    """``(value, mask)`` of a masked update, the value evaluated on the
    active lanes only and spread over the nest (masked-out lanes hold
    zeros); ``mask`` is ``None`` when every lane is active."""
    if mask is None:
        return value(r), None
    m = mask(r)
    if type(m) is not np.ndarray:
        return (value(r), None) if m else (0, False)
    if m.all():
        return value(r), None
    if not m.any():
        return 0, False
    sub, where = _restrict(r, m)
    v = value(sub)
    if type(v) is np.ndarray and v.ndim:
        full = np.zeros(r.geom.shape, v.dtype)
        full[where] = v
        v = full
    return v, m


def _logic(is_and: bool, left: _Eval, right: _Eval) -> _Eval:
    """``.AND.``/``.OR.``: the right operand is evaluated only on the
    lanes the left one does not decide, as the scalar loop does."""
    combine = np.logical_and if is_and else np.logical_or

    def logic(r: _Run) -> Any:
        lv = left(r)
        if type(lv) is not np.ndarray or not lv.ndim:
            if bool(lv) is not is_and:
                return np.bool_(not is_and)
            return combine(is_and, right(r))
        lv = lv.astype(bool, copy=False)
        need = lv if is_and else ~lv
        if need.all():
            return combine(lv, right(r))
        if not need.any():
            return lv
        sub, where = _restrict(r, need)
        out = np.array(np.broadcast_to(lv, r.geom.shape))
        out[where] = right(sub)
        return out
    return logic


def _prod(shape: tuple) -> int:
    n = 1
    for k in shape:
        n *= k
    return n


def _trips(start: int, end: int, stride: int) -> int:
    return max(0, (end - start) // stride + 1) if stride else 0


class _Geometry:
    """The iteration space of one run: per nest axis the 1-based range
    ``(start, stride, count)``, its 0-based slice, its lowest and highest
    index, and (when the step needs them) its index values, shaped to
    broadcast along that axis."""

    __slots__ = ("ranges", "shape", "slices", "lo", "hi", "axes", "axes0")

    def __init__(self, ranges: tuple, need_axes: bool) -> None:
        n = len(ranges)
        self.ranges = ranges
        self.shape = tuple(count for _, _, count in ranges)
        slices, lo, hi, axes, axes0 = [], [], [], [], []
        for k, (start, stride, count) in enumerate(ranges):
            last = start + (count - 1) * stride
            stop = start - 1 + count * stride
            slices.append(slice(start - 1, stop if stop >= 0 else None,
                                stride))
            lo.append(min(start, last))
            hi.append(max(start, last))
            if need_axes:
                axes.append(np.arange(
                    start, start + count * stride, stride,
                    dtype=np.int64).reshape(
                        (1,) * k + (count,) + (1,) * (n - 1 - k)))
                axes0.append(axes[-1] - 1)
        self.slices, self.lo, self.hi = slices, lo, hi
        self.axes, self.axes0 = tuple(axes), tuple(axes0)


def _cast(value: Any, dtype: np.dtype, strict: bool) -> Any:
    """``value`` in the storage dtype; ``strict`` raises on a cast that
    overflows or is invalid instead of warning."""
    if getattr(value, "dtype", None) == dtype:
        return value
    if not strict:
        return np.asarray(value).astype(dtype)
    with np.errstate(all="raise"):
        return np.asarray(value).astype(dtype)


def _cast_to(dtype: np.dtype) -> Callable[[Any], Any]:
    """A value converted as a scalar binding of that dtype converts it."""
    def cast(v: Any) -> Any:
        if type(v) is np.ndarray:
            return v if v.dtype == dtype else v.astype(dtype)
        return dtype.type(v)
    return cast


def _bound_array(v: Any, n: int) -> np.ndarray:
    """Per-lane loop bounds, as ``int()`` takes them on the scalar path."""
    return np.broadcast_to(np.asarray(v).astype(np.int64), (n,))


def _out_of_bounds(k: int, d: int, grid: str, n: int) -> ExecutionError:
    return ExecutionError(f"index {k} out of bounds for dimension {d + 1} "
                          f"of grid {grid!r} (extent {n})")


def _select(store: np.ndarray, subs: tuple, run: _Run, grid: str) -> tuple:
    """The basic-indexing selection of ``subs`` (a nest axis or an
    invariant subscript per dimension), checked against ``store``."""
    if store.ndim != len(subs):
        raise ExecutionError(f"rank mismatch accessing grid {grid!r}")
    geom = run.geom
    sel = []
    for d, k in enumerate(subs):
        n = store.shape[d]
        if type(k) is int:
            if geom.lo[k] < 1 or geom.hi[k] > n:
                raise _out_of_bounds(
                    geom.lo[k] if geom.lo[k] < 1 else geom.hi[k], d, grid, n)
            sel.append(geom.slices[k])
        else:
            v = k(run)
            if not 1 <= v <= n:
                raise _out_of_bounds(v, d, grid, n)
            sel.append(v - 1)
    return tuple(sel)


def _preparer(j: int, subs: tuple, grid: str, fixed: _Geometry | None,
              perm: tuple | None = None, expand: tuple | None = None
              ) -> Callable[[list, _Run], np.ndarray]:
    """The closure that builds one strided view (``perm``/``expand`` put
    its axes in nest layout) or, without them, one written region (a view
    even when every subscript is invariant).  Over constant ranges the
    selection is built once and only the extents are checked per run."""
    tail = (Ellipsis,)
    rank = len(subs)

    def post(view: np.ndarray) -> np.ndarray:
        if perm is not None:
            view = view.transpose(perm)
        if expand is not None:
            view = view[expand]
        return view

    if fixed is not None and all(type(k) is int or hasattr(k, "const")
                                 for k in subs):
        sel = tuple(fixed.slices[k] if type(k) is int else k.const - 1
                    for k in subs) + tail
        need = tuple((fixed.hi[k] if fixed.lo[k] >= 1 else 1 << 62)
                     if type(k) is int
                     else (k.const if k.const >= 1 else 1 << 62)
                     for k in subs)

        def prep_fixed(S: list, r: _Run) -> np.ndarray:
            store = S[j]
            if store.ndim != rank or not all(map(operator.ge, store.shape,
                                                 need)):
                _select(store, subs, r, grid)      # raises the error
            return post(store[sel])
        return prep_fixed

    def prep(S: list, r: _Run) -> np.ndarray:
        store = S[j]
        return post(store[_select(store, subs, r, grid) + tail])
    return prep


def _check_int_sum(x: np.ndarray) -> None:
    """An integer fold wraps silently where the scalar loop warns; refuse
    any fold whose magnitudes could reach the limit (conservatively)."""
    limit = 2.0 ** (8 * x.dtype.itemsize - 2)
    if (np.abs(x.astype(np.float64)).sum(axis=-1) >= limit).any():
        raise _overflow()


class LiftProgram:
    """A lifted nest compiled once into closures: the program interface
    every lifted step has (:class:`SweepProgram` serves it too).

    ``names`` lists every grid the step names; a caller resolves them to
    storage ``S``, in that order, on each run.  ``bounds(S)`` evaluates
    the ranges to ``(start, stride, count)`` per nest axis (constant
    ranges once, at compile time).  ``run(S, ranges, account=None,
    undo=True)`` executes the nest over ranges whose counts are all
    positive: it checks every slice and builds every view before the
    first write and, with ``undo``, copies each region before its first
    write that a later operation could still fail after, and restores
    those copies before it re-raises: a failed run leaves storage as it
    found it.  (A sweep's nests run without, under
    :meth:`SweepProgram.run`'s one copy.)  ``account(note, n)``, the
    front end's callback, counts what an inlined function does on the
    scalar path (an :class:`~repro.glafexec.inline.Note` of ``n`` calls
    or iterations).

    ``written`` names the written grids; ``dims`` maps each grid to its
    subscript count (0 for scalars and whole-grid references, -1 when the
    step uses two); ``arith`` says whether any operation can raise a
    floating-point condition; ``fixed`` is the ranges when they are all
    constant (``bounds`` then returns this very tuple), else ``None``.
    """

    __slots__ = ("names", "written", "dims", "arith", "fixed", "bounds",
                 "run")


def compile_lifted(lifted: LiftedStep, *, strict: bool = False
                   ) -> LiftProgram:
    """Compile a lifted nest once.

    ``strict`` casts each written value to its storage dtype under
    ``np.errstate(all="raise")``, so a cast that overflows or is invalid
    raises instead of warning, as the FORTRAN runtime's assignment does.
    The program screens no write against the numeric sentinels: no front
    end runs it while they are on.
    """
    return _Compiler(lifted, strict).compile()


class _Compiler:
    """Compiles one :class:`LiftedStep` into a :class:`LiftProgram`."""

    def __init__(self, lifted: LiftedStep, strict: bool) -> None:
        self.lifted = lifted
        self.strict = strict
        self.axis = {r.var: k for k, r in enumerate(lifted.step.ranges)}
        self.bound: dict[str, int] = {}       # search variable -> ax slot
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.dims: dict[str, int] = {}
        self.views: list[tuple] = []          # view accesses, prepare order
        self.view_of: dict[GridRef, int] = {}
        self.masks: dict[Expr, _Eval] = {}
        self.need_axes = False
        self.arith = False

    def _name(self, grid: str, rank: int) -> int:
        j = self.index.get(grid)
        if j is None:
            j = self.index[grid] = len(self.names)
            self.names.append(grid)
            self.dims[grid] = rank
        elif self.dims[grid] != rank:
            self.dims[grid] = -1
        return j

    # -- expressions -------------------------------------------------------
    def expr(self, e: Expr) -> _Eval:
        if isinstance(e, Const):
            value = e.value
            return lambda r: value
        if isinstance(e, IndexVar):
            k = self.axis.get(e.name)
            if k is None:
                k = self.bound[e.name]
            self.need_axes = True
            return lambda r: r.ax[k]
        if isinstance(e, GridRef):
            if not e.indices:
                j = self._name(e.grid, 0)

                def scalar(r: _Run) -> Any:
                    s = r.S[j]
                    return s[()] if s.ndim == 0 else s
                return scalar
            return self._element(e)
        if isinstance(e, BinOp):
            fn = _BINOPS.get(e.op)
            if fn is None:
                return _raiser(f"unknown operator {e.op!r}")
            self.arith |= e.op in _ARITH
            left, right = self.expr(e.left), self.expr(e.right)
            if e.op in ("and", "or"):
                return _logic(e.op == "and", left, right)
            if isinstance(e.right, Const):
                value = e.right.value
                return lambda r: fn(left(r), value)
            return lambda r: fn(left(r), right(r))
        if isinstance(e, UnOp):
            operand = self.expr(e.operand)
            if e.op == "not":
                return lambda r: np.logical_not(operand(r))
            return lambda r: _neg(operand(r))
        if isinstance(e, LibCall):
            try:
                lf = get_libfunc(e.name)
                lf.check_arity(len(e.args))
            except CodegenError as err:
                return _raiser(str(err), CodegenError)
            self.arith = True
            impl = lf.impl
            args = tuple(self._arg(a) for a in e.args)
            if len(args) == 1:
                a0, = args
                return lambda r: impl(a0(r))
            if len(args) == 2:
                a0, a1 = args
                return lambda r: impl(a0(r), a1(r))
            return lambda r: impl(*[a(r) for a in args])
        if isinstance(e, Cast):
            cast, get = _cast_to(np.dtype(e.dtype)), self.expr(e.operand)
            return lambda r: cast(get(r))
        if isinstance(e, Inlined):
            return self._inlined(e)
        if isinstance(e, Search):
            return self._search(e)
        return _raiser(f"cannot vectorize expression {type(e).__name__}")

    def _inlined(self, e: Inlined) -> _Eval:
        """An expression function: one call per lane, its value in the
        return dtype."""
        cast, body = _cast_to(np.dtype(e.dtype)), self.expr(e.body)
        call = Note("call", e.name, ())

        def inlined(r: _Run) -> Any:
            v = cast(body(r))
            _charge(r, call, _lanes(r))
            return v
        return inlined

    def _search(self, e: Search) -> _Eval:
        """A first-match search, in waves: wave ``j`` evaluates the
        condition at the ``j``-th position of every lane still searching,
        so no lane evaluates a position past its match, as on the scalar
        path."""
        start, end = self.expr(e.start), self.expr(e.end)
        default = self.expr(e.default)
        # The search variable sits after the nest axes and the variables
        # of the searches this one is nested in.
        slot = len(self.axis) + len(self.bound)
        self.bound[e.var] = slot
        cond, value = self.expr(e.cond), self.expr(e.value)
        del self.bound[e.var]
        dtype, stride = np.dtype(e.dtype), e.stride
        call, loop = Note("call", e.name, ()), Note("iter",
                                                    (e.name, e.step), ())

        def search(r: _Run) -> Any:
            sub = r if r.sel is not None else _restrict(r, True)[0]
            n = _lanes(sub)
            s = _bound_array(start(sub), n)
            last = _bound_array(end(sub), n)
            trips = np.maximum((last - s) // stride + 1, 0)
            out = np.empty(n, dtype)
            iters = trips.copy()
            found = np.zeros(n, dtype=bool)
            idx = np.flatnonzero(trips)
            j = 0
            while idx.size:
                wave = _take(sub, idx)
                wave.ax = wave.ax[:slot] + (s[idx] + j * stride,)
                hit = np.broadcast_to(np.asarray(cond(wave), dtype=bool),
                                      idx.shape)
                if hit.any():
                    lanes = idx[hit]
                    out[lanes] = value(_take(wave, np.flatnonzero(hit)))
                    iters[lanes] = j + 1
                    found[lanes] = True
                    idx = idx[~hit]
                j += 1
                idx = idx[trips[idx] > j]
            if not found.all():
                miss = np.flatnonzero(~found)
                out[miss] = default(_take(sub, miss))
            _charge(r, call, n)
            _charge(r, loop, int(iters.sum()))
            return out if r.sel is not None else out.reshape(r.geom.shape)
        return search

    def _arg(self, e: Expr) -> _Eval:
        """Library-call arguments: whole-grid references pass storage."""
        if isinstance(e, GridRef) and not e.indices:
            j = self._name(e.grid, 0)
            return lambda r: r.S[j]
        return self.expr(e)

    def _invariant(self, ie: Expr) -> Callable[[_Run], int]:
        """A loop-invariant subscript as a 1-based ``int``; a constant one
        carries its value as ``const``."""
        if isinstance(ie, Const) and isinstance(ie.value, (int, np.integer)):
            k = int(ie.value)

            def const(r: _Run) -> int:
                return k
            const.const = k
            return const
        get = self.expr(ie)
        return lambda r: int(get(r))

    def _subscripts(self, e: GridRef) -> list | None:
        """Per dimension, the nest axis of a plain loop variable or a
        loop-invariant subscript; ``None`` when the access must gather."""
        subs: list = []
        for ie in e.indices:
            if isinstance(ie, IndexVar) and ie.name in self.axis:
                k = self.axis[ie.name]
                if k in subs:
                    return None
                subs.append(k)
            elif not index_vars_used(ie):
                subs.append(self._invariant(ie))
            else:
                return None
        return subs

    def _element(self, e: GridRef) -> _Eval:
        grid = e.grid
        if not any(index_vars_used(ie) for ie in e.indices):
            # One element: read directly (loop bounds use this too).
            j = self._name(grid, len(e.indices))
            subs = tuple(self._invariant(ie) for ie in e.indices)

            def element(r: _Run) -> Any:
                store = r.S[j]
                if store.ndim != len(subs):
                    raise ExecutionError(
                        f"rank mismatch accessing grid {grid!r}")
                idx = []
                for d, sub in enumerate(subs):
                    k, n = sub(r), store.shape[d]
                    if not 1 <= k <= n:
                        raise _out_of_bounds(k, d, grid, n)
                    idx.append(k - 1)
                return store[tuple(idx)]
            return element
        subs = self._subscripts(e)
        if subs is not None:
            m = self._view(e, subs)
            return lambda r: r.V[m]
        # Gather: every subscript becomes a 0-based index array in nest
        # layout; a plain loop variable is checked from its range.
        self.need_axes = self.arith = True
        j = self._name(grid, len(e.indices))
        subs = tuple(self.axis[ie.name]
                     if isinstance(ie, IndexVar) and ie.name in self.axis
                     else self.expr(ie) for ie in e.indices)

        def gather(r: _Run) -> Any:
            store = r.S[j]
            if store.ndim != len(subs):
                raise ExecutionError(f"rank mismatch accessing grid {grid!r}")
            geom, idx = r.geom, []
            for d, sub in enumerate(subs):
                n = store.shape[d]
                if type(sub) is int and r.sel is None:
                    lo, hi = geom.lo[sub], geom.hi[sub]
                    ia = geom.axes0[sub]
                elif type(sub) is int:
                    ia = r.ax[sub] - 1
                    lo, hi = ia.min() + 1, ia.max() + 1
                else:
                    ia = np.asarray(sub(r)).astype(np.int64, copy=False)
                    lo, hi = ia.min(), ia.max()
                    ia = ia - 1
                if lo < 1 or hi > n:
                    raise _out_of_bounds(int(lo if lo < 1 else hi), d,
                                         grid, n)
                idx.append(ia)
            return store[tuple(idx)]
        return gather

    def _view(self, e: GridRef, subs: list) -> int:
        """Register a strided view, prepared before any write; its value
        has one axis per nest axis (size 1 where the grid has none)."""
        m = self.view_of.get(e)
        if m is not None:
            return m
        n = len(self.axis)
        j = self._name(e.grid, len(subs))
        vaxes = [k for k in subs if type(k) is int]
        order = sorted(vaxes)
        perm = (None if vaxes == order
                else tuple(vaxes.index(k) for k in order))
        expand = (None if len(vaxes) == n else
                  tuple(slice(None) if k in vaxes else None
                        for k in range(n)))
        self.views.append((j, tuple(subs), perm, expand, e.grid))
        m = self.view_of[e] = len(self.views) - 1
        return m

    def _mask(self, e: Expr | None) -> _Eval | None:
        """A mask evaluated at most once per run, however many assigns
        share it."""
        if e is None:
            return None
        fn = self.masks.get(e)
        if fn is None:
            if isinstance(e, BinOp) and e.op == "and":
                # A shared guard (the step condition, an outer IF) is
                # evaluated once, however many conjunctions hold it.
                get = _logic(True, self._mask(e.left), self._mask(e.right))
            elif isinstance(e, UnOp) and e.op == "not":
                inner = self._mask(e.operand)     # an ELSE branch's IF
                get = lambda r: np.logical_not(inner(r))   # noqa: E731
            else:
                get = self.expr(e)
            m = len(self.masks)

            def fn(r: _Run) -> Any:
                v = r.M[m]
                if v is None:
                    v = r.M[m] = get(r)
                return v
            self.masks[e] = fn
        return fn

    def _bound(self, b: Expr) -> int | _Eval:
        if isinstance(b, Const):
            return int(b.value)
        get = self.expr(b)
        return lambda r: int(get(r))

    # -- the program -------------------------------------------------------
    def compile(self) -> LiftProgram:
        lifted, step = self.lifted, self.lifted.step
        nd = len(step.ranges)
        prog = LiftProgram()
        prog.bounds, prog.fixed = self.bounds()
        regions: dict[str, int] = {}
        targets = []
        scattered: dict[str, int] = {}
        for a in lifted.assigns:
            g = a.target.grid
            if a.kind == "scatter":
                scattered.setdefault(g, self._name(g, len(a.target.indices)))
            elif g not in regions:
                subs = tuple(self._subscripts(a.target))
                regions[g] = len(targets)
                targets.append((self._name(g, len(subs)), subs, g))
        # One operation per statement; every update of an accumulator
        # folds at its last update, earlier ones leave their term behind.
        last = {a.target.grid: i for i, a in enumerate(lifted.assigns)}
        plan: list[tuple] = []
        groups: dict[str, list] = {}
        nterms = 0
        for i, a in enumerate(lifted.assigns):
            g = a.target.grid
            mexpr = a.mask
            if step.condition is not None:
                mexpr = (step.condition if mexpr is None
                         else BinOp("and", step.condition, mexpr))
            value, mask = self.expr(a.expr), self._mask(mexpr)
            if a.kind == "scatter":
                value = self._scatter_part(a, value, mask)
                mask = None
            if a.kind == "pointwise":
                plan.append(("write", a, value, mask))
                continue
            group = groups.setdefault(g, [])
            if last[g] != i:
                group.append((value, mask, nterms, a))
                plan.append(("defer", a, value, mask, nterms))
                nterms += 1
                continue
            group.append((value, mask, None, a))
            plan.append(("fold", a, group))
        # A region is copied for undo before its first write, unless that
        # write is the program's last operation (nothing can fail after).
        ops, seen = [], set()
        for pos, item in enumerate(plan):
            kind, a = item[0], item[1]
            g = a.target.grid
            snap = False
            if kind != "defer" and g not in seen:
                seen.add(g)
                snap = pos != len(plan) - 1 or bool(lifted.keep)
            if kind == "write":
                ops.append(self._pointwise(a, regions[g], snap, item[2],
                                           item[3]))
            elif kind == "defer" and a.kind == "scatter":
                ops.append(_defer_part(item[4], item[2]))
            elif kind == "defer":
                ops.append(_defer(item[4], item[2], item[3]))
            elif a.kind == "scatter":
                ops.append(_scatter(a.target.grid, scattered[g], snap,
                                    item[2]))
            else:
                ops.append(self._fold(a, regions[g], snap, item[2], nd))
        cond = self._mask(step.condition) if lifted.keep else None
        for scratch, grid in lifted.keep:
            ops.append(_keep(regions[scratch], self._name(grid, 0), grid,
                             cond))
        prog.names = tuple(self.names)
        prog.written = tuple(regions) + tuple(scattered) + tuple(
            grid for _, grid in lifted.keep)
        prog.dims = dict(self.dims)
        prog.arith = self.arith
        prog.run = self._runner(tuple(targets), tuple(ops), prog.fixed,
                                nterms)
        return prog

    def bounds(self) -> tuple:
        """``(bounds, fixed)`` of the step's ranges, compiled first, so
        ``bounds(S)`` reads only the first names."""
        bound_fns = [tuple(self._bound(b) for b in (rg.start, rg.end,
                                                    rg.step))
                     for rg in self.lifted.step.ranges]
        if all(type(v) is int for rg in bound_fns for v in rg):
            fixed = tuple((s, by, _trips(s, e, by)) for s, e, by in bound_fns)
            return (lambda S: fixed), fixed

        def bounds(S: list) -> tuple:
            r = _Run(S)
            out = []
            for rg in bound_fns:
                s, e, by = (v if type(v) is int else v(r) for v in rg)
                out.append((s, by, _trips(s, e, by)))
            return tuple(out)
        return bounds, None

    def _runner(self, targets: tuple, ops: tuple, fixed: tuple | None,
                nterms: int) -> Callable:
        need_axes = self.need_axes
        nmasks = len(self.masks)
        fixed_geom = None
        if fixed is not None and all(c > 0 for _, _, c in fixed):
            fixed_geom = _Geometry(fixed, need_axes)
        views = tuple(_preparer(j, subs, grid, fixed_geom, perm, expand)
                      for j, subs, perm, expand, grid in self.views)
        regions = tuple(_preparer(j, subs, grid, fixed_geom)
                        for j, subs, grid in targets)

        def run(S: list, ranges: tuple, account: Callable | None = None,
                undo: bool = True) -> None:
            r = _Run(S, account, [] if undo else None)
            geom = fixed_geom if ranges is fixed else None
            if geom is None:
                geom = _Geometry(ranges, need_axes)
            r.geom, r.ax = geom, geom.axes
            r.V = [prep(S, r) for prep in views]
            r.R = [prep(S, r) for prep in regions]
            r.M = [None] * nmasks
            r.T = [None] * nterms
            try:
                for op in ops:
                    op(r)
            except BaseException:
                if undo:
                    for region, saved in reversed(r.undo):
                        region[...] = saved
                raise
        return run

    # -- writes ------------------------------------------------------------
    def _pointwise(self, a: _ArrayAssign, t: int, snap: bool, value: _Eval,
                   mask: _Eval | None) -> Callable[[_Run], None]:
        out_axes = [self.axis[ie.name] for ie in a.target.indices
                    if isinstance(ie, IndexVar) and ie.name in self.axis]
        perm = None if out_axes == sorted(out_axes) else tuple(out_axes)
        strict = self.strict

        def write(r: _Run) -> None:
            m = None
            if mask is not None:
                m = mask(r)
                if type(m) is not np.ndarray:
                    if not m:
                        return                  # uniformly false guard
                    m = None                    # uniformly true guard
                elif m.all():
                    m = None
                elif not m.any():
                    return
            region = r.R[t]
            if m is None:
                v = value(r)
                if perm is not None and type(v) is np.ndarray and v.ndim:
                    v = v.transpose(perm)
                if strict:
                    v = _cast(v, region.dtype, strict)
                if snap and r.undo is not None:
                    r.undo.append((region, region.copy()))
                region[...] = v
                return
            # The value on the active lanes only, written lane by lane.
            sub, where = _restrict(r, m)
            v = value(sub)
            if strict:
                v = _cast(v, region.dtype, strict)
            if snap and r.undo is not None:
                r.undo.append((region, region.copy()))
            region[tuple(where[k] for k in out_axes)] = v
        return write

    def _scatter_part(self, a: _ArrayAssign, value: _Eval,
                      mask: _Eval | None) -> _Eval:
        """One update of an indirect accumulator on its active lanes:
        their positions in the nest, the terms and the 1-based target
        subscripts, each flat in loop order (``None``: no active lane)."""
        self.need_axes = True
        subs = tuple(self.axis[ie.name]
                     if isinstance(ie, IndexVar) and ie.name in self.axis
                     else self.expr(ie) for ie in a.target.indices)
        negate = a.negate

        def part(r: _Run) -> tuple | None:
            run, where = r, None
            if mask is not None:
                m = mask(r)
                if type(m) is not np.ndarray:
                    if not m:
                        return None
                elif not m.all():
                    if not m.any():
                        return None
                    run, where = _restrict(r, m)
            shape = run.geom.shape
            t = value(run)
            if negate:
                t = _neg(t)
            idx = [np.broadcast_to(np.asarray(
                run.ax[k] if type(k) is int else k(run)).astype(
                    np.int64, copy=False), shape).ravel() for k in subs]
            if type(t) is np.ndarray:
                t = np.broadcast_to(t, shape).ravel()
            pos = (np.arange(_prod(shape)) if where is None
                   else np.ravel_multi_index(where, r.geom.shape))
            return pos, t, idx
        return part

    def _fold(self, a: _ArrayAssign, t: int, snap: bool, group: list,
              nd: int) -> Callable[[_Run], None]:
        """Fold every update of one accumulator into its region, in loop
        order and, within an iteration, in statement order."""
        self.arith = True
        kept = [self.axis[ie.name] for ie in a.target.indices
                if isinstance(ie, IndexVar) and ie.name in self.axis]
        red = [k for k in range(nd) if k not in kept]
        perm = tuple(kept + red)
        op, ufunc = a.op, _FOLD_UFUNC[a.op]
        # One accumulate serves when every update is acc <op> term: + is
        # commutative bit for bit, MIN/MAX are not on signed zeros.
        ordered = op == "+" or all(u[3].acc_first for u in group)
        steps = tuple(np.subtract if u[3].negate
                      else ufunc if u[3].acc_first or op == "+"
                      else _swapped(ufunc) for u in group)
        negate = tuple(u[3].negate for u in group)
        strict = self.strict
        updates = tuple((value, mask, u) for value, mask, u, _ in group)
        check_int = op == "+"

        def fold(r: _Run) -> None:
            terms, masks = [], []
            for value, mask, u in updates:
                if u is None:
                    v, m = _on_lanes(value, mask, r)
                    terms.append(v)
                    masks.append(m)
                else:
                    v, m = r.T[u]
                    terms.append(v)
                    masks.append(m)
            region, shape = r.R[t], r.geom.shape
            dtype = np.result_type(region.dtype, *terms)
            if dtype == region.dtype and ordered:
                # x[..., 0] is the accumulator; x[..., 1:] runs over the
                # reduction positions in nest order, then the updates.
                kshape = region.shape
                rshape = tuple(shape[k] for k in red)
                x = np.empty(kshape + (1 + _prod(rshape) * len(terms),),
                             dtype)
                x[..., 0] = region
                y = x[..., 1:].reshape(kshape + rshape + (len(terms),))
                for u, (term, m, neg) in enumerate(zip(terms, masks,
                                                       negate)):
                    yu = y[..., u]
                    yu[...] = (term.transpose(perm)
                               if type(term) is np.ndarray and term.ndim
                               else term)
                    if neg:
                        # a - t is a + (-t) once t has the sum's type.
                        np.negative(yu, out=yu)
                    if m is not None:
                        if type(m) is np.ndarray and m.ndim:
                            m = m.transpose(perm)
                        np.copyto(yu, _identity(op, dtype),
                                  where=np.logical_not(m))
                if check_int and dtype.kind == "i":
                    _check_int_sum(x)
                final = ufunc.accumulate(x, axis=-1)[..., -1]
            else:
                final = _fold_stepwise(region, terms, masks, steps, shape,
                                       perm, strict)
            final = _cast(final, region.dtype, strict)
            if snap and r.undo is not None:
                r.undo.append((region, region.copy()))
            region[...] = final
        return fold


def _defer(u: int, value: _Eval, mask: _Eval | None) -> Callable[[_Run], None]:
    """An update of an accumulator that folds later: keep its term (a
    copy, if it is a view a later statement may overwrite) and mask."""
    def defer(r: _Run) -> None:
        v, m = _on_lanes(value, mask, r)
        if type(v) is np.ndarray and v.base is not None:
            v = v.copy()
        r.T[u] = (v, m)
    return defer


def _defer_part(u: int, part: _Eval) -> Callable[[_Run], None]:
    """An update of an indirect accumulator that folds later."""
    def defer(r: _Run) -> None:
        p = part(r)
        if p is not None and type(p[1]) is np.ndarray:
            p = (p[0], p[1].copy(), p[2])
        r.T[u] = p
    return defer


def _scatter(grid: str, j: int, snap: bool, group: list
             ) -> Callable[[_Run], None]:
    """Fold every update of an indirect accumulator with ``np.add.at``:
    in loop order and, within an iteration, in statement order, which is
    the order ``np.add.at`` applies duplicate indices in."""
    updates = tuple((part, u) for part, _, u, _ in group)

    def scatter(r: _Run) -> None:
        store = r.S[j]
        parts = []
        for k, (part, u) in enumerate(updates):
            p = part(r) if u is None else r.T[u]
            if p is not None:
                parts.append((k,) + p)
        if not parts:
            return
        if store.ndim != len(parts[0][3]):
            raise ExecutionError(f"rank mismatch accessing grid {grid!r}")
        terms = []
        for _, pos, t, _ in parts:
            if type(t) is not np.ndarray:
                # A uniform term keeps the scalar path's weak promotion.
                if np.result_type(store.dtype, t) != store.dtype:
                    raise ExecutionError(
                        f"indirect accumulator {grid!r} would change dtype")
                t = np.full(pos.shape, t, store.dtype)
            elif np.result_type(store.dtype, t.dtype) != store.dtype:
                raise ExecutionError(
                    f"indirect accumulator {grid!r} would change dtype")
            terms.append(t)
        if len(parts) == 1:
            t, idx = terms[0], parts[0][3]
        else:
            order = np.lexsort((
                np.concatenate([np.full(p[1].shape, p[0]) for p in parts]),
                np.concatenate([p[1] for p in parts])))
            t = np.concatenate(terms)[order]
            idx = [np.concatenate(d)[order]
                   for d in zip(*(p[3] for p in parts))]
        for d, ia in enumerate(idx):
            n = store.shape[d]
            lo, hi = ia.min(), ia.max()
            if lo < 1 or hi > n:
                raise _out_of_bounds(int(lo if lo < 1 else hi), d, grid, n)
        if store.dtype.kind == "i":
            limit = 2.0 ** (8 * store.dtype.itemsize - 2)
            if (np.abs(store).max(initial=0) + np.abs(
                    t.astype(np.float64)).sum()) >= limit:
                raise _overflow()
        if snap and r.undo is not None:
            r.undo.append((store, store.copy()))
        np.add.at(store, tuple(ia - 1 for ia in idx), t)
    return scatter


def _keep(t: int, j: int, grid: str, cond: _Eval | None
          ) -> Callable[[_Run], None]:
    """Keep a scalar temporary's value from the last lane that wrote it
    (where the step condition held) in the grid it stands for."""
    def keep(r: _Run) -> None:
        region, shape = r.R[t], r.geom.shape
        last = tuple(n - 1 for n in shape)
        if cond is not None:
            m = cond(r)
            if type(m) is np.ndarray:
                flat = np.flatnonzero(np.broadcast_to(m, shape))
                if not flat.size:
                    return
                last = np.unravel_index(flat[-1], shape)
            elif not m:
                return
        store = r.S[j]
        if store.ndim:
            raise ExecutionError(f"rank mismatch accessing grid {grid!r}")
        if r.undo is not None:
            r.undo.append((store, store.copy()))
        store[()] = region[last]
    return keep


def _swapped(ufunc) -> Callable[[Any, Any], Any]:
    return lambda cur, t: ufunc(t, cur)


def _fold_stepwise(region: np.ndarray, terms: list, masks: list,
                   steps: tuple, shape: tuple, perm: tuple,
                   strict: bool) -> Any:
    """The fold one position at a time, ``cur = step(cur, term)`` per
    update: for an accumulator whose type needs a cast on every store, or
    whose operand order (``MIN(t, acc)``) an accumulate cannot follow."""
    nred = _prod(tuple(shape[k] for k in perm[region.ndim:]))
    cols = []
    for term, m in zip(terms, masks):
        if type(term) is np.ndarray:
            term = np.broadcast_to(term, shape).transpose(perm).reshape(
                region.shape + (nred,))
        if m is not None:
            m = np.broadcast_to(np.asarray(m, dtype=bool), shape).transpose(
                perm).reshape(region.shape + (nred,))
        cols.append((term, m))
    cur = region.copy()
    for p in range(nred):
        for (term, m), step in zip(cols, steps):
            new = step(cur, term[..., p] if type(term) is np.ndarray
                       else term)
            new = _cast(new, region.dtype, strict)
            cur = new if m is None else np.where(m[..., p], new, cur)
    return cur


def _raiser(message: str, exc: type[Exception] = ExecutionError) -> _Eval:
    def fail(r: _Run) -> Any:
        raise exc(message)
    return fail


# ----------------------------------------------------------------------
# the GLAF IR front end
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FallbackEvent:
    """One step demoted from the vectorized path to the interpreter."""

    function: str
    step_index: int
    step_name: str
    reason: str


_DIRECT = object()   # sentinel plan: non-loop step, interpret without demoting


class SweepProgram:
    """A :class:`LiftedSweep` that is not one plain nest, compiled once:
    the sweep's own ranges and a :class:`LiftProgram` per nest, behind
    :class:`LiftProgram`'s interface.  ``arith`` is always true, so a
    front end runs a whole sweep, its argument casts too, under one
    ``np.errstate``.  ``descending`` is FORTRAN's DO semantics: a nest
    with a negative stride runs its lanes in loop order; the IR's loops
    raise on any non-positive stride."""

    __slots__ = ("sweep", "programs", "specs", "notes", "descending",
                 "names", "written", "dims", "arith", "fixed", "bounds")

    def __init__(self, sweep: LiftedSweep, *, descending: bool = False,
                 strict: bool = False) -> None:
        self.sweep = sweep
        self.descending = descending
        self.programs = tuple(compile_lifted(n, strict=strict)
                              for n in sweep.nests)
        self.specs = specs = {s.name: s for s in sweep.split.scratch}
        notes: dict[int, list] = {}
        for k, note in sweep.split.notes:
            notes.setdefault(k, []).append(note)
        self.notes = notes
        top = _Compiler(LiftedStep((), (), sweep.step), strict)
        self.bounds, self.fixed = top.bounds()
        dims = dict(top.dims)
        for p in self.programs:
            for name in p.names:
                if name not in specs:
                    rank = p.dims[name]
                    dims[name] = rank if dims.get(name, rank) == rank else -1
        for s in specs.values():
            if s.target is not None and s.target[0] == "grid" \
                    and not s.in_nest:
                dims[s.target[1]] = len(s.dims)
        self.dims = dims
        self.names = tuple(dims)
        self.written = sweep.written
        self.arith = True

    def run(self, S: list, ranges: tuple,
            account: Callable | None = None) -> None:
        """Run the nests in order over shared scratch, then keep what
        outlives the sweep.  ``account`` also counts the sweep's notes,
        and hands it what only the front end holds (asked with ``n`` 0):
        a SAVE'd local's storage and a symbolic size
        (:class:`~repro.glafexec.inline.Note`).  Raises
        :class:`ExecutionError` where the lift cannot go on, after
        restoring ``written`` from copies taken before the first nest;
        undoing what ``account`` did is the caller's."""
        storage = dict(zip(self.names, S))
        saved = [(store, store.copy())
                 for store in map(storage.__getitem__, self.written)]
        try:
            self._nests(storage, {rg.var: r for rg, r in zip(
                self.sweep.step.ranges, ranges)}, account)
        except BaseException:
            for store, copy in saved:
                store[...] = copy
            raise

    def _nests(self, storage: dict, var_ranges: dict,
               account: Callable | None) -> None:
        scratch: dict[str, np.ndarray] = {}
        specs, notes = self.specs, self.notes
        for k, (nest, program) in enumerate(zip(self.sweep.nests,
                                                self.programs)):
            S = [scratch.get(n) if n in specs else storage[n]
                 for n in program.names]
            ranges = program.bounds(S)
            run = True
            for rg, (start, stride, count) in zip(nest.step.ranges, ranges):
                if stride == 0 or (stride < 0 and not self.descending):
                    raise ExecutionError(
                        f"{nest.step.name}: non-positive stride")
                var_ranges[rg.var] = (start, stride, count)
                run = run and count > 0
            for note in notes.get(k, ()):
                _account(note, scratch, var_ranges, account)
            if not run:
                continue
            for j, n in enumerate(program.names):
                if n in specs and S[j] is None:
                    S[j] = scratch[n] = _scratch(specs[n], var_ranges,
                                                 storage, account)
            program.run(S, ranges, account, undo=False)
            for n in self.sweep.split.nests[k].locals:
                local = specs[specs[n].target[1]]
                if local.name not in scratch:
                    scratch[local.name] = _scratch(local, var_ranges,
                                                   storage, account)
                _keep_inner(specs[n], local.lead, scratch, var_ranges)
        for note in notes.get(len(self.programs), ()):
            _account(note, scratch, var_ranges, account)
        for spec in specs.values():
            if spec.target is not None and not spec.in_nest:
                _keep_last(spec, scratch, var_ranges, storage, account)


def _ask(account: Callable | None, kind: str, key: Any, what: str) -> Any:
    """What only the front end holds (:meth:`SweepProgram.run`)."""
    value = None if account is None else account(Note(kind, key, ()), 0)
    if value is None:
        raise ExecutionError(f"{what} unresolved")
    return value


def _slices(lead: tuple, var_ranges: dict) -> tuple:
    """The lanes of ``lead`` in a grid indexed by their values, in loop
    order."""
    out = []
    for v in lead:
        start, stride, count = var_ranges[v]
        stop = start - 1 + count * stride
        out.append(slice(start - 1, stop if stop >= 0 else None, stride))
    return tuple(out)


def _scratch(spec, var_ranges: dict, storage: dict,
             account: Callable | None) -> np.ndarray:
    """A scratch grid: one copy of its grid per lane of ``spec.lead``."""
    lead = []
    for v in spec.lead:
        if v not in var_ranges:
            raise ExecutionError(f"scratch {spec.name!r}: range of {v!r} "
                                 "unknown")
        start, stride, count = var_ranges[v]
        lead.append(max(start, start + (count - 1) * stride, 0))
    dims = tuple(d if isinstance(d, int) else int(_ask(
        account, "size", d, f"scratch {spec.name!r}: size {d!r}"))
        for d in spec.dims)
    dtype = (np.dtype(spec.dtype) if spec.dtype is not None
             else storage[spec.target[1]].dtype)
    out = np.zeros(tuple(lead) + dims, dtype)
    if spec.init is not None and spec.init.init_data is not None:
        out[...] = spec.init.init_data
    return out


def _active_lanes(lead: tuple, active: str | None, scratch: dict,
                  var_ranges: dict) -> np.ndarray | None:
    """The activity of ``lead``'s lanes (``None``: all active).  An
    activity set by an outer call has a shorter lead, a prefix of
    ``lead``: it holds for every lane of the extra ranges."""
    if active is None:
        return None
    shape = tuple(var_ranges[v][2] for v in lead)
    act = scratch.get(active)
    if act is None:
        return np.zeros(shape, bool)
    own = act[_slices(lead[:act.ndim], var_ranges)]
    return np.broadcast_to(own.reshape(own.shape + (1,) * (len(lead)
                                                           - act.ndim)),
                           shape)


def _account(note, scratch: dict, var_ranges: dict,
             account: Callable | None) -> None:
    """Hand a note's active lanes (times its own iterations) to
    ``account``."""
    if any(v not in var_ranges for v in note.lead + note.own):
        raise ExecutionError(f"inlined {note.key!r}: range unknown")
    if account is None:
        return
    act = _active_lanes(note.lead, note.active, scratch, var_ranges)
    n = (_prod(tuple(var_ranges[v][2] for v in note.lead))
         if act is None else int(np.count_nonzero(act)))
    if n and note.kind == "iter":
        n *= _prod(tuple(var_ranges[v][2] for v in note.own))
    if n:
        account(note, n)


def _keep_last(spec, scratch: dict, var_ranges: dict, storage: dict,
               account: Callable | None) -> None:
    """Keep the value of the last active lane of an expanded grid in the
    grid (or SAVE'd local) it stands for."""
    arr = scratch.get(spec.name)
    if arr is None:
        return
    shape = tuple(var_ranges[v][2] for v in spec.lead)
    act = _active_lanes(spec.lead, spec.active, scratch, var_ranges)
    if act is None:
        pos = tuple(n - 1 for n in shape)
    else:
        flat = np.flatnonzero(act)
        if not flat.size:
            return
        pos = np.unravel_index(flat[-1], shape)
    at = tuple(var_ranges[v][0] - 1 + int(p) * var_ranges[v][1]
               for v, p in zip(spec.lead, pos))
    kind, key = spec.target[0], spec.target[1:]
    store = (storage[key[0]] if kind == "grid" else
             _ask(account, kind, key, f"SAVE'd local {key!r}"))
    store[...] = arr[at]


def _keep_inner(spec, lead: tuple, scratch: dict, var_ranges: dict
                ) -> None:
    """Keep an in-nest copy's last lane of the ranges past ``lead`` in
    the expanded local it stands for, on each lane of ``lead`` where
    ``spec.active`` holds."""
    last = scratch[spec.name][_slices(spec.lead, var_ranges)][
        (Ellipsis,) + (-1,) * (len(spec.lead) - len(lead))]
    act = _active_lanes(lead, spec.active, scratch, var_ranges)
    np.copyto(scratch[spec.target[1]][_slices(lead, var_ranges)], last,
              where=True if act is None else act)


def note_inline(function: str, index: int, step: str, plan: Any) -> None:
    """Record a lifted step's inlined callees and expanded grids (once
    per compiled step)."""
    dl = get_decisions()
    if dl.enabled:
        dl.record("executor:inline", function, index, step, "inlined",
                  reasons=("callees: " + (", ".join(plan.inlined) or "none"),
                           "expanded: " + (", ".join(plan.split.expanded)
                                           or "none")))


#: Compiled plans by content digest (the policy of
#: :mod:`repro.recurring`).  A plan holds steps, grids and closures,
#: never a program, context, interpreter, runtime or frame.
_PLAN_ENTRIES = 256
_PLANS = RecurringCache(_PLAN_ENTRIES)


def _grid_text(grids: dict, names=None) -> list:
    """Grids (those ``names`` names, present or not) as :func:`repr` gives
    them in full: an array's initial data also as bytes (its repr elides
    and rounds)."""
    out = []
    for name in grids if names is None else names:
        g = grids.get(name)
        d = getattr(g, "init_data", None)
        out.append((name, g) if not isinstance(d, np.ndarray) else
                   (name, g, d.dtype.str, d.shape, d.tobytes()))
    return out


def _plan_key(text: str, step: Step, program, fn,
              save_inner_arrays: bool) -> bytes:
    """A digest of everything :func:`compile_step` reads, as text: the
    step's (``text``, with the compile options, which name the front
    end), every function the step reaches, the caller's name,
    ``save_inner_arrays``, and of the caller's and the program's global
    grids those that the step and its callees name: the compile resolves
    grids by name only.  ``repr`` writes every literal with its type and
    exact value, so content that compiles differently never shares a
    key."""
    callees: dict[str, Any] = {}
    names = step.grids_referenced()
    todo = sorted(step.called_functions()) if program is not None else []
    while todo:
        name = todo.pop()
        if name in callees:
            continue
        try:
            callees[name] = callee = program.find_function(name)
        except KeyError:
            callees[name] = None
            continue
        names |= callee.grids_referenced()
        todo.extend(sorted(callee.called_functions()))
    names = sorted(names)
    text += repr((
        None if fn is None else (fn.name, _grid_text(fn.grids, names)),
        None if program is None else _grid_text(program.global_grids, names),
        [(n, None if f is None else (f.name, f.return_type, f.params,
                                     _grid_text(f.grids), f.steps))
         for n, f in sorted(callees.items())],
        save_inner_arrays))
    return digest(text)


def compiled_plan(step: Step, program=None, fn=None, *,
                  save_inner_arrays: bool = False, descending: bool = False,
                  strict: bool = False) -> Any:
    """:func:`compile_step`'s verdict and its compiled program: a
    :class:`LiftFailure`, or ``(sweep, program)``.  The program is the
    nest's :class:`LiftProgram` when the sweep is one nest with no
    scratch and no notes, else a :class:`SweepProgram`; ``strict`` goes to
    :func:`compile_lifted`, ``descending`` to the sweep.  A step whose
    text comes back in the process is looked up by content
    (:func:`_plan_key`), however many interpreters or runtimes ask;
    content that comes back is kept.  So what compiles once in a process
    (a fuzz draw) costs one ``repr`` of its step, or of its content, and
    keeps nothing alive.  The caller records the decisions a plan
    implies, hit or miss alike."""
    text = repr((step, descending, strict))
    m, key = get_metrics(), None
    if _PLANS.came_back(hash(text)):
        key = _plan_key(text, step, program, fn, save_inner_arrays)
        plan = _PLANS.get(key)
        if plan is not None:
            if m.enabled:
                m.counter("exec.plan_cache.hits").inc()
            return plan
    if m.enabled:
        m.counter("exec.plan_cache.misses").inc()
    plan = compile_step(step, program, fn,
                        save_inner_arrays=save_inner_arrays)
    if isinstance(plan, LiftedSweep):
        split = plan.split
        if len(plan.nests) == 1 and not split.scratch and not split.notes:
            prog = compile_lifted(plan.nests[0], strict=strict)
        else:
            prog = SweepProgram(plan, descending=descending, strict=strict)
        plan = (plan, prog)
    if key is not None:
        _PLANS.offer(key, plan)
    return plan


class VectorizedInterpreter(Interpreter):
    """Interpreter subclass that executes liftable loop steps as whole-grid
    array programs and transparently interprets everything else.

    Results match the reference interpreter bit for bit: reductions fold
    in loop order rather than reassociating, and a step whose body calls
    leaf subprograms runs as split nests with the scalar path's
    :class:`ExecStats` accounting.  A hooked run (a fault plan of
    :mod:`repro.robust.faults`, or the numeric sentinels) lifts nothing
    and records no fallback: injected faults and sentinel trips hit the
    same per-iteration sites as the reference, with its function, step
    and cell.
    """

    def __init__(self, *args: Any, **kw: Any):
        super().__init__(*args, **kw)
        self.fallbacks: list[FallbackEvent] = []
        self._plans: dict[tuple[str, int], Any] = {}
        self._demoted: set[tuple[str, int]] = set()

    def call(self, name: str, args: list[Any] | tuple = ()) -> Any:
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
    def _plan(self, frame, idx: int, step: Step) -> Any:
        key = (frame.fn.name, idx)
        plan = self._plans.get(key)
        if plan is None:
            plan = (_DIRECT if not step.is_loop else compiled_plan(
                step, self.program, frame.fn,
                save_inner_arrays=self.save_inner_arrays))
            if isinstance(plan, LiftFailure):
                self._note_fallback(frame, idx, step, plan.reason)
            elif plan is not _DIRECT and (plan[0].inlined
                                          or plan[0].split.expanded):
                note_inline(frame.fn.name, idx, step.name, plan[0])
            self._plans[key] = plan
        return plan

    def _exec_step(self, frame, idx: int, step: Step) -> None:
        key = (frame.fn.name, idx)
        if _rc._active.hooked or key in self._demoted:
            # Fault sites (exec.interp.step/iter, numeric.sentinel) and
            # sentinel screens hit per iteration, exactly as the
            # reference does.
            Interpreter._exec_step(self, frame, idx, step)
            return
        plan = self._plan(frame, idx, step)
        if plan is _DIRECT or isinstance(plan, LiftFailure):
            Interpreter._exec_step(self, frame, idx, step)
            return

        lifted, program = plan
        if self._depth + lifted.depth > self.max_call_depth:
            self._demoted.add(key)
            self._note_fallback(frame, idx, step,
                                "inlined call nesting would pass "
                                "max_call_depth")
            Interpreter._exec_step(self, frame, idx, step)
            return
        frame.current_step = idx
        frame.current_step_name = step.name
        state = self._sweep_state(lifted)
        try:
            self._run_lifted(frame, idx, step, program)
        except ResourceLimitError:
            # The budget is spent for *this* run — the error stays
            # terminal — and the lifted program has restored what it
            # wrote, so a later call on this interpreter (fresh budget)
            # sees pre-step storage, not a torn grid.  Sticky-demote so
            # any re-run interprets the step instead of re-tripping the
            # lift.
            self._restore_sweep_state(state, stats=False)
            self._demoted.add(key)
            self._note_fallback(frame, idx, step,
                                "resource budget exhausted mid-lift")
            raise
        except ExecutionError as e:
            # The lifted program restored what it wrote: let the reference
            # interpreter produce the authoritative result (or the
            # canonical error).
            self._restore_sweep_state(state, stats=True)
            self._demoted.add(key)
            self._note_fallback(frame, idx, step,
                                f"runtime lift failure: {e}")
            Interpreter._exec_step(self, frame, idx, step)
            return
        m = get_metrics()
        if m.enabled:
            m.counter("exec.vectorized.steps").inc()

    def _sweep_state(self, lifted: LiftedSweep) -> tuple:
        """What a lifted step changes beyond its written grids: the stats
        and the budget and, for a sweep that inlines calls, the save
        store."""
        saves, store = {}, None
        if lifted.split.notes:
            store = dict(self._save_store)
            for s in lifted.split.scratch:
                if s.target is not None and s.target[0] == "save":
                    saved = self._save_store.get(s.target[1:])
                    if saved is not None:
                        saves[s.target[1:]] = saved.copy()
        stats = self.stats
        budget = self._budget
        return (store, saves, dict(stats.loop_iterations),
                dict(stats.calls), stats.allocations,
                None if budget is None else budget.iterations)

    def _restore_sweep_state(self, state: tuple, stats: bool) -> None:
        """Undo :meth:`_sweep_state`'s changes; ``stats`` too when the
        scalar path is about to count the step again."""
        store, saves, loops, calls, allocations, ticks = state
        if store is not None:
            self._save_store.clear()
            self._save_store.update(store)
            for k, saved in saves.items():
                store[k][...] = saved
        if stats:
            self.stats.loop_iterations = loops
            self.stats.calls = calls
            self.stats.allocations = allocations
            if ticks is not None:
                self._budget.iterations = ticks

    def _run_lifted(self, frame, idx: int, step: Step, program: Any) -> None:
        """Run one lifted step: ranges, iteration accounting, the
        program."""
        grids = frame.grids
        S = [grids[name] for name in program.names]
        ranges = program.bounds(S)
        total = 1
        for _, stride, count in ranges:
            if stride <= 0:
                raise ExecutionError(
                    f"{frame.fn.name}/{step.name}: non-positive stride")
            total *= count
        if total == 0:
            return
        self.stats.note_iter(frame.fn.name, idx, total)
        if self._budget is not None:
            self._budget.tick(total)
        program.run(S, ranges, self._account)

    def _account(self, note, n: int) -> Any:
        """The scalar path's accounting of ``n`` inlined calls or callee
        iterations; asked, a SAVE'd local's storage or a size's value
        (:meth:`SweepProgram.run`)."""
        stats, kind = self.stats, note.kind
        if kind == "iter":
            stats.note_iter(note.key[0], note.key[1], n)
            if self._budget is not None:
                self._budget.tick(n)
        elif kind == "call":
            stats.note_call(note.key, n)
            stats.allocations += note.plain * n
            for fn, local, g in note.saved:
                if (fn, local) not in self._save_store:
                    stats.allocations += 1
                    self._save_store[(fn, local)] = as_storage(
                        g, sizes=self.context.sizes)
        elif kind == "save":
            return self._save_store.get(note.key)
        else:
            return self.context.sizes.get(note.key)
        return None

    def _note_fallback(self, frame, idx: int, step: Step, reason: str) -> None:
        self.fallbacks.append(
            FallbackEvent(frame.fn.name, idx, step.name, reason))
        m = get_metrics()
        if m.enabled:
            m.counter("exec.vectorized.fallbacks").inc()
        dl = get_decisions()
        if dl.enabled:
            dl.record("executor:fallback", frame.fn.name, idx, step.name,
                      "interpreter", reasons=(reason,))
