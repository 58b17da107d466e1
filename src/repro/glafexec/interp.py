"""The GLAF IR interpreter: reference execution semantics.

Every kernel in the case studies runs through this interpreter (with NumPy
storage) and through the generated Python / generated FORTRAN paths; the
outputs must agree.

Execution model:

* A step compiles on its first execution.  Its range bounds, condition
  and body become nested Python closures, with every library function,
  operator and constant resolved once.  Each call binds one table of the
  grids it can name (its own storage over the context's globals), so a
  grid access is a single lookup.  Compiled steps are cached per
  interpreter by (function name, step index).  ``_exec_step`` stays the
  subclass hook: the vectorized interpreter runs the same compiled pieces
  (:class:`_CompiledStep`), and the access-conflict checking interpreter
  (:mod:`repro.glafexec.conflicts`) overrides ``_compile`` to compile
  closures that also record every grid access.
* Compilation never raises.  An unknown library function, a valued RETURN
  in a subroutine or an unknown node compiles to a closure that raises the
  same error only if it runs.  Every run-time check (argument count, dtype
  and rank, call depth, bounds per dimension, non-positive stride, unbound
  index, scalar-to-whole-array, budget, fault sites, sentinels) happens on
  execution, in the order the statement evaluates.
* Closures take the activation frame and reach the interpreter through
  it; they never hold the interpreter or its context, so a dropped
  interpreter is freed without the cycle collector.

Semantics follow FORTRAN:

* 1-based inclusive loop ranges (``DO i = start, end, step``);
* integer ``/`` truncates toward zero; ``MOD`` takes the dividend's sign;
  an integer zero divisor raises :class:`ExecutionError`;
* ``EXIT`` (:class:`ExitLoop`) leaves the innermost loop of the step's nest;
* arguments are passed by reference — array arguments alias caller storage,
  and scalar ``intent(out/inout)`` arguments must be 0-d arrays;
* SAVE'd locals persist across calls in the interpreter's save store, which
  is also how the FUN3D "no reallocation" option is executed.
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
)
from ..core.function import GlafFunction, GlafProgram
from ..core.grid import Grid
from ..core.libfuncs import get as get_libfunc
from ..core.step import (
    Assign,
    CallStmt,
    ExitLoop,
    IfStmt,
    Return,
    Step,
    Stmt,
)
from ..core.types import numpy_dtype
from ..errors import CodegenError, ExecutionError
from ..numeric import sentinel as _sentinel
from ..robust import Budget, ResourceLimits
from ..robust import faults as _faults
from .context import ExecutionContext, as_storage

__all__ = ["Interpreter", "ExecStats"]


class _ReturnSignal(Exception):
    def __init__(self, value: Any = None):
        self.value = value


class _ExitSignal(Exception):
    pass


@dataclass
class ExecStats:
    """Dynamic counts gathered while interpreting (used to sanity-check the
    performance model's trip-count estimates)."""

    loop_iterations: dict[tuple[str, int], int] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    allocations: int = 0

    def note_iter(self, fn: str, step_idx: int, n: int = 1) -> None:
        key = (fn, step_idx)
        self.loop_iterations[key] = self.loop_iterations.get(key, 0) + n

    def note_call(self, fn: str, n: int = 1) -> None:
        self.calls[fn] = self.calls.get(fn, 0) + n


class _Grids(dict):
    """Every grid a frame can name: its own storage over the context's."""

    __slots__ = ()

    def __missing__(self, name: str) -> np.ndarray:
        raise ExecutionError(f"no global grid {name!r}")


class _Indices(dict):
    """The loop index variables bound in a frame."""

    __slots__ = ()

    def __missing__(self, name: str) -> int:
        raise ExecutionError(f"unbound index variable {name!r}")


class _Frame:
    """One activation: the interpreter, the function and its storage."""

    __slots__ = ("interp", "fn", "storage", "grids", "indices",
                 "current_step", "current_step_name")

    def __init__(self, interp: "Interpreter", fn: GlafFunction) -> None:
        self.interp = interp
        self.fn = fn
        #: the function's own grids (parameters and locals)
        self.storage: dict[str, np.ndarray] = {}
        #: ``storage`` over the context's globals, set once storage is bound
        self.grids = _Grids()
        self.indices = _Indices()
        # Set by _exec_step so assignment-time sentinels can name the step.
        self.current_step = -1
        self.current_step_name = ""


class Interpreter:
    """Executes GLAF functions against an :class:`ExecutionContext`."""

    def __init__(
        self,
        program: GlafProgram,
        context: ExecutionContext,
        *,
        save_inner_arrays: bool = False,
        max_call_depth: int = 200,
        limits: ResourceLimits | None = None,
    ):
        self.program = program
        self.context = context
        self.save_inner_arrays = save_inner_arrays
        self.max_call_depth = max_call_depth
        self.limits = limits
        self._budget = (
            Budget(limits, what=f"interp({program.name})")
            if limits is not None else None
        )
        self.stats = ExecStats()
        self._save_store: dict[tuple[str, str], np.ndarray] = {}
        self._steps: dict[tuple[str, int], _CompiledStep] = {}
        self._depth = 0

    def reset_save_store(self) -> None:
        self._save_store.clear()

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------
    def call(self, name: str, args: list[Any] | tuple = ()) -> Any:
        """Call a GLAF function; returns its value (None for subroutines)."""
        from ..observe import get_metrics, get_tracer

        _m = get_metrics()
        if _m.enabled:
            _m.counter("exec.interp.calls").inc()
        if self._depth == 0:
            if self._budget is not None:
                self._budget.start()
            # Only the outermost call gets a span; nested calls would swamp
            # the trace and are already counted by ExecStats / the counter.
            with get_tracer().span("exec.interp", entry=name):
                return self._call(name, args)
        return self._call(name, args)

    def _call(self, name: str, args: list[Any] | tuple = ()) -> Any:
        fn = self.program.find_function(name)
        if len(args) != len(fn.params):
            raise ExecutionError(
                f"{name}: expected {len(fn.params)} argument(s), got {len(args)}"
            )
        if self._depth >= self.max_call_depth:
            raise ExecutionError(f"call depth exceeded at {name}")
        self.stats.note_call(name)

        frame = _Frame(self, fn)
        # Bind dummies by reference where possible.
        for pname, value in zip(fn.params, args):
            g = fn.grids[pname]
            frame.storage[pname] = self._bind_argument(g, value)
        # Resolve symbolic local dims from already-bound scalars.
        sizes = self._frame_sizes(frame)
        for lname, g in fn.local_grids().items():
            frame.storage[lname] = self._allocate_local(fn, g, sizes)
        frame.grids.update(self.context.globals)
        frame.grids.update(frame.storage)

        self._depth += 1
        try:
            for idx, step in enumerate(fn.steps):
                self._exec_step(frame, idx, step)
        except _ReturnSignal as r:
            return r.value
        finally:
            self._depth -= 1
        if not fn.is_subroutine:
            # Fell off the end without an explicit return: FORTRAN would
            # return the (zero-initialized) result variable.
            return numpy_dtype(fn.return_type).type(0)
        return None

    def _bind_argument(self, g: Grid, value: Any) -> np.ndarray:
        dtype = numpy_dtype(g.ty)
        if g.rank == 0:
            if isinstance(value, np.ndarray) and value.ndim == 0:
                return value  # by reference
            if g.intent in ("out", "inout"):
                raise ExecutionError(
                    f"argument {g.name!r} has intent({g.intent}); pass a 0-d array"
                )
            cell = np.zeros((), dtype=dtype)
            cell[()] = value
            return cell
        if not isinstance(value, np.ndarray):
            raise ExecutionError(f"argument {g.name!r}: expected an array")
        if value.dtype != dtype:
            raise ExecutionError(
                f"argument {g.name!r}: dtype {value.dtype} != expected {dtype}"
            )
        if value.ndim != g.rank:
            raise ExecutionError(
                f"argument {g.name!r}: rank {value.ndim} != declared {g.rank}"
            )
        return value  # by reference

    def _frame_sizes(self, frame: _Frame) -> dict[str, int]:
        sizes = dict(self.context.sizes)
        for name, store in frame.storage.items():
            if store.ndim == 0 and np.issubdtype(store.dtype, np.integer):
                sizes[name] = int(store[()])
        return sizes

    def _allocate_local(self, fn: GlafFunction, g: Grid, sizes: dict[str, int]) -> np.ndarray:
        saved = g.save or (self.save_inner_arrays and g.allocatable)
        key = (fn.name, g.name)
        if saved and key in self._save_store:
            return self._save_store[key]
        self.stats.allocations += 1
        store = as_storage(g, sizes=sizes)
        if saved:
            self._save_store[key] = store
        return store

    # ------------------------------------------------------------------
    # steps
    # ------------------------------------------------------------------
    def _exec_step(self, frame: _Frame, idx: int, step: Step) -> None:
        frame.current_step = idx
        frame.current_step_name = step.name
        if _rc._active.faults is not None:
            _faults.inject("exec.interp.step", function=frame.fn.name,
                           step=idx)
        self._compiled(frame.fn, idx, step).run(frame)

    def _compiled(self, fn: GlafFunction, idx: int, step: Step) -> "_CompiledStep":
        """The step's closures, compiled on its first execution."""
        key = (fn.name, idx)
        compiled = self._steps.get(key)
        if compiled is None:
            compiled = self._steps[key] = self._compile(fn, idx, step)
        return compiled

    def _compile(self, fn: GlafFunction, idx: int, step: Step) -> "_CompiledStep":
        """Compile one step; the checking interpreter compiles its own
        recording closures here."""
        return _StepCompiler(fn, idx, step).compile()

    def _storage(self, frame: _Frame, name: str) -> np.ndarray:
        return frame.grids[name]


# ----------------------------------------------------------------------
# run-time helpers shared by the compiled closures
# ----------------------------------------------------------------------
_Closure = Callable[[_Frame], Any]


def _is_int(v: Any) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _div(lv: Any, rv: Any) -> Any:
    if _is_int(lv) and _is_int(rv):
        return _floordiv(lv, rv)
    return lv / rv


def _floordiv(lv: Any, rv: Any) -> Any:
    """FORTRAN integer division: truncation toward zero, exact for integer
    operands of any size."""
    if rv == 0:
        raise ExecutionError("integer division by zero")
    if _is_int(lv) and _is_int(rv):
        q = abs(int(lv)) // abs(int(rv))
        try:
            return np.int64(q if (lv < 0) == (rv < 0) else -q)
        except OverflowError:
            raise ExecutionError("integer overflow") from None
    return np.int64(np.trunc(lv / rv))


def _mod(lv: Any, rv: Any) -> Any:
    if _is_int(lv) and _is_int(rv) and rv == 0:
        raise ExecutionError("modulo by zero")
    r = np.abs(lv) % np.abs(rv)
    return -r if lv < 0 else r


# ``and``/``or`` short-circuit, so they compile separately.
_BINOPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
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
}


def _check_bounds(fname: str, gname: str, store: np.ndarray, idx: tuple) -> None:
    for k, (i, n) in enumerate(zip(idx, store.shape)):
        if not (0 <= i < n):
            raise ExecutionError(
                f"{fname}: index {i + 1} out of bounds for dimension "
                f"{k + 1} of grid {gname!r} (extent {n})"
            )


def _checked_read(fname: str, gname: str, store: np.ndarray, idx: tuple) -> Any:
    _check_bounds(fname, gname, store, idx)
    return store[idx]


def _screen(f: _Frame, gname: str, store: np.ndarray, value: Any,
            idx: tuple | None) -> Any:
    """A write's ``numeric.sentinel`` fault site, then its sentinel check."""
    if (_rc._active.faults is not None
            and np.issubdtype(store.dtype, np.floating)):
        poisoned = _faults.inject(
            "numeric.sentinel", value, function=f.fn.name,
            step=f.current_step, grid=gname)
        if poisoned is not None:
            value = poisoned
    if _rc._active.sentinels is not None:
        _sentinel.check_value(
            value, function=f.fn.name, step_index=f.current_step,
            step_name=f.current_step_name, grid=gname,
            cell=None if idx is None else tuple(i + 1 for i in idx))
    return value


def _raiser(exc_type: type[Exception], message: str) -> _Closure:
    def fail(f: _Frame) -> Any:
        raise exc_type(message)
    return fail


def _exit(f: _Frame) -> None:
    raise _ExitSignal()


def _return_none(f: _Frame) -> None:
    raise _ReturnSignal(None)


class _CompiledStep:
    """One step as closures over a frame.

    ``ranges`` holds ``(var, start, end, stride)`` per loop level, each
    bound a closure returning an ``int``; ``cond`` is the step condition
    (``None`` when absent); ``body`` runs the statements once; ``run``
    executes the whole step: its nest, or the guarded body of a non-loop
    step.
    """

    __slots__ = ("ranges", "cond", "body", "run")

    def __init__(self, ranges: tuple, cond: _Closure | None, body: _Closure,
                 run: _Closure) -> None:
        self.ranges = ranges
        self.cond = cond
        self.body = body
        self.run = run


class _StepCompiler:
    """Compiles one step of one function into a :class:`_CompiledStep`."""

    def __init__(self, fn: GlafFunction, idx: int, step: Step):
        self.fn = fn
        self.fname = fn.name
        self.idx = idx
        self.step = step

    def compile(self) -> _CompiledStep:
        step = self.step
        ranges = tuple((r.var, self._int(r.start), self._int(r.end),
                        self._int(r.step)) for r in step.ranges)
        cond = None if step.condition is None else self._expr(step.condition)
        body = self._block(step.stmts)
        if ranges:
            run = self._nest(ranges, cond, body)
        elif cond is None:
            run = body
        else:
            def run(f: _Frame) -> None:
                if cond(f):
                    body(f)
        return _CompiledStep(ranges, cond, body, run)

    # -- the loop nest -----------------------------------------------------
    def _nest(self, ranges: tuple, cond: _Closure | None, body: _Closure) -> _Closure:
        var, lo, hi, by = ranges[0]
        bad_stride = f"{self.fname}/{self.step.name}: non-positive stride"
        if len(ranges) > 1:
            inner = self._nest(ranges[1:], cond, body)

            def loop(f: _Frame) -> None:
                start, end, stride = lo(f), hi(f), by(f)
                if stride <= 0:
                    raise ExecutionError(bad_stride)
                indices = f.indices
                try:
                    for i in range(start, end + 1, stride):
                        indices[var] = i
                        inner(f)
                finally:
                    indices.pop(var, None)
            return loop

        fname, idx = self.fname, self.idx

        def innermost(f: _Frame) -> None:
            start, end, stride = lo(f), hi(f), by(f)
            if stride <= 0:
                raise ExecutionError(bad_stride)
            indices = f.indices
            note_iter = f.interp.stats.note_iter
            budget = f.interp._budget
            try:
                for i in range(start, end + 1, stride):
                    indices[var] = i
                    note_iter(fname, idx)
                    if budget is not None:
                        budget.tick()
                    if _rc._active.faults is not None:
                        _faults.inject("exec.interp.iter", function=fname,
                                       step=idx)
                    if cond is None or cond(f):
                        body(f)
            except _ExitSignal:
                # FORTRAN EXIT leaves the innermost enclosing DO.
                pass
            finally:
                indices.pop(var, None)
        return innermost

    # -- statements --------------------------------------------------------
    def _block(self, stmts) -> _Closure:
        compiled = tuple(self._stmt(s) for s in stmts)
        if len(compiled) == 1:
            return compiled[0]

        def block(f: _Frame) -> None:
            for s in compiled:
                s(f)
        return block

    def _stmt(self, s: Stmt) -> _Closure:
        if isinstance(s, Assign):
            return self._assign(s)
        if isinstance(s, CallStmt):
            name, args = s.name, tuple(self._arg(a) for a in s.args)

            def call(f: _Frame) -> None:
                f.interp.call(name, [a(f) for a in args])
            return call
        if isinstance(s, IfStmt):
            cond, then = self._expr(s.cond), self._block(s.then)
            orelse = self._block(s.orelse)

            def if_(f: _Frame) -> None:
                if cond(f):
                    then(f)
                else:
                    orelse(f)
            return if_
        if isinstance(s, Return):
            if s.value is None:
                return _return_none
            try:
                cast = numpy_dtype(self.fn.return_type).type
            except ValueError as e:
                return _raiser(ValueError, str(e))
            value = self._expr(s.value)

            def ret(f: _Frame) -> None:
                raise _ReturnSignal(cast(value(f)))
            return ret
        if isinstance(s, ExitLoop):
            return _exit
        return _raiser(ExecutionError,
                       f"cannot execute statement {type(s).__name__}")

    def _assign(self, s: Assign) -> _Closure:
        name = s.target.grid
        value = self._expr(s.expr)
        subs = tuple(self._sub(i) for i in s.target.indices)
        fname = self.fname

        if not subs:
            whole = f"cannot assign scalar to whole array {name!r}"

            def assign0(f: _Frame) -> None:
                store = f.grids[name]
                v = value(f)
                if store.ndim != 0:
                    raise ExecutionError(whole)
                if _rc._active.hooked:
                    v = _screen(f, name, store, v, None)
                store[()] = v
            return assign0
        if len(subs) == 1:
            s0, = subs

            def assign1(f: _Frame) -> None:
                store = f.grids[name]
                v = value(f)
                k = s0(f)
                if store.ndim != 1 or not 0 <= k < store.shape[0]:
                    _check_bounds(fname, name, store, (k,))
                if _rc._active.hooked:
                    v = _screen(f, name, store, v, (k,))
                store[k] = v
            return assign1
        if len(subs) == 2:
            s0, s1 = subs

            def assign2(f: _Frame) -> None:
                store = f.grids[name]
                v = value(f)
                k0, k1 = s0(f), s1(f)
                if store.ndim != 2:
                    _check_bounds(fname, name, store, (k0, k1))
                else:
                    n0, n1 = store.shape
                    if not (0 <= k0 < n0 and 0 <= k1 < n1):
                        _check_bounds(fname, name, store, (k0, k1))
                if _rc._active.hooked:
                    v = _screen(f, name, store, v, (k0, k1))
                store[k0, k1] = v
            return assign2

        def assign(f: _Frame) -> None:
            store = f.grids[name]
            v = value(f)
            idx = tuple(sub(f) for sub in subs)
            _check_bounds(fname, name, store, idx)
            if _rc._active.hooked:
                v = _screen(f, name, store, v, idx)
            store[idx] = v
        return assign

    # -- expressions -------------------------------------------------------
    def _expr(self, e: Expr) -> _Closure:
        if isinstance(e, Const):
            value = e.value
            return lambda f: value
        if isinstance(e, IndexVar):
            name = e.name
            return lambda f: f.indices[name]
        if isinstance(e, GridRef):
            if e.indices:
                return self._element(e.grid, tuple(self._sub(i) for i in e.indices))
            name = e.grid

            def scalar(f: _Frame) -> Any:
                store = f.grids[name]
                return store[()] if store.ndim == 0 else store
            return scalar
        if isinstance(e, BinOp):
            return self._binop(e)
        if isinstance(e, UnOp):
            operand = self._expr(e.operand)
            if e.op == "not":
                return lambda f: not operand(f)
            return lambda f: -operand(f)
        if isinstance(e, LibCall):
            return self._libcall(e)
        if isinstance(e, FuncCall):
            name, args = e.name, tuple(self._arg(a) for a in e.args)
            return lambda f: f.interp.call(name, [a(f) for a in args])
        return _raiser(ExecutionError,
                       f"cannot evaluate expression {type(e).__name__}")

    def _arg(self, e: Expr) -> _Closure:
        """Arguments: whole-grid references pass storage by reference."""
        if isinstance(e, GridRef) and not e.indices:
            name = e.grid
            return lambda f: f.grids[name]
        return self._expr(e)

    def _int(self, e: Expr) -> _Closure:
        """A loop bound: the expression's value as an ``int``."""
        get = self._expr(e)
        return lambda f: int(get(f))

    def _sub(self, e: Expr) -> _Closure:
        """A subscript: the expression's value as a 0-based ``int``."""
        if isinstance(e, Const) and type(e.value) is int:
            value = e.value - 1
            return lambda f: value
        if isinstance(e, IndexVar):
            name = e.name
            return lambda f: f.indices[name] - 1
        get = self._expr(e)
        return lambda f: int(get(f)) - 1

    def _element(self, name: str, subs: tuple) -> _Closure:
        fname = self.fname
        if len(subs) == 1:
            s0, = subs

            def element1(f: _Frame) -> Any:
                store = f.grids[name]
                k = s0(f)
                if store.ndim == 1 and 0 <= k < store.shape[0]:
                    return store[k]
                return _checked_read(fname, name, store, (k,))
            return element1
        if len(subs) == 2:
            s0, s1 = subs

            def element2(f: _Frame) -> Any:
                store = f.grids[name]
                k0, k1 = s0(f), s1(f)
                if store.ndim == 2:
                    n0, n1 = store.shape
                    if 0 <= k0 < n0 and 0 <= k1 < n1:
                        return store[k0, k1]
                return _checked_read(fname, name, store, (k0, k1))
            return element2
        if len(subs) == 3:
            s0, s1, s2 = subs

            def element3(f: _Frame) -> Any:
                store = f.grids[name]
                k0, k1, k2 = s0(f), s1(f), s2(f)
                if store.ndim == 3:
                    n0, n1, n2 = store.shape
                    if 0 <= k0 < n0 and 0 <= k1 < n1 and 0 <= k2 < n2:
                        return store[k0, k1, k2]
                return _checked_read(fname, name, store, (k0, k1, k2))
            return element3

        def element(f: _Frame) -> Any:
            store = f.grids[name]
            return _checked_read(fname, name, store, tuple(sub(f) for sub in subs))
        return element

    def _binop(self, e: BinOp) -> _Closure:
        op = e.op
        left, right = self._expr(e.left), self._expr(e.right)
        if op == "and":
            return lambda f: bool(left(f)) and bool(right(f))
        if op == "or":
            return lambda f: bool(left(f)) or bool(right(f))
        fn = _BINOPS.get(op)
        if fn is None:
            return _raiser(ExecutionError, f"unknown operator {op!r}")
        if isinstance(e.right, Const):
            value = e.right.value
            return lambda f: fn(left(f), value)
        return lambda f: fn(left(f), right(f))

    def _libcall(self, e: LibCall) -> _Closure:
        try:
            lf = get_libfunc(e.name)
            lf.check_arity(len(e.args))
        except CodegenError as err:
            return _raiser(CodegenError, str(err))
        impl = lf.impl
        args = tuple(self._arg(a) for a in e.args)
        if len(args) == 1:
            a0, = args
            return lambda f: impl(a0(f))
        if len(args) == 2:
            a0, a1 = args
            return lambda f: impl(a0(f), a1(f))
        return lambda f: impl(*[a(f) for a in args])
