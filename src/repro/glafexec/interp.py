"""The GLAF IR interpreter: reference execution semantics.

Every kernel in the case studies runs through this interpreter (with NumPy
storage) and through the generated Python / generated FORTRAN paths; the
outputs must agree.

Execution model:

* A step compiles on its first execution to one Python function over the
  activation frame: :class:`_Emitter` writes its source, and ``compile``
  turns it into code.  Loop variables are the function's locals; each
  grid the step names is looked up once per run of the step, with its
  rank and extents, so a read in bounds is one comparison chain and an
  index, and the slow-path helpers run only when it fails.  IR strings —
  grid, call, function and step names, messages — enter the source only
  through ``repr()`` or the function's namespace, which also binds the
  step's constants (one name each, carrying the constant's type), its
  library implementations and its return cast.  The code is kept
  process-wide in a :class:`~repro.recurring.RecurringCache` keyed by a
  digest of the text, so a rebuilt program's steps reuse it, and each
  compiled function is named after its step, in a file
  ``<glaf-step FN/IDX>``, for profiles and tracebacks.
* Each function's call set-up — its parameters and locals with their
  dtypes and SAVE keys, its fall-off result — is computed once per
  interpreter, on its first call.  Each call binds one table of the grids
  it can name (its own storage over the context's globals).
* ``_exec_step`` stays the subclass hook: the vectorized interpreter runs
  the same compiled steps, and the access-conflict checking interpreter
  (:mod:`repro.glafexec.conflicts`) overrides ``_compile`` to emit steps
  that also record every grid access.
* Compilation defers every error to the statement that raises it: an
  unknown library function, a valued RETURN in a subroutine, an EXIT
  outside a loop or an unknown node compiles to code that raises only if
  it runs.  Every run-time check (argument count, dtype and rank, call
  depth, bounds per dimension, non-positive stride, unbound index,
  scalar-to-whole-array, budget, fault sites, sentinels) happens on
  execution, in the order the statement evaluates.  Only a step Python
  cannot compile (an expression nested past its parser's two hundred
  parenthesis levels; a left-associative chain takes one) raises
  :class:`ExecutionError` at its first execution, before it runs.
* Compiled steps take the activation frame and reach the interpreter
  through it; neither they nor their namespaces hold the interpreter or
  its context, so a dropped interpreter is freed without the cycle
  collector.

Semantics follow FORTRAN:

* 1-based inclusive loop ranges (``DO i = start, end, step``);
* integer ``/`` truncates toward zero; ``MOD`` takes the dividend's sign;
  an integer zero divisor raises :class:`ExecutionError`;
* ``EXIT`` (:class:`ExitLoop`) leaves the innermost loop of the step's
  nest; in a step without a loop it raises :class:`ExecutionError`;
* arguments are passed by reference — array arguments alias caller storage,
  and scalar ``intent(out/inout)`` arguments must be 0-d arrays;
* SAVE'd locals persist across calls in the interpreter's save store, which
  is also how the FUN3D "no reallocation" option is executed.
"""

from __future__ import annotations

import builtins
from dataclasses import dataclass, field
from types import CodeType, FunctionType
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
    Range,
    Return,
    Step,
    Stmt,
)
from ..core.types import numpy_dtype
from ..errors import CodegenError, ExecutionError
from ..numeric import sentinel as _sentinel
from ..observe.metrics import get_metrics
from ..observe.trace import get_tracer
from ..recurring import RecurringCache, digest
from ..robust import Budget, ResourceLimits
from ..robust import faults as _faults
from .context import ExecutionContext

__all__ = ["Interpreter", "ExecStats"]


class _ReturnSignal(Exception):
    def __init__(self, value: Any = None):
        self.value = value


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


class _Frame:
    """One activation: the interpreter, the function and its storage."""

    __slots__ = ("interp", "fn", "storage", "grids", "current_step",
                 "current_step_name")

    def __init__(self, interp: "Interpreter", fn: GlafFunction) -> None:
        self.interp = interp
        self.fn = fn
        #: the function's own grids (parameters and locals)
        self.storage: dict[str, np.ndarray] = {}
        #: ``storage`` over the context's globals, set once storage is bound
        self.grids = _Grids()
        # Set by _exec_step so assignment-time sentinels can name the step.
        self.current_step = -1
        self.current_step_name = ""


class _Local:
    """A local grid's allocation, resolved once: its dtype, its shape when
    no dimension is symbolic, and its SAVE key."""

    __slots__ = ("name", "grid", "dtype", "shape", "key", "saved")

    def __init__(self, fn: GlafFunction, grid: Grid, saved: bool) -> None:
        self.name = grid.name
        self.grid = grid
        self.dtype = numpy_dtype(grid.ty)
        self.shape = None if grid.symbolic_dims() else grid.shape()
        self.key = (fn.name, grid.name)
        self.saved = saved

    def allocate(self, sizes: dict[str, int] | None) -> np.ndarray:
        """Fresh storage, as :func:`~repro.glafexec.context.as_storage`
        makes it."""
        g = self.grid
        store = np.zeros(self.shape if self.shape is not None
                         else g.shape(sizes), dtype=self.dtype)
        if g.init_data is not None:
            store[() if g.rank == 0 else ...] = g.init_data
        return store


class _Callee:
    """One function's call set-up, computed on its first call."""

    __slots__ = ("fn", "params", "locals", "sized", "result")

    def __init__(self, fn: GlafFunction, save_inner_arrays: bool) -> None:
        self.fn = fn
        #: (name, grid, dtype) per parameter
        self.params = tuple((p, fn.grids[p], numpy_dtype(fn.grids[p].ty))
                            for p in fn.params)
        self.locals = tuple(
            _Local(fn, g, g.save or (save_inner_arrays and g.allocatable))
            for g in fn.local_grids().values())
        #: does a local need the frame's sizes?
        self.sized = any(local.shape is None for local in self.locals)
        #: what a function returns when it falls off its end (the
        #: zero-initialized result variable, as FORTRAN would)
        self.result = (None if fn.is_subroutine
                       else numpy_dtype(fn.return_type).type(0))


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
        self._callees: dict[str, _Callee] = {}
        self._steps: dict[tuple[str, int], Callable[[_Frame], None]] = {}
        self._depth = 0

    def reset_save_store(self) -> None:
        self._save_store.clear()

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------
    def call(self, name: str, args: list[Any] | tuple = ()) -> Any:
        """Call a GLAF function; returns its value (None for subroutines)."""
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
        callee = self._callees.get(name)
        if callee is None:
            callee = self._callees[name] = _Callee(
                self.program.find_function(name), self.save_inner_arrays)
        fn = callee.fn
        if len(args) != len(callee.params):
            raise ExecutionError(
                f"{name}: expected {len(callee.params)} argument(s), "
                f"got {len(args)}"
            )
        if self._depth >= self.max_call_depth:
            raise ExecutionError(f"call depth exceeded at {name}")
        self.stats.note_call(name)

        frame = _Frame(self, fn)
        storage = frame.storage
        # Bind dummies by reference where possible.
        for (pname, g, dtype), value in zip(callee.params, args):
            storage[pname] = self._bind_argument(g, dtype, value)
        # Resolve symbolic local dims from already-bound scalars.
        sizes = self._frame_sizes(frame) if callee.sized else None
        for local in callee.locals:
            storage[local.name] = self._allocate_local(local, sizes)
        frame.grids.update(self.context.globals)
        frame.grids.update(storage)

        self._depth += 1
        try:
            for idx, step in enumerate(fn.steps):
                self._exec_step(frame, idx, step)
        except _ReturnSignal as r:
            return r.value
        finally:
            self._depth -= 1
        return callee.result

    def _bind_argument(self, g: Grid, dtype: np.dtype, value: Any) -> np.ndarray:
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
            if store.ndim == 0 and issubclass(store.dtype.type, np.integer):
                sizes[name] = int(store[()])
        return sizes

    def _allocate_local(self, local: _Local,
                        sizes: dict[str, int] | None) -> np.ndarray:
        if local.saved:
            store = self._save_store.get(local.key)
            if store is not None:
                return store
        self.stats.allocations += 1
        store = local.allocate(sizes)
        if local.saved:
            self._save_store[local.key] = store
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
        self._compiled(frame, idx, step)(frame)

    def _compiled(self, frame: _Frame, idx: int,
                  step: Step) -> Callable[[_Frame], None]:
        """The step's function, compiled on its first execution."""
        key = (frame.fn.name, idx)
        run = self._steps.get(key)
        if run is None:
            run = self._steps[key] = self._compile(frame, idx, step)
        return run

    def _compile(self, frame: _Frame, idx: int,
                 step: Step) -> Callable[[_Frame], None]:
        """Compile one step; the checking interpreter emits its own
        recording steps here."""
        return _Emitter(frame.fn, idx, step, frame.grids).run()


# ----------------------------------------------------------------------
# run-time helpers the compiled steps call
# ----------------------------------------------------------------------
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


def _fail(exc_type: type[Exception], message: str) -> Any:
    """A compiled node's error, raised where the node evaluates."""
    raise exc_type(message)


def _loop(start: int, end: int, stride: int, message: str) -> range:
    """One loop level's iterations, once its stride is checked."""
    if stride <= 0:
        raise ExecutionError(message)
    return range(start, end + 1, stride)


def _iter(budget: Budget | None, faults: Any, fname: str, idx: int) -> None:
    """An innermost iteration's budget tick and fault site."""
    if budget is not None:
        budget.tick()
    if faults is not None:
        _faults.inject("exec.interp.iter", function=fname, step=idx)


#: What every compiled step's namespace starts from.
_NAMESPACE: dict[str, Any] = {
    "__builtins__": builtins, "ExecutionError": ExecutionError,
    "CodegenError": CodegenError, "_ReturnSignal": _ReturnSignal,
    "_rc": _rc, "_div": _div, "_floordiv": _floordiv, "_mod": _mod,
    "_check_bounds": _check_bounds, "_checked_read": _checked_read,
    "_screen": _screen,
    "_fail": _fail, "_loop": _loop, "_iter": _iter,
}

#: Compiled step code, process-wide, by a digest of its text.
_CODE = RecurringCache(512)

#: The names a compiled step binds first, when its text uses them.
_FRAME_NAMES = (("G", "f.grids"), ("I", "f.interp"), ("A", "_rc._active"),
                ("H", "A.hooked"))
_INFIX = frozenset(("+", "-", "*", "**", "==", "!=", "<", "<=", ">", ">="))
_HELPERS = {"/": "_div", "//": "_floordiv", "%": "_mod"}
#: Left-associative operators of one precedence level, by level.
_CHAINS = {"+": 0, "-": 0, "*": 1, "/": 1}


def _is_float(e: Expr) -> bool:
    return isinstance(e, Const) and isinstance(e.value, (float, np.floating))


class _Emitter:
    """Writes one step of one function as the source of a Python function
    of the activation frame ``f``, and compiles it.

    ``grids`` holds the names the function's frames resolve (its storage
    and the context's globals); the step reads each of those once per run,
    and touching any other name raises the frame's "no global grid" error
    where the step touches it.  Index variables are the locals ``i0``,
    ``i1``..., by loop level, never their IR names.
    """

    def __init__(self, fn: GlafFunction, idx: int, step: Step,
                 grids: dict[str, np.ndarray]) -> None:
        self.fn, self.idx, self.step = fn, idx, step
        self.grids = grids
        self.ns: dict[str, Any] = dict(_NAMESPACE, FN=fn.name, IDX=idx)
        self.head: list[str] = []      # per run, after the frame's names
        self.lines: list[str] = []
        self.uses: set[str] = set()    # which frame names the text uses
        self.stores: dict[str, str] = {}
        self.extents: dict[tuple[str, int], list[str]] = {}
        self.ranks: dict[str, str] = {}
        self.vars: dict[str, str] = {}  # bound index variable -> its local
        self.count = 0

    def run(self) -> Callable[[_Frame], None]:
        """The step: its loop nest, or the guarded body of a non-loop step."""
        step = self.step
        ind = 2 if step.ranges else 1
        for level, r in enumerate(step.ranges):
            self._enter(level, ind)
            rng = self._range(r)
            var = self.vars[r.var] = f"i{level}"
            self._line(ind, f"for {var} in {rng}:")
            ind += 1
            self._trip(level, ind)
        if step.ranges:
            self._line(ind, "n += 1")
            self._line(ind, "if X: _iter(T, F, FN, IDX)")
        if step.condition is not None:
            self._line(ind, f"if {self._expr(step.condition)}:")
            ind += 1
        self._stmts(step.stmts, ind)
        if not step.ranges:
            return self._function(self.lines)
        self.uses.update("IA")
        return self._function([
            "    T = I._budget; F = A.faults; "
            "X = T is not None or F is not None; n = 0",
            "    try:", *self.lines,
            "    finally:",
            "        if n: I.stats.note_iter(FN, IDX, n)"])

    # -- compiling -----------------------------------------------------------
    def _function(self, body: list[str]) -> Callable:
        if "H" in self.uses:
            self.uses.add("A")
        head = [f"{k} = {v}" for k, v in _FRAME_NAMES if k in self.uses]
        head += self.head
        text = "\n".join(["def run(f):",
                          *(["    " + "; ".join(head)] if head else []),
                          *(body or ["    pass"])])
        key = digest(text)
        code = _CODE.get(key)
        if code is None:
            try:
                module = compile(text, "<glaf-step>", "exec")
            except (SyntaxError, RecursionError, MemoryError):
                raise ExecutionError(
                    f"{self.fn.name}/{self.step.name}: step too deeply "
                    "nested to compile") from None
            code = next(c for c in module.co_consts if isinstance(c, CodeType))
            _CODE.offer(key, code)
        names = {"co_filename": f"<glaf-step {self.fn.name}/{self.idx}>",
                 "co_name": self.step.name}
        if hasattr(code, "co_qualname"):
            names["co_qualname"] = self.step.name
        return FunctionType(code.replace(**names), self.ns)

    def _line(self, ind: int, text: str) -> None:
        self.lines.append("    " * ind + text)

    def _name(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def _bind(self, prefix: str, value: Any) -> str:
        """A namespace name for ``value``."""
        name = self._name(prefix)
        self.ns[name] = value
        return name

    def _const(self, value: Any) -> str:
        kind = type(value).__name__
        return self._bind(f"c_{kind}_" if kind.isidentifier() else "c", value)

    def _message(self, text: str) -> str:
        return self._bind("m", text)

    def _fail(self, exc_type: type[Exception], message: str) -> str:
        return f"_fail({exc_type.__name__}, {self._message(message)})"

    # -- hooks of the recording emitter --------------------------------------
    def _enter(self, level: int, ind: int) -> None:
        """Before a loop level's bounds evaluate."""

    def _trip(self, level: int, ind: int) -> None:
        """At the start of each trip of a loop level."""

    def _write(self, ind: int, store: str, name: str, cell: str) -> None:
        """Just before a write stores."""

    # -- grids ---------------------------------------------------------------
    def _store(self, name: str) -> str | None:
        """The local holding grid ``name`` for this run (None: the frames
        cannot resolve it)."""
        store = self.stores.get(name)
        if store is None and name in self.grids:
            store = self.stores[name] = self._name("S")
            self.uses.add("G")
            self.head.append(f"{store} = G[{name!r}]")
        return store

    def _rank0(self, name: str, store: str) -> str:
        flag = self.ranks.get(name)
        if flag is None:
            flag = self.ranks[name] = self._name("z")
            self.head.append(f"{flag} = {store}.ndim == 0")
        return flag

    def _in_bounds(self, name: str, store: str, cell: list[str],
                   subs: list[str]) -> str:
        """The fast bounds test of one to three subscripts, binding each to
        its name in ``cell`` in order; false whenever the grid's rank is
        not the subscript count."""
        n = len(subs)
        ext = self.extents.get((name, n))
        if ext is None:
            ext = self.extents[(name, n)] = [self._name("b") for _ in subs]
            if n == 1:
                self.head.append(
                    f"{ext[0]} = {store}.shape[0] if {store}.ndim == 1 else -1")
            else:
                self.head.append(
                    f"{', '.join(ext)} = {store}.shape if {store}.ndim == {n}"
                    f" else ({', '.join(['-1'] * n)})")
        if n == 1:
            return f"0 <= ({cell[0]} := {subs[0]}) < {ext[0]}"
        return " & ".join(f"(0 <= ({k} := {sub}) < {b})"
                          for k, sub, b in zip(cell, subs, ext))

    def _read(self, e: GridRef) -> tuple[str | None, str, str]:
        """A grid read: its store's local (None: unresolvable), the cell it
        reads once the text has run (None: every cell) and the text."""
        name = e.grid
        store = self._store(name)
        if store is None:
            self.uses.add("G")
            return None, "", f"G[{name!r}]"
        if not e.indices:
            flag = self._rank0(name, store)
            return (store, f"(() if {flag} else None)",
                    f"({store}[()] if {flag} else {store})")
        subs = [self._sub(i) for i in e.indices]
        if len(subs) > 3:
            k = self._name("k")
            return store, k, (f"_checked_read(FN, {name!r}, {store}, "
                              f"({k} := ({', '.join(subs)},)))")
        cell = [self._name("k") for _ in subs]
        at = ", ".join(cell)
        return store, f"({at},)", (
            f"({store}[{at}] if {self._in_bounds(name, store, cell, subs)}"
            f" else _checked_read(FN, {name!r}, {store}, ({at},)))")

    def _grid(self, e: GridRef) -> str:
        return self._read(e)[2]

    # -- statements ----------------------------------------------------------
    def _stmts(self, stmts, ind: int) -> None:
        if not stmts:
            self._line(ind, "pass")
        for s in stmts:
            self._stmt(s, ind)

    def _stmt(self, s: Stmt, ind: int) -> None:
        if isinstance(s, Assign):
            self._assign(s, ind)
        elif isinstance(s, CallStmt):
            self.uses.add("I")
            self._line(ind, f"I.call({s.name!r}, [{self._args(s.args)}])")
        elif isinstance(s, IfStmt):
            self._line(ind, f"if {self._expr(s.cond)}:")
            self._stmts(s.then, ind + 1)
            if s.orelse:
                self._line(ind, "else:")
                self._stmts(s.orelse, ind + 1)
        elif isinstance(s, Return):
            self._return(s, ind)
        elif isinstance(s, ExitLoop):
            # FORTRAN EXIT leaves the innermost enclosing DO.
            self._line(ind, "break" if self.step.ranges else
                       "raise ExecutionError(" + self._message(
                           f"{self.fn.name}/{self.step.name}: EXIT outside "
                           "a loop") + ")")
        else:
            self._line(ind, "raise ExecutionError(" + self._message(
                f"cannot execute statement {type(s).__name__}") + ")")

    def _return(self, s: Return, ind: int) -> None:
        if s.value is None:
            self._line(ind, "raise _ReturnSignal(None)")
            return
        try:
            cast = numpy_dtype(self.fn.return_type).type
        except ValueError as e:
            self._line(ind, f"raise ValueError({self._message(str(e))})")
            return
        self._line(ind, f"raise _ReturnSignal({self._bind('r', cast)}"
                        f"({self._expr(s.value)}))")

    def _assign(self, s: Assign, ind: int) -> None:
        """Lookup, value, subscripts, checks, store — the order the
        statement evaluates in."""
        name = s.target.grid
        store = self._store(name)
        if store is None:
            self.uses.add("G")
            self._line(ind, f"G[{name!r}]")
            return
        self.uses.add("H")
        self._line(ind, f"v = {self._expr(s.expr)}")
        subs = [self._sub(i) for i in s.target.indices]
        if not subs:
            cell = at = "()"
            whole = self._message(
                f"cannot assign scalar to whole array {name!r}")
            self._line(ind, f"if not {self._rank0(name, store)}: "
                            f"raise ExecutionError({whole})")
            screened = "None"
        elif len(subs) <= 3:
            ks = [self._name("k") for _ in subs]
            at = ", ".join(ks)
            cell = screened = f"({at},)"
            self._line(ind, f"if not {self._in_bounds(name, store, ks, subs)}"
                            f": _check_bounds(FN, {name!r}, {store}, {cell})")
        else:
            cell = at = screened = self._name("k")
            self._line(ind, f"{cell} = ({', '.join(subs)},); "
                            f"_check_bounds(FN, {name!r}, {store}, {cell})")
        self._line(ind, f"if H: v = _screen(f, {name!r}, {store}, v, "
                        f"{screened})")
        self._write(ind, store, name, cell)
        self._line(ind, f"{store}[{at}] = v")

    # -- expressions ---------------------------------------------------------
    def _expr(self, e: Expr) -> str:
        if isinstance(e, GridRef):
            return self._grid(e)
        if isinstance(e, BinOp):
            return self._binop(e)
        if isinstance(e, Const):
            return self._const(e.value)
        if isinstance(e, IndexVar):
            var = self.vars.get(e.name)
            return var if var is not None else self._fail(
                ExecutionError, f"unbound index variable {e.name!r}")
        if isinstance(e, UnOp):
            operand = self._expr(e.operand)
            return f"(not {operand})" if e.op == "not" else f"(-{operand})"
        if isinstance(e, LibCall):
            return self._libcall(e)
        if isinstance(e, FuncCall):
            self.uses.add("I")
            return f"I.call({e.name!r}, [{self._args(e.args)}])"
        return self._fail(ExecutionError,
                          f"cannot evaluate expression {type(e).__name__}")

    def _args(self, args: tuple[Expr, ...]) -> str:
        return ", ".join(map(self._arg, args))

    def _arg(self, e: Expr) -> str:
        """Arguments: whole-grid references pass storage by reference."""
        if isinstance(e, GridRef) and not e.indices:
            store = self._store(e.grid)
            if store is None:
                self.uses.add("G")
                return f"G[{e.grid!r}]"
            return store
        return self._expr(e)

    def _int(self, e: Expr) -> str:
        """A loop bound: the expression's value as an ``int``."""
        if isinstance(e, Const) and type(e.value) is int:
            return self._const(e.value)
        if isinstance(e, IndexVar) and e.name in self.vars:
            return self.vars[e.name]
        return f"int({self._expr(e)})"

    def _sub(self, e: Expr) -> str:
        """A subscript: the expression's value as a 0-based ``int``."""
        if isinstance(e, IndexVar):
            var = self.vars.get(e.name)
            return f"{var if var is not None else self._expr(e)} - 1"
        if isinstance(e, Const) and type(e.value) is int:
            return self._const(e.value - 1)
        return f"int({self._expr(e)}) - 1"

    def _range(self, r: Range) -> str:
        """One loop level's iterations: start, end and stride evaluate in
        that order, then the stride is checked."""
        start, end = self._int(r.start), self._int(r.end)
        by = r.step
        if isinstance(by, Const) and type(by.value) is int and by.value > 0:
            if by.value == 1:
                return f"range({start}, {end} + 1)"
            return f"range({start}, {end} + 1, {self._const(by.value)})"
        message = self._message(
            f"{self.fn.name}/{self.step.name}: non-positive stride")
        return f"_loop({start}, {end}, {self._int(by)}, {message})"

    def _binop(self, e: BinOp) -> str:
        op = e.op
        left, right = self._expr(e.left), self._expr(e.right)
        if op in ("and", "or"):
            return f"(bool({left}) {op} bool({right}))"
        if op in _INFIX or (op == "/" and (_is_float(e.left)
                                           or _is_float(e.right))):
            # A float operand makes ``/`` the true division _div picks.
            group = _CHAINS.get(op)
            if (group is not None and isinstance(e.left, BinOp)
                    and _CHAINS.get(e.left.op) == group
                    and left.startswith("(")):
                # Python's own left-associative chain, one paren level
                # for the whole of it (the parser nests at most 200).
                left = left[1:-1]
            return f"({left} {op} {right})"
        helper = _HELPERS.get(op)
        if helper is None:
            return self._fail(ExecutionError, f"unknown operator {op!r}")
        return f"{helper}({left}, {right})"

    def _libcall(self, e: LibCall) -> str:
        try:
            lf = get_libfunc(e.name)
            lf.check_arity(len(e.args))
        except CodegenError as err:
            return self._fail(CodegenError, str(err))
        return f"{self._bind('L', lf.impl)}({self._args(e.args)})"
