"""Lift FORTRAN DO statements onto the shared array engine.

The runtime compiles each DO statement to a scalar closure that runs one
iteration at a time (:meth:`repro.fortranlib.interp._UnitCompiler._do`).
Before that, :func:`lower_nest` tries to *lower* the statement into the
GLAF IR step form (:class:`~repro.core.step.Step`), which goes through
the lift rules the GLAF IR executor uses,
:func:`~repro.glafexec.vectorize.compile_step`:

* a perfect DO nest of assignments and IF blocks lifts as one array
  program, with scratch when it keeps a scalar temporary;
* a *sweep*, a nest that CALLs subroutines or references user functions,
  has the FORTRAN text of every reachable callee translated to
  :class:`~repro.core.function.GlafFunction` s, each callee resolved as
  the scalar path resolves it, in a synthetic program whose global grids
  are the variables the sweep names.  The shared inliner
  (:mod:`repro.glafexec.inline`) splits it into nests;
* a DO statement whose body is not a perfect nest's is *outlined* into a
  sweep, mechanically, as GLAF splits legacy FUN3D by hand: its body
  becomes a synthetic SUBROUTINE ``unit@line`` (a name no FORTRAN
  subprogram has) whose by-value INTEGER dummy arguments are the
  enclosing DO variables, CALLed once per iteration.  Each statement of
  an outlined body is a step, as in a callee: a perfect nest a loop
  step, an imperfect DO a loop step that CALLs its own outlined body, an
  IF branch that holds a DO an outlined body CALLed under the branch's
  condition.  A *search*, ``DO v = lo, hi[, s]`` holding only ``IF (c)
  THEN; x = val; EXIT`` with a positive constant stride, becomes ``x =
  unit@line(..., x)``: the inliner's first-match FUNCTION, built by the
  same code as a callee's, whose last argument is its default, the value
  of ``x`` before the loop.  An outlined part's names are the unit's,
  but for its *private locals*: a plain local of the unit (no dummy
  argument, result, SAVE'd, initialized, allocatable, COMMON, module or
  PARAMETER variable) that only one outlined part references, that no
  statement able to run after the DO statement references, and whose
  every read in an iteration follows a write covering it (a full write
  earlier in the part, or an unconditional one at the same subscripts
  earlier in the same nest) is that part's local, expanded per lane.
  Every other name stays the caller's, which the inliner expands per
  iteration and keeps, or refuses.

Each lifts to one program (:func:`~repro.glafexec.vectorize.compiled_plan`,
the IR executor's too), and :func:`lifted_do` runs it behind this
runtime's guards, with a callback that counts the arrays each inlined
call allocates; the scalar closure stays as the fallback.  Lowering
reads the text the runtime loaded, never a GLAF program that produced
it.

Lowering rules:

* DO variables become index variables; every other name becomes a grid
  reference, resolved to its frame slot or, for ``base%field``, to the
  TYPE component; a callee's module and COMMON variables resolve to their
  storage, which the caller reaches under the same name;
* literals keep the runtime's NumPy scalar types (``np.int64``,
  ``np.float64``, ``np.bool_``), so promotion is the scalar path's;
* an intrinsic lowers only through the library-function registry, and
  only where the name resolves to no variable, special form or
  subprogram first (the scalar path's order);
* ``/`` lowers like any other operator: the engine divides INTEGERs
  exactly, truncating toward zero, as the runtime does.

A callee's body is a prefix of ALLOCATE statements over constant-shape
locals, then DO nests, assignments (``x = f(...)`` too), IF blocks and
CALLs, then a suffix of DEALLOCATE statements.  A FUNCTION is a search, a
DO of ``IF (c) THEN; res = v; RETURN`` and then ``res = d``, or one
``res = expr``.  A callee does not lower with an OpenMP directive; a
PRINT, STOP, EXIT, CYCLE, DO WHILE, inner imperfect DO or other RETURN;
an array, ``intent(out)`` or ``intent(inout)`` dummy argument, or an
actual argument of another type than its dummy; CHARACTER or TYPE
storage; or a SAVE'd or initialized local.  An outlined statement does
not lower with an OpenMP directive anywhere in its body; a PRINT, STOP,
CYCLE, DO WHILE, RETURN or an EXIT outside a search; or an inner or
search DO variable that is not a plain INTEGER local dead after it.
Outlined parts are no calls: they allocate nothing and add nothing to
the call nesting.

Contract: what the program can still observe after a lifted statement
is byte-identical to what the scalar closure leaves: every module
variable, every dummy argument, every variable the unit can still read,
the DO variables of the statement's own nest, every ``omp_log`` entry
and ``allocation_count``; and the same error and the same
``RuntimeWarning`` are raised.  Only a private local, or an inner DO
variable, of an outlined statement may hold another value, and nothing
reads it.  ``allocation_count`` grows by the array locals each active
call binds or ALLOCATEs.  While numeric sentinels are on, every DO
statement runs on its scalar closure, where they screen each
assignment, and records no fallback, as the IR's vectorized executor
does under a hooked run.  The statement also runs on the scalar
closure, before touching any state, when the inlined call nesting would
pass ``max_call_depth``; when a store is
unallocated or has the wrong rank or shape (a fixed module array's
shape is the one it had at load: lowering reads declarations, never
storage), a written one is a PARAMETER, or a DO variable is not an
INTEGER scalar; when a range has
zero trips or a zero step; when a subscript or range falls outside its
array; and when storage bound to a dummy argument may share memory with
other storage the statement touches.  A lift that fails partway (a
floating-point condition under ``np.errstate(all="raise")``, an integer
zero divisor or overflow, a failed cast) runs the scalar closure from the
state before the statement: the lifted program restores what it wrote,
and :func:`lifted_do` restores ``allocation_count``.  A sweep runs a
negative-stride nest's lanes in loop order.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, NamedTuple

import numpy as np

from .. import runconfig as _rc
from ..core.expr import (BinOp, Const, Expr, FuncCall, GridRef, IndexVar,
                         LibCall, UnOp)
from ..core.function import GlafFunction, GlafModule, GlafProgram
from ..core.grid import Grid
from ..core.libfuncs import REGISTRY
from ..core.step import Assign, CallStmt, IfStmt, Range, Return, Step, Stmt
from ..core.types import GlafType, numpy_dtype
from ..errors import FortranRuntimeError, ValidationError
from ..glafexec.vectorize import LiftFailure, compiled_plan, note_inline
from ..observe import get_decisions, get_metrics
from .ast import (
    FAllocate,
    FAssign,
    FBin,
    FCall,
    FCallExpr,
    FCommon,
    FContinue,
    FDeallocate,
    FDecl,
    FDo,
    FDoWhile,
    FExit,
    FExpr,
    FFieldRef,
    FIf,
    FIndexed,
    FLogical,
    FNum,
    FOmpDirective,
    FOmpEnd,
    FPrint,
    FReturn,
    FUn,
    FVar,
)
from .interp import DerivedValue, OmpEvent, _UnitCompiler, _dtype_of
from .intrinsics import INTRINSICS, SPECIAL_FORMS

__all__ = ["lower_nest", "lifted_do", "note_rejected"]

_OPS = {"+": "+", "-": "-", "*": "*", "/": "/", "**": "**", "==": "==",
        "/=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=", "and": "and",
        "or": "or"}
_LOGICAL_OPS = frozenset(("and", "or", "==", "/=", "<", "<=", ">", ">="))
_GLAF_TYPES = {np.dtype(np.int64): GlafType.T_INT,
               np.dtype(np.float32): GlafType.T_REAL,
               np.dtype(np.float64): GlafType.T_REAL8,
               np.dtype(np.bool_): GlafType.T_LOGICAL}


class _NoLower(Exception):
    """Why a DO statement stays on its scalar closure."""


class Nest(NamedTuple):
    """A lowered DO statement: its compiled program and what the guards
    need.

    ``program`` is what :func:`~repro.glafexec.vectorize.compiled_plan`
    compiled.  ``getters`` resolves the storage the program names, in
    order: per name a frame slot index (or, for a callee's COMMON
    variable, its ``(block, name, dtype)``), the TYPE component (or
    ``None``), the expected rank, whether the program writes it, the
    name, and the shape the compile assumed (or ``None``): a fixed module
    array's at load, or that of a grid a sweep keeps a per-iteration copy
    of.  ``dovars`` holds the DO variables' slots, outer first; ``pairs``
    the index pairs of ``labels`` (the names, then the DO variables) that
    may alias through a dummy argument; ``depth`` the inlined call
    nesting; ``allocs`` the array locals each callee that has any
    allocates per call.  Nothing in a nest is a runtime's: runtimes that
    share the unit share it.
    """

    program: Any
    getters: tuple
    dovars: tuple
    pairs: tuple
    labels: tuple
    depth: int
    allocs: dict


def _glaf_type(spec: Any) -> GlafType:
    if spec is None or spec.base in ("character", "type"):
        raise _NoLower(f"{spec.base.upper() if spec else 'undeclared'} "
                       "storage")
    try:
        return _GLAF_TYPES[_dtype_of(spec)]
    except (FortranRuntimeError, KeyError):
        raise _NoLower(f"type {spec.base}*{spec.kind}") from None


def _decl(name: str, spec: Any, rank: int, shape: tuple | None) -> Grid | None:
    """The grid a name declares in the synthetic program; an extent that
    may change at run time gets a name no loop bound matches."""
    try:
        return Grid(name, _glaf_type(spec),
                    shape or tuple(f"{name}:{k}" for k in range(rank)))
    except (_NoLower, ValidationError):
        return None


def _literal(uc: _UnitCompiler, e: FExpr) -> int | None:
    """A positive INTEGER literal's value."""
    v = uc._const(e)
    return int(v) if isinstance(v, np.integer) and v > 0 else None


def _extent(uc: _UnitCompiler, lp: FDo) -> int | None:
    """The trip count of ``DO v = 1, n`` with a literal ``n``."""
    if _literal(uc, lp.start) == 1 and (lp.step is None
                                        or _literal(uc, lp.step) == 1):
        return _literal(uc, lp.end)
    return None


def _walk(stmts: list):
    for s in stmts:
        yield s
        if isinstance(s, FIf):
            for _, body in s.branches:
                yield from _walk(body)
        elif isinstance(s, (FDo, FDoWhile)):
            yield from _walk(s.body)


def _sets(s: Any, res: str) -> bool:
    return (isinstance(s, FAssign) and isinstance(s.target, FVar)
            and s.target.name == res)


def _imperfect(body: list) -> bool:
    """Does a DO body hold a DO statement, so that it is outlined rather
    than the innermost body of a perfect nest?"""
    return any(isinstance(s, FDo) for s in _walk(body))


def _uses(e: FExpr | None):
    """Each variable reference in ``e``: its name and subscripts (``None``
    through a TYPE component)."""
    if isinstance(e, FVar):
        yield e.name, ()
    elif isinstance(e, FIndexed):
        if isinstance(e.base, FVar):
            yield e.base.name, e.args
        else:
            yield from ((n, None) for n, _ in _uses(e.base))
        for a in e.args:
            yield from _uses(a)
    elif isinstance(e, FFieldRef):
        yield from ((n, None) for n, _ in _uses(e.base))
    elif isinstance(e, FBin):
        yield from _uses(e.left)
        yield from _uses(e.right)
    elif isinstance(e, FUn):
        yield from _uses(e.operand)
    elif isinstance(e, FCallExpr):
        for a in e.args:
            yield from _uses(a)


def _names(*exprs: FExpr | None) -> set[str]:
    """The variable names expressions reference."""
    return {n for e in exprs for n, _ in _uses(e)}


def _own_exprs(s: Any) -> list:
    """The expressions of one statement, not of the statements it holds."""
    if isinstance(s, FAssign):
        return [s.target, s.value]
    if isinstance(s, FIf):
        return [c for c, _ in s.branches]
    if isinstance(s, FDo):
        return [FVar(s.var), s.start, s.end, s.step]
    if isinstance(s, FDoWhile):
        return [s.cond]
    if isinstance(s, FAllocate):
        return [x for t, dims in s.items for x in (t, *dims)]
    if isinstance(s, (FCall, FPrint)):
        return list(s.args)
    return list(s.items) if isinstance(s, FDeallocate) else []


def _refs(stmts: list) -> set[str]:
    """The names statements reference (those they hold too, with
    ``_walk``)."""
    return _names(*(e for s in stmts for e in _own_exprs(s)))


def _descend(do: FDo) -> tuple[list, list]:
    """A DO statement's perfect nest: its loops, outer first, and the
    innermost body."""
    loops, node = [], do
    while True:
        loops.append(node)
        body = [s for s in node.body if not _inert(s)]
        if len(body) == 1 and isinstance(body[0], FDo):
            node = body[0]
            continue
        return loops, body


def _first_match(do: FDo, leave: type) -> tuple | None:
    """``DO v; IF (cond) THEN; x = value; <leave>; END IF; END DO``:
    ``(cond, x, value)``."""
    loop = [s for s in do.body if not _inert(s)]
    if not (len(loop) == 1 and isinstance(loop[0], FIf)
            and len(loop[0].branches) == 1):
        return None
    cond, then = loop[0].branches[0]
    then = [s for s in then if not _inert(s)]
    if (cond is None or len(then) != 2 or not isinstance(then[0], FAssign)
            or not isinstance(then[0].target, FVar)
            or not isinstance(then[1], leave)):
        return None
    return cond, then[0].target.name, then[0].value


def _synthetic(name: str, ty: GlafType, params: list, grids: dict,
               steps: list) -> GlafFunction:
    """An outlined body or search.  ``unit@line`` is a name no FORTRAN
    subprogram can have; GLAF's identifier check does not admit it, so
    the name is set after it."""
    fn = GlafFunction("outlined", ty, params, grids, steps)
    fn.name = name
    return fn


class _Scope:
    """The names of one program unit: the caller, whose unit compiler is
    mid-compile, (:class:`_Callee`) a subprogram it reaches, or
    (:class:`_Outlined`) a part of the caller's DO body."""

    where = "the loop body"

    def __init__(self, low: "_Lowering", uc: _UnitCompiler) -> None:
        self.low = low
        self.uc = uc
        self.vars: list[str] = []
        self.enclosing: list[str] = []  # DO variables passed to outlined parts

    def is_var(self, name: str) -> bool:
        return self.uc._slot_index(name) is not None

    def dovar(self, var: str) -> None:
        if var not in self.uc.visible:
            raise _NoLower(f"DO variable {var!r} is not a local variable")

    # -- statements ----------------------------------------------------------
    def nest(self, do: FDo) -> tuple[list, list]:
        """A perfect DO nest's loops, outer first, and innermost body."""
        loops, body = _descend(do)
        for node in loops:
            if node is not do and node.omp is not None:
                raise _NoLower("OpenMP directive on an inner DO")
            self.dovar(node.var)
        return loops, body

    def step(self, name: str, loops: list, body: list) -> Step:
        """A DO nest as a loop step; an imperfect one CALLs its outlined
        innermost body."""
        self.vars = [lp.var for lp in loops]
        ranges = [Range(lp.var, self.expr(lp.start), self.expr(lp.end),
                        self.expr(lp.step) if lp.step is not None
                        else Const(np.int64(1)))
                  for lp in loops]
        stmts = (self.outline(loops, body, id(loops[-1]), loops[-1].line)
                 if _imperfect(body) else self.block(body))
        try:
            return Step(name, ranges=ranges, stmts=stmts)
        except ValidationError as e:
            raise _NoLower(str(e)) from None

    def steps(self, body: list) -> list[Step]:
        """The translator of a subprogram's or an outlined body's
        statements: one step each."""
        out = []
        for k, s in enumerate(body):
            if not isinstance(s, FDo):
                out.append(Step(f"{k}", stmts=self.block([s])))
                continue
            found = self.search(s)
            out.append(Step(f"{k}", stmts=[found]) if found is not None
                       else self.step(f"{k}", *self.nest(s)))
            self.vars = []
        return out

    def search(self, do: FDo) -> Stmt | None:
        """An inline first-match search DO as an assignment, where the
        scope has them."""
        return None

    def searched(self, do: FDo, cond: FExpr, value: FExpr,
                 default: Expr) -> list[Step]:
        """A first-match search FUNCTION's steps, in the inliner's form:
        ``IF (cond) RETURN value`` over the DO's range, then ``RETURN
        default``."""
        stride = 1 if do.step is None else _literal(self.uc, do.step)
        if stride is None:
            raise _NoLower(f"search DO {do.var!r} has no positive constant "
                           "stride")
        start, end = self.expr(do.start), self.expr(do.end)
        self.vars = [do.var]
        hit = IfStmt(self.expr(cond), (Return(self.expr(value)),))
        self.vars = []
        return [Step("search", ranges=[Range(do.var, start, end,
                                             Const(stride))], stmts=[hit]),
                Step("default", stmts=[Return(default)])]

    def outline(self, loops: list, body: list, key: Any, line: int
                ) -> list[Stmt]:
        """``body`` outlined, as its CALL: the enclosing DO variables pass
        by value."""
        params = self.enclosing + [lp.var for lp in loops]
        name = self.low.outlined(params, body, key, line)
        return [CallStmt(name, tuple(self.expr(FVar(v)) for v in params))]

    def block(self, stmts: list) -> list[Stmt]:
        out: list[Stmt] = []
        for s in stmts:
            if _inert(s):
                continue
            if isinstance(s, FAssign):
                out.append(Assign(self.target(s.target), self.expr(s.value)))
            elif isinstance(s, FIf):
                out.extend(self.if_(s))
            elif isinstance(s, FCall):
                out.append(CallStmt(*self.low.call(self, s.name, s.args)))
            else:
                raise _NoLower(f"{type(s).__name__[1:].upper()} statement "
                               f"in {self.where}")
        return out

    def if_(self, s: FIf, k: int = 0) -> list[Stmt]:
        """Branch ``k`` on: a branch that holds a DO is outlined."""
        cond, body = s.branches[k]
        then = (self.outline([], body, (id(s), k), s.line)
                if _imperfect(body) else self.block(body))
        if cond is None:
            return then
        orelse = self.if_(s, k + 1) if k + 1 < len(s.branches) else []
        return [IfStmt(self.expr(cond), tuple(then), tuple(orelse))]

    def target(self, t: FExpr) -> GridRef:
        if isinstance(t, FVar) and t.name in self.vars:
            raise _NoLower(f"assignment to the DO variable {t.name!r}")
        if isinstance(t, FIndexed):
            return GridRef(self.grid(t.base),
                           tuple(self.expr(a) for a in t.args))
        return GridRef(self.grid(t))

    def grid(self, e: FExpr) -> str:
        """The grid name of a variable or ``base%field`` designator."""
        uc = self.uc
        if isinstance(e, FVar):
            i = uc._slot_index(e.name)
            if i is None:
                raise _NoLower(f"unknown name {e.name!r}")
            self.low.caller_name(e.name, i)
            return e.name
        if isinstance(e, FFieldRef) and isinstance(e.base, FVar):
            base = e.base.name
            i = uc._slot_index(base)
            if i is None:
                raise _NoLower(f"unknown name {base!r}")
            name = f"{base}%{e.field}"
            self.low.register(name, ("field", i, e.field), i, e.field, base,
                              None)
            return name
        raise _NoLower(f"unsupported designator {type(e).__name__}")

    # -- expressions ---------------------------------------------------------
    def expr(self, e: FExpr) -> Expr:
        if isinstance(e, (FNum, FLogical)):
            value = self.uc._const(e)
            if not isinstance(value, (np.number, np.bool_)):
                raise _NoLower("literal out of range")
            return Const(value)
        if isinstance(e, FVar):
            if e.name in self.vars:
                return IndexVar(e.name)
            return GridRef(self.grid(e))
        if isinstance(e, FFieldRef):
            return GridRef(self.grid(e))
        if isinstance(e, FIndexed):
            return self.indexed(e)
        if isinstance(e, FUn):
            if e.op == "neg":
                return UnOp("neg", self.expr(e.operand))
            if e.op == "not":
                return UnOp("not", self.expr(e.operand))
            return self.expr(e.operand)
        if isinstance(e, FBin):
            op = _OPS.get(e.op)
            if op is None:
                raise _NoLower(f"operator {e.op!r}")
            return BinOp(op, self.expr(e.left), self.expr(e.right))
        raise _NoLower(f"{type(e).__name__} expression")

    def indexed(self, e: FIndexed) -> Expr:
        # The scalar path's order: variable, special form, subprogram,
        # intrinsic.
        args = e.args
        if isinstance(e.base, FVar):
            name = e.base.name
            if not self.is_var(name):
                if name in SPECIAL_FORMS:
                    raise _NoLower(f"{name.upper()} in {self.where}")
                if self.uc._callee(name) is not None:
                    return FuncCall(*self.low.call(self, name, args))
                lf = REGISTRY.get(name.upper())
                if lf is None or INTRINSICS.get(name) is not lf.impl:
                    raise _NoLower(f"intrinsic {name.upper()} is not a "
                                   "library function")
                try:
                    lf.check_arity(len(args))
                except Exception as exc:
                    raise _NoLower(str(exc)) from None
                return LibCall(lf.name, tuple(self.expr(a) for a in args))
        return GridRef(self.grid(e.base), tuple(self.expr(a) for a in args))

    def _named(self, e: FExpr) -> str | None:
        if isinstance(e, FVar):
            return e.name
        if isinstance(e, FIndexed) and isinstance(e.base, FVar):
            return e.base.name
        return None

    def dtype(self, e: FExpr) -> np.dtype | None:
        """The type of an actual argument, when it is known."""
        if isinstance(e, (FNum, FLogical)):
            v = self.uc._const(e)
            return v.dtype if isinstance(v, (np.number, np.bool_)) else None
        if isinstance(e, FUn):
            return (np.dtype(np.bool_) if e.op == "not"
                    else self.dtype(e.operand))
        if isinstance(e, FBin):
            if e.op in _LOGICAL_OPS:
                return np.dtype(np.bool_)
            left, right = self.dtype(e.left), self.dtype(e.right)
            return None if left is None or right is None else \
                np.result_type(left, right)
        name = self._named(e)
        if name is None:
            return None
        if name in self.vars:
            return np.dtype(np.int64)
        if self.is_var(name):
            try:
                return numpy_dtype(_glaf_type(self.uc._spec_of(name)))
            except _NoLower:
                return None
        found = self.uc._callee(name)
        if isinstance(e, FIndexed) and found is not None:
            fn = self.low.function(*found)
            return None if fn.is_subroutine else numpy_dtype(fn.return_type)
        return None


class _Callee(_Scope):
    """A callee's names: its dummy arguments and locals, then module and
    COMMON variables."""

    def __init__(self, low: "_Lowering", sub: Any, env: Any) -> None:
        uc = _UnitCompiler(low.uc.modules, low.uc.bare, sub, env)
        super().__init__(low, uc)
        self.sub = sub
        self.where = repr(sub.name)
        self.commons = {v: d.block for d in sub.decls
                        if isinstance(d, FCommon) for v in d.names}
        uc.decls = {ent.name: (d, ent) for d in sub.decls
                    if isinstance(d, FDecl) for ent in d.entities}
        uc.visible = set(uc.decls) | set(sub.params) | set(self.commons)
        self.dovars = {s.var for s in _walk(sub.body) if isinstance(s, FDo)}

    def is_var(self, name: str) -> bool:
        return name in self.uc.visible or self.uc._nonlocal(name) is not None

    def dovar(self, var: str) -> None:
        pass                        # checked once, in translate()

    def grid(self, e: FExpr) -> str:
        if not isinstance(e, FVar):
            raise _NoLower(f"unsupported designator {type(e).__name__} in "
                           f"{self.where}")
        name, uc = e.name, self.uc
        if name in self.dovars:
            raise _NoLower(f"DO variable {name!r} of {self.where} used "
                           "outside its loop")
        if name == self.sub.result:
            raise _NoLower(f"result {name!r} of {self.where} used as a "
                           "variable")
        block = self.commons.get(name)
        if block is None and name in uc.visible:
            return name                     # a dummy argument or a local
        if block is not None:
            spec, low = uc._spec_of(name), self.low
            _glaf_type(spec)
            if (low.commons.get(name) == block and _dtype_of(spec)
                    != _dtype_of(low.uc._spec_of(name) or spec)):
                raise _NoLower(f"COMMON {name!r} of another kind in "
                               f"{self.where}")
            low.register(name, ("common", block, name),
                         (block, name, _dtype_of(spec)), None, name,
                         (spec, len(uc.decls[name][1].dims), None))
            return name
        found = uc._nonlocal(name)
        if found is None:
            raise _NoLower(f"unknown name {name!r} in {self.where}")
        module, slot = found
        _glaf_type(slot.spec)
        self.low.register(name, ("module", module, name),
                          self.low.uc._layout_index(module, name), None, name,
                          (slot.spec, len(slot.dims) or slot.deferred_rank,
                           slot.shape))
        return name

    def translate(self) -> tuple[GlafFunction, int]:
        """The callee as a GLAF function, and the arrays each call
        allocates."""
        sub, uc = self.sub, self.uc
        for s in _walk(sub.body):
            if isinstance(s, (FOmpDirective, FOmpEnd)) or (
                    isinstance(s, FDo) and s.omp is not None):
                raise _NoLower(f"OpenMP directive in {self.where}")
        decls, grids, params = uc.decls, {}, list(sub.params)
        for v in self.dovars:
            d = decls.get(v)
            if (d is None or v in params or v in self.commons
                    or d[0].spec.base != "integer" or d[1].dims):
                raise _NoLower(f"DO variable {v!r} of {self.where} is not "
                               "an INTEGER local")
        for p in params:
            if p not in decls:
                raise _NoLower(f"dummy argument {p!r} of {self.where} is "
                               "undeclared")
            d, ent = decls[p]
            if ent.dims or ent.deferred_rank:
                raise _NoLower(f"array argument {p!r} of {self.where}")
            if d.intent in ("out", "inout"):
                raise _NoLower(f"intent({d.intent}) argument {p!r} of "
                               f"{self.where}")
            grids[p] = Grid(p, _glaf_type(d.spec), intent=d.intent)
        body = [s for s in sub.body if not isinstance(s, FContinue)]
        if body and isinstance(body[-1], FReturn):
            body.pop()
        shapes: dict[str, tuple] = {}
        while sub.kind == "subroutine" and body and isinstance(
                body[0], FAllocate):
            for target, dims in body.pop(0).items:
                d = decls.get(getattr(target, "name", None))
                shape = tuple(_literal(uc, x) for x in dims)
                if (d is None or target.name in shapes or None in shape
                        or d[1].deferred_rank != len(shape)):
                    raise _NoLower(f"ALLOCATE in {self.where} is not of a "
                                   "constant-shape local")
                shapes[target.name] = shape
        while body and isinstance(body[-1], FDeallocate):
            for item in body.pop().items:
                if getattr(item, "name", None) not in shapes:
                    raise _NoLower(f"DEALLOCATE in {self.where} is not of "
                                   "an allocated local")
        allocs = len(shapes)
        for name, (d, ent) in decls.items():
            if (name in grids or name in self.dovars or name == sub.result
                    or name in self.commons):
                continue
            if sub.kind == "function":
                raise _NoLower(f"function {self.where} has local variables")
            if ({"save", "pointer", "parameter"} & set(d.attrs)
                    or ent.init is not None):
                raise _NoLower(f"SAVE'd or initialized local {name!r} of "
                               f"{self.where}")
            shape = shapes.get(name, ())
            if ent.deferred_rank:
                if name not in shapes:
                    raise _NoLower(f"allocatable local {name!r} of "
                                   f"{self.where} is not allocated on entry")
            elif ent.dims:
                shape = tuple(_literal(uc, x) for x in ent.dims)
                if None in shape:
                    raise _NoLower(f"local {name!r} of {self.where} has no "
                                   "constant shape")
                allocs += 1
            grids[name] = Grid(name, _glaf_type(d.spec), shape)
        if sub.kind == "function":
            return self._function(body, grids, params), 0
        return GlafFunction(sub.name, GlafType.T_VOID, params, grids,
                            self.steps(body)), allocs

    def outline(self, loops: list, body: list, key: Any, line: int
                ) -> list[Stmt]:
        raise _NoLower(f"DO loop beside other statements in {self.where}")

    def _function(self, body: list, grids: dict, params: list
                  ) -> GlafFunction:
        """A search or one-expression FUNCTION, in the inliner's forms."""
        res = self.sub.result
        d = self.uc.decls.get(res)
        if d is None or d[1].dims or d[1].deferred_rank:
            raise _NoLower(f"function {self.where} has no scalar result")
        why = _NoLower(f"function {self.where} is neither one result "
                       "assignment nor a first-match search")
        if len(body) == 1 and _sets(body[0], res):
            steps = [Step("value", stmts=[Return(self.expr(body[0].value))])]
        elif (len(body) == 2 and isinstance(body[0], FDo)
              and _sets(body[1], res)):
            m = _first_match(body[0], FReturn)
            if m is None or m[1] != res:
                raise why
            steps = self.searched(body[0], m[0], m[2],
                                  self.expr(body[1].value))
        else:
            raise why
        return GlafFunction(self.sub.name, _glaf_type(d[0].spec), params,
                            grids, steps)


class _Outlined(_Scope):
    """A part of the caller's DO body, outlined: a DO body or an IF
    branch that holds a DO as a SUBROUTINE, a first-match search as a
    FUNCTION.  Its dummy arguments are ``params``, the enclosing DO
    variables (a search also takes the body's names it reads, and last
    the value its target has before the loop); its locals are the private
    locals it holds; every other name is the caller's."""

    def __init__(self, low: "_Lowering", params: list, local: dict) -> None:
        super().__init__(low, low.uc)
        self.enclosing = list(params)
        self.local = local

    def grid(self, e: FExpr) -> str:
        if isinstance(e, FVar):
            if e.name in self.enclosing or e.name in self.local:
                return e.name
            if e.name in self.low.inner:
                raise _NoLower(f"DO variable {e.name!r} used outside its "
                               "loop")
        return super().grid(e)

    def target(self, t: FExpr) -> GridRef:
        if isinstance(t, FVar) and t.name in self.enclosing:
            raise _NoLower(f"assignment to the DO variable {t.name!r}")
        return super().target(t)

    def search(self, do: FDo) -> Stmt | None:
        found = _first_match(do, FExit)
        if found is None:
            return None
        cond, x, value = found
        reads = _names(do.start, do.end, do.step, cond, value)
        params = [p for p in self.enclosing + list(self.local)
                  if p in reads and p != x] + [x]
        grids = {p: Grid(p, _glaf_type(self.uc._spec_of(p))) for p in params}
        scope = _Outlined(self.low, params, {})
        name = self.low.name_at(do.line)
        self.low.add(name, _synthetic(
            name, grids[x].ty, params, grids,
            scope.searched(do, cond, value, scope.expr(FVar(x)))))
        return Assign(self.target(FVar(x)), FuncCall(
            name, tuple(self.expr(FVar(p)) for p in params)))


class _Lowering:
    """One DO statement's lowering: the caller's nest and every callee it
    reaches, in one namespace of grids."""

    def __init__(self, uc: _UnitCompiler, do: FDo) -> None:
        self.uc = uc
        self.do = do
        self.grids: dict[str, tuple] = {}      # name -> (where, field, base)
        self.keys: dict[str, tuple] = {}       # name -> storage identity
        self.decls: dict[str, tuple] = {}      # the synthetic globals
        self.functions: dict[str, tuple] = {uc.name: (uc.sub, None)}
        self.allocs: dict[str, int] = {}
        self.commons = {v: d.block for d in uc.sub.decls
                        if isinstance(d, FCommon) for v in d.names}
        self.synthetic: set[str] = set()    # outlined parts and searches
        self.private: dict[Any, dict] = {}  # outlined part -> its locals
        self.inner: set[str] = set()        # DO variables of outlined parts

    def register(self, name: str, key: tuple, where: Any, fld: str | None,
                 base: str, decl: tuple | None) -> None:
        """Name storage; one name must not reach two storages.  ``decl``
        is :func:`_decl`'s spec, rank and shape."""
        if self.keys.setdefault(name, key) != key:
            raise _NoLower(f"two variables named {name!r}")
        if name not in self.grids:
            self.grids[name] = (where, fld, base)
            if decl is not None:
                self.decls[name] = decl

    def caller_name(self, name: str, i: int) -> None:
        if name in self.grids:
            return
        uc = self.uc
        held = uc.layout[i]                 # (module, name) of a module var
        slot = None if held is None else uc.modules[held[0]].variables[name]
        if name in self.commons:
            key = ("common", self.commons[name], name)
        elif held is not None:
            key = ("module", *held)
        else:
            key = ("frame", i)
        x = slot if slot is not None else uc.decls.get(name, (0, None))[1]
        rank = 0 if x is None else len(x.dims) or x.deferred_rank
        if slot is not None:
            shape = slot.shape
        else:
            shape = tuple(_literal(uc, d) for d in getattr(x, "dims", ()))
            shape = None if None in shape or getattr(
                x, "deferred_rank", 0) else shape
        self.register(name, key, i, None, name,
                      (uc._spec_of(name), rank, shape))

    def call(self, scope: _Scope, name: str, args: tuple) -> tuple:
        """A CALL or function reference: the callee translated, the
        actual arguments type-checked and lowered."""
        found = scope.uc._callee(name)
        if found is None:
            raise _NoLower(f"no subprogram named {name!r}")
        fn = self.function(*found)
        if len(args) != len(fn.params):
            raise _NoLower(f"{name!r} takes {len(fn.params)} argument(s)")
        for a, p in zip(args, fn.params):
            if scope.dtype(a) != numpy_dtype(fn.grids[p].ty):
                raise _NoLower(f"argument {p!r} of {name!r} is not of its "
                               "dummy's type")
        return name, tuple(scope.expr(a) for a in args)

    def function(self, sub: Any, env: Any) -> GlafFunction:
        entry = self.functions.get(sub.name)
        if entry is not None:
            if entry[0] is not sub:
                raise _NoLower(f"two subprograms named {sub.name!r}")
            if entry[1] is None:
                raise _NoLower(f"recursive call to {sub.name!r}")
            return entry[1]
        self.functions[sub.name] = (sub, None)
        fn, self.allocs[sub.name] = _Callee(self, sub, env).translate()
        self.functions[sub.name] = (sub, fn)
        return fn

    # -- outlining ----------------------------------------------------------
    def name_at(self, line: int) -> str:
        """A name for the outlined part at ``line`` that no FORTRAN
        subprogram can have, reserved."""
        name, n = f"{self.uc.name}@{line}", 1
        while name in self.functions:
            n += 1
            name = f"{self.uc.name}@{line}.{n}"
        self.functions[name] = (None, None)
        return name

    def add(self, name: str, fn: GlafFunction) -> None:
        """An outlined part: no call, so it allocates nothing."""
        self.functions[name] = (None, fn)
        self.synthetic.add(name)
        self.allocs[name] = 0

    def outlined(self, params: list, body: list, key: Any, line: int) -> str:
        """``body`` as a synthetic subroutine of the enclosing DO
        variables; its name."""
        name = self.name_at(line)
        local = self.private.get(key, {})
        grids = {p: Grid(p, GlafType.T_INT) for p in params}
        grids.update(local)
        self.add(name, _synthetic(name, GlafType.T_VOID, list(params), grids,
                                  _Outlined(self, params, local).steps(body)))
        return name

    def depth(self, names: set) -> int:
        """The deepest nesting of real calls below ``names``: an outlined
        part is no call."""
        return max((self.depth(self.functions[n][1].called_functions())
                    + (n not in self.synthetic) for n in names), default=0)

    def local(self, name: str) -> Grid | None:
        """The grid of a plain local of the unit: not a dummy argument or
        the result, not SAVE'd, initialized, in COMMON or allocatable, and
        of a constant shape."""
        uc, d = self.uc, self.uc.decls.get(name)
        if (d is None or name in uc.sub.params or name in self.commons
                or name == uc.sub.result or d[1].init is not None
                or {"save", "parameter", "pointer", "allocatable"}
                & set(d[0].attrs) or d[1].deferred_rank):
            return None
        shape = tuple(_literal(uc, x) for x in d[1].dims)
        try:
            return None if None in shape else Grid(name, _glaf_type(
                d[0].spec), shape)
        except _NoLower:
            return None

    def after(self) -> set[str]:
        """The names referenced where control can go after the DO
        statement: past it and, inside a loop, anywhere in that loop."""
        seq = list(_walk(self.uc.sub.body))
        at = next(i for i, s in enumerate(seq) if s is self.do)
        end = at + 1 + sum(1 for _ in _walk(self.do.body))
        start = next((i for i, s in enumerate(seq[:at])
                      if isinstance(s, (FDo, FDoWhile))
                      and any(t is self.do for t in _walk(s.body))), at)
        return _refs(seq[start:at] + seq[end:])

    def plan(self, loops: list, body: list) -> None:
        """Before ``body`` is outlined: refuse an OpenMP directive or a DO
        variable live after the statement, and give each outlined part the
        private locals it holds (:meth:`_parts`)."""
        if any(isinstance(s, (FOmpDirective, FOmpEnd)) or (
                isinstance(s, FDo) and s.omp is not None)
               for s in _walk(body)):
            raise _NoLower("OpenMP directive in the loop body")
        events: dict[Any, list] = {}
        searched: set[str] = set()
        self._parts(id(loops[-1]), [lp.var for lp in loops], body, events,
                    searched)
        # The nest's own loop headers run again inside an enclosing loop.
        live = self.after() | _refs(loops)
        for v in sorted(self.inner):
            g = self.local(v)
            if g is None or g.rank or g.ty is not GlafType.T_INT or v in live:
                raise _NoLower(f"DO variable {v!r} is live after the "
                               "statement")
        held: dict[str, set] = {}
        for key, evs in events.items():
            for name, _ in evs:
                held.setdefault(name, set()).add(key)
        for name, keys in held.items():
            g = self.local(name)
            if (len(keys) > 1 or g is None or name in live
                    or name in self.inner or (g.rank and name in searched)):
                continue
            key, = keys
            if next((kind for n, kind in events[key] if n == name
                     and kind != "ref"), "full") == "full":
                self.private.setdefault(key, {})[name] = g

    def _parts(self, key: Any, params: list, stmts: list, events: dict,
               searched: set) -> None:
        """The references of one outlined part, in order, as ``(name,
        kind)``: a ``read`` not known to follow a write that covers it in
        the same iteration, a ``full`` write, or any other ``ref``; its
        nested parts have their own."""
        ev = events.setdefault(key, [])

        def read(names, kind="read"):
            ev.extend((n, kind) for n in sorted(names))
        for s in stmts:
            if _inert(s):
                continue
            found = _first_match(s, FExit) if isinstance(s, FDo) else None
            if found is not None:
                cond, x, value = found
                self.inner.add(s.var)
                names = _names(s.start, s.end, s.step, cond, value) - {s.var}
                searched |= names
                read(names | {x})
                read([x], "full")
            elif isinstance(s, FDo):
                loops, body = _descend(s)
                vars_ = [lp.var for lp in loops]
                self.inner.update(vars_)
                read(_refs(loops) - set(vars_))
                if _imperfect(body):
                    self._parts(id(loops[-1]), params + vars_, body, events,
                                searched)
                else:
                    self._nest(loops, body, set(params + vars_), ev)
            elif isinstance(s, FIf) and _imperfect([s]):
                for k, (cond, branch) in enumerate(s.branches):
                    read(_names(cond))
                    if _imperfect(branch):
                        self._parts((id(s), k), params, branch, events,
                                    searched)
                    else:
                        read(_refs(list(_walk(branch))))
            elif isinstance(s, FAssign) and isinstance(s.target, FVar):
                read(_names(s.value))
                read([s.target.name], "full")
            else:
                read(_refs(list(_walk([s]))))

    def _nest(self, loops: list, body: list, stable: set, ev: list) -> None:
        """A perfect nest's references: a read at the subscripts an
        unconditional statement of the innermost body wrote before it, over
        the DO and enclosing variables only, is covered (a ``ref``); an
        unconditional write over every loop at its declared extents is
        ``full``, after the nest."""
        uc, wrote = self.uc, set()
        by = {lp.var: lp for lp in loops}
        for s in body:
            if not isinstance(s, FAssign):
                ev.extend((n, "read") for n in sorted(_refs(list(_walk([s])))))
                continue
            t = s.target
            subs = t.args if isinstance(t, FIndexed) else ()
            ev.extend((n, "ref" if (n, sub) in wrote else "read")
                      for n, sub in _uses(s.value))
            ev.extend((n, "read") for a in subs for n, _ in _uses(a))
            name, _ = next(_uses(t))
            ev.append((name, "ref"))
            plain = isinstance(t, FVar) or (isinstance(t, FIndexed)
                                            and isinstance(t.base, FVar))
            if plain and all(n in stable and sub == () for a in subs
                             for n, sub in _uses(a)):
                wrote.add((name, subs))
        for s in body:
            t = getattr(s, "target", None)
            g = (self.local(t.base.name) if isinstance(t, FIndexed)
                 and isinstance(t.base, FVar) else None)
            if g is None or not len(t.args) == g.rank == len(loops):
                continue
            free = dict(by)
            if all(isinstance(a, FVar) and a.name in free
                   and _extent(uc, free.pop(a.name)) == d
                   for a, d in zip(t.args, g.dims)):
                ev.append((t.base.name, "full"))

    # -- the nest ----------------------------------------------------------
    def lower(self) -> Nest:
        uc, do = self.uc, self.do
        top = _Scope(self, uc)
        loops, body = top.nest(do)
        if _imperfect(body):
            self.plan(loops, body)
        step = top.step(f"DO {do.var}", loops, body)
        callees = {n: fn for n, (_, fn) in self.functions.items()
                   if n != uc.name}
        program = fn = None
        if callees:
            grids = {n: _decl(n, *d) for n, d in self.decls.items()}
            program = GlafProgram("fortran", modules={"callees": GlafModule(
                "callees", functions=callees)}, global_grids={
                    n: g for n, g in grids.items() if g is not None})
            fn = GlafFunction(uc.name)
        plan = compiled_plan(step, program, fn, descending=True, strict=True)
        if isinstance(plan, LiftFailure):
            raise _NoLower(plan.reason)
        lifted, prog = plan
        # A fixed module array's shape at load: its store may be swapped.
        shapes = {n: d[2] for n, d in self.decls.items()
                  if self.keys[n][0] == "module" and d[2]}
        for s in lifted.split.scratch:
            if s.target is not None and not s.in_nest:
                shapes[s.target[1]] = tuple(s.dims)
        dims, written = prog.dims, set(prog.written)
        getters, bases = [], []
        for name, rank in dims.items():
            if rank < 0:
                raise _NoLower(f"{name!r} used with two different ranks")
            where, fld, base = self.grids[name]
            getters.append((where, fld, rank, name in written, name,
                            shapes.get(name)))
            bases.append(base)
        vars_ = [lp.var for lp in loops]
        dovars = tuple(uc.index[v] for v in vars_)
        bases += vars_
        changed = [name in written for name in dims] + [True] * len(dovars)
        # Only storage bound to a dummy argument can alias, and a fresh
        # local aliases nothing.
        params = set(uc.sub.params)

        def fresh(b: str) -> bool:
            attrs = uc.decls[b][0].attrs if b in uc.decls else ()
            return (b in uc.visible and b not in params
                    and b not in self.commons
                    and "save" not in attrs and "pointer" not in attrs)
        labels = list(dims) + vars_
        pairs = tuple((a, b) for a in range(len(labels))
                      for b in range(a + 1, len(labels))
                      if not (fresh(bases[a]) or fresh(bases[b]))
                      and (bases[a] in params or bases[b] in params)
                      and (changed[a] or changed[b]))
        if lifted.inlined or lifted.split.expanded:
            uc.notes.append(partial(note_inline, uc.name, do.line,
                                    f"DO {do.var}", lifted))
        return Nest(prog, tuple(getters), dovars, pairs, tuple(labels),
                    self.depth(step.called_functions()),
                    {n: k for n, k in self.allocs.items() if k})


def _inert(s: Any) -> bool:
    """Statements with no run-time effect: CONTINUE, OpenMP END markers."""
    return isinstance(s, FContinue) or (
        isinstance(s, FOmpDirective) and s.kind.startswith("end"))


def lower_nest(uc: _UnitCompiler, do: FDo) -> Nest | str:
    """The lowered nest of ``do``, or why it stays scalar."""
    try:
        return _Lowering(uc, do).lower()
    except _NoLower as e:
        return str(e)


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------

def _note(unit: str, do: FDo, reason: str) -> None:
    dl = get_decisions()
    if dl.enabled:
        dl.record("executor:fallback", unit, do.line, f"DO {do.var}",
                  "scalar", reasons=(reason,))


def _count(name: str) -> None:
    m = get_metrics()
    if m.enabled:
        m.counter(name).inc()


def note_rejected(unit: str, do: FDo, reason: str) -> None:
    """A nest that does not lower: one fallback, one decision."""
    _count("exec.fortran.fallbacks")
    _note(unit, do, reason)


# ---------------------------------------------------------------------------
# the guarded run
# ---------------------------------------------------------------------------

def _common(rt: Any, where: tuple) -> Any:
    """A callee's COMMON variable, when it is bound with the kind the
    callee declares."""
    block, name, dtype = where
    slot = rt.commons.get(block, {}).get(name)
    return slot if slot is not None and _dtype_of(slot.spec) == dtype \
        else None


def lifted_do(nest: Nest, scalar: Callable, omp: FOmpDirective | None,
              unit: str, do: FDo) -> Callable:
    """The DO statement's closure: the lifted program behind the guards,
    the scalar closure while the sentinels are on, when the guards refuse
    or when the lift fails.  Each refusal counts; the first in each
    runtime records the decision."""
    program, getters, dovars, pairs, labels, depth, allocs = nest
    bounds, run, arith, fixed = (program.bounds, program.run, program.arith,
                                 program.fixed)
    ndarray = np.ndarray
    token = object()            # this statement, in a runtime's ``_noted``

    def refuse(f, reason: str) -> None:
        _count("exec.fortran.fallbacks")
        noted = f.rt._noted
        if token not in noted:
            noted.add(token)
            _note(unit, do, reason)
        scalar(f)

    def lifted(f) -> None:
        if _rc._active.sentinels is not None:
            return scalar(f)            # screened per assignment there
        rt = f.rt
        if depth and rt._call_depth + depth > rt.max_call_depth:
            return refuse(f, "inlined call nesting would pass "
                          "max_call_depth")
        slots = f.slots
        S = []
        for where, fld, rank, written, name, shape in getters:
            if type(where) is int:
                slot = slots[where]
            else:
                slot = _common(rt, where)
                if slot is None:
                    return refuse(f, f"COMMON {name!r} is unbound or of "
                                  "another kind")
            store = slot.store
            if fld is not None:
                store = (store.fields.get(fld)
                         if type(store) is DerivedValue else None)
            if type(store) is not ndarray or store.ndim != rank:
                return refuse(f, f"{name!r} is unallocated or of another "
                              "rank")
            if written and slot.parameter:
                return refuse(f, f"{name!r} is a PARAMETER")
            if shape is not None and store.shape != shape:
                return refuse(f, f"{name!r} is of another shape than "
                              "declared")
            S.append(store)
        D = []
        for i in dovars:
            store = slots[i].store
            if (type(store) is not ndarray or store.ndim
                    or store.dtype.kind != "i"):
                return refuse(f, "a DO variable is not an INTEGER scalar")
            D.append(store)
        if pairs:
            X = S + D
            for a, b in pairs:
                if np.may_share_memory(X[a], X[b]):
                    return refuse(f, f"{labels[a]!r} and {labels[b]!r} may "
                                  "share memory through a dummy argument")
        if fixed is not None:
            ranges = fixed
        else:
            try:
                # A condition raised here, not warned, so the scalar
                # closure warns once when it evaluates the bounds itself.
                with np.errstate(all="raise"):
                    ranges = bounds(S)
            except Exception as e:
                return refuse(f, f"loop bounds: {e}")
        for _, _, count in ranges:
            if not count:
                return refuse(f, "a range has zero trips or a zero step")
        account, allocated = None, rt.allocation_count
        if allocs:
            def account(note, n: int) -> None:
                if note.kind == "call":
                    rt.allocation_count += allocs.get(note.key, 0) * n
        try:
            if arith:
                with np.errstate(all="raise"):
                    run(S, ranges, account)
            else:
                run(S, ranges, account)
        except Exception as e:
            # Whatever stopped the lift (a floating-point condition, a
            # zero divisor, an overflow, a cast, a bad gather), the
            # program restored what it wrote, and allocation_count is this
            # runtime's to restore: the scalar closure decides the outcome
            # from the state before the nest.
            rt.allocation_count = allocated
            return refuse(f, f"runtime lift failure: {e}")
        for store, (start, stride, count) in zip(D, ranges):
            store[()] = start + count * stride
        if omp is not None:
            rt.omp_log.append(OmpEvent(
                kind="parallel_do", unit=unit, line=do.line,
                collapse=omp.collapse, reductions=omp.reductions,
                private=omp.private, iterations=ranges[0][2]))
        _count("exec.fortran.lifted")
    return lifted
