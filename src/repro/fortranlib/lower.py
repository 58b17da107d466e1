"""Lift FORTRAN DO statements onto the shared array engine.

The runtime compiles each DO statement to a scalar closure that runs one
iteration at a time (:meth:`repro.fortranlib.interp._UnitCompiler._do`).
Before that, :func:`lower_nest` tries to *lower* the statement: a perfect
DO nest whose innermost body holds assignments, IF blocks and CALLs
becomes the GLAF IR step form (:class:`~repro.core.step.Step`) and goes
through the lift rules the GLAF IR executor uses,
:func:`~repro.glafexec.vectorize.compile_step`:

* a nest without calls lifts as one array program
  (:func:`~repro.glafexec.vectorize.compile_lifted`), or as a one-nest
  sweep when it keeps a scalar temporary;
* a *sweep*, a nest that CALLs subroutines or references user functions,
  has the FORTRAN text of every reachable callee translated to
  :class:`~repro.core.function.GlafFunction` s, each callee resolved as
  the scalar path resolves it, in a synthetic program whose global grids
  are the variables the sweep names.  The shared inliner
  (:mod:`repro.glafexec.inline`) splits it into nests, which
  :class:`~repro.glafexec.vectorize.SweepProgram` runs: the IR executor's
  runner.

:func:`lifted_do` then wraps the program with this runtime's guards; the
scalar closure stays as the fallback.  Lowering reads the text the
runtime loaded, never a GLAF program that produced it.

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
* ``/`` lowers only when an operand is provably REAL: the runtime divides
  integers exactly, the engine does not above 2**53.

A callee's body is a prefix of ALLOCATE statements over constant-shape
locals, then DO nests, assignments (``x = f(...)`` too), IF blocks and
CALLs, then a suffix of DEALLOCATE statements.  A FUNCTION is a search, a
DO of ``IF (c) THEN; res = v; RETURN`` and then ``res = d``, or one
``res = expr``.  A callee does not lower with an OpenMP directive; a
PRINT, STOP, EXIT, CYCLE, DO WHILE or other RETURN; an array,
``intent(out)`` or ``intent(inout)`` dummy argument, or an actual
argument of another type than its dummy; CHARACTER or TYPE storage; or a
SAVE'd or initialized local.

Contract: a lifted nest or sweep leaves every array, scalar, DO variable,
module grid, ``omp_log`` entry and ``allocation_count`` byte-identical to
the scalar closure, and raises the same error and the same
``RuntimeWarning``.  ``allocation_count`` grows by the array locals each
active call binds or ALLOCATEs.  The statement runs on the scalar
closure, before touching any state, when numeric sentinels are on; when
the inlined call nesting would pass ``max_call_depth``; when a store is
unallocated or has the wrong rank or shape, a written one is a
PARAMETER, or a DO variable is not an INTEGER scalar; when a range has
zero trips or a zero step; when a subscript or range falls outside its
array; and when storage bound to a dummy argument may share memory with
other storage the statement touches.  A lift that fails partway (a
floating-point condition under ``np.errstate(all="raise")``, an integer
zero divisor or overflow, a failed cast, a negative stride in a sweep)
restores what it wrote, and ``allocation_count``, and runs the scalar
closure.
"""

from __future__ import annotations

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
from ..glafexec.vectorize import (
    LiftedSweep,
    LiftFailure,
    SweepProgram,
    compile_lifted,
    compile_step,
    note_inline,
)
from ..observe import get_decisions, get_metrics
from .ast import (
    FAllocate,
    FAssign,
    FBin,
    FCall,
    FCommon,
    FContinue,
    FDeallocate,
    FDecl,
    FDo,
    FDoWhile,
    FExpr,
    FFieldRef,
    FIf,
    FIndexed,
    FLogical,
    FNum,
    FOmpDirective,
    FOmpEnd,
    FReturn,
    FUn,
    FVar,
)
from .interp import DerivedValue, OmpEvent, _UnitCompiler, _dtype_of
from .intrinsics import INTRINSICS, SPECIAL_FORMS

__all__ = ["lower_nest", "lifted_do", "note_rejected"]

_OPS = {"+": "+", "-": "-", "*": "*", "**": "**", "==": "==", "/=": "!=",
        "<": "<", "<=": "<=", ">": ">", ">=": ">=", "and": "and",
        "or": "or"}
#: Library functions whose value is REAL whatever their arguments.
_REAL_FUNCS = frozenset((
    "SQRT", "EXP", "LOG", "ALOG", "ALOG10", "LOG10", "SIN", "COS", "TAN",
    "ASIN", "ACOS", "ATAN", "ATAN2", "SINH", "COSH", "TANH", "REAL", "DBLE",
    "FLOOR", "CEILING", "SIGN"))
#: ...and those whose value is REAL when any argument is.
_PROMOTING_FUNCS = frozenset(("ABS", "MIN", "MAX", "MOD"))
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

    ``program`` is a :class:`~repro.glafexec.vectorize.LiftProgram`, or
    for a sweep a :class:`~repro.glafexec.vectorize.SweepProgram`.
    ``getters`` resolves the storage the program names, in order: per
    name a frame slot index (or, for a callee's COMMON variable, its
    ``(block, name, dtype)``), the TYPE component (or ``None``), the
    expected rank, whether the program writes it, and the name.
    ``dovars`` holds the DO variables' slots, outer first; ``pairs`` the
    index pairs of ``labels`` (the names, then the DO variables) that may
    alias through a dummy argument; ``depth`` the inlined call nesting.
    A sweep also has ``sweep``: per DO variable the scalar path's bounds
    closures, the array locals each callee allocates per call, and the
    ``(getter index, shape)`` of each grid it keeps a per-iteration copy
    of.
    """

    program: Any
    getters: tuple
    dovars: tuple
    pairs: tuple
    labels: tuple
    depth: int
    sweep: tuple | None


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


class _Scope:
    """The names of one program unit: the caller, whose unit compiler is
    mid-compile, or (:class:`_Callee`) a subprogram it reaches."""

    where = "the loop body"

    def __init__(self, low: "_Lowering", uc: _UnitCompiler) -> None:
        self.low = low
        self.uc = uc
        self.vars: list[str] = []

    def is_var(self, name: str) -> bool:
        return self.uc._slot_index(name) is not None

    def dovar(self, var: str) -> None:
        if var not in self.uc.visible:
            raise _NoLower(f"DO variable {var!r} is not a local variable")

    # -- statements ----------------------------------------------------------
    def nest(self, do: FDo) -> tuple[list, list]:
        """A perfect DO nest's loops, outer first, and innermost body."""
        loops, node = [], do
        while True:
            if node is not do and node.omp is not None:
                raise _NoLower("OpenMP directive on an inner DO")
            self.dovar(node.var)
            loops.append(node)
            body = [s for s in node.body if not _inert(s)]
            if len(body) == 1 and isinstance(body[0], FDo):
                node = body[0]
                continue
            return loops, body

    def step(self, name: str, loops: list, body: list) -> Step:
        self.vars = [lp.var for lp in loops]
        ranges = [Range(lp.var, self.expr(lp.start), self.expr(lp.end),
                        self.expr(lp.step) if lp.step is not None
                        else Const(np.int64(1)))
                  for lp in loops]
        try:
            return Step(name, ranges=ranges, stmts=self.block(body))
        except ValidationError as e:
            raise _NoLower(str(e)) from None

    def block(self, stmts: list) -> list[Stmt]:
        out: list[Stmt] = []
        for s in stmts:
            if _inert(s):
                continue
            if isinstance(s, FAssign):
                out.append(Assign(self.target(s.target), self.expr(s.value)))
            elif isinstance(s, FIf):
                out.extend(self.if_(s.branches))
            elif isinstance(s, FCall):
                out.append(CallStmt(*self.low.call(self, s.name, s.args)))
            elif isinstance(s, FDo):
                raise _NoLower("DO loop beside other statements (not a "
                               "perfect nest)")
            else:
                raise _NoLower(f"{type(s).__name__[1:].upper()} statement "
                               f"in {self.where}")
        return out

    def if_(self, branches: list) -> list[Stmt]:
        cond, body = branches[0]
        then = self.block(body)
        if cond is None:
            return then
        orelse = self.if_(branches[1:]) if len(branches) > 1 else []
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
            if op is None and e.op == "/":
                if not (self.real(e.left) or self.real(e.right)):
                    raise _NoLower("integer division")
                op = "/"
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

    def real(self, e: FExpr) -> bool:
        """Is ``e`` provably REAL (so ``/`` on it is real division)?"""
        if isinstance(e, FNum):
            return isinstance(e.value, float)
        if isinstance(e, FUn):
            return e.op != "not" and self.real(e.operand)
        if isinstance(e, FBin):
            return e.op in ("+", "-", "*", "/", "**") and (
                self.real(e.left) or self.real(e.right))
        name = self._named(e)
        if name is None or name in self.vars:
            return False
        if self.is_var(name):
            spec = self.uc._spec_of(name)
            return spec is not None and spec.base == "real"
        if isinstance(e, FIndexed) and self.uc._callee(name) is None:
            fn = name.upper()
            if fn in _REAL_FUNCS:
                return True
            if fn in _PROMOTING_FUNCS:
                return any(self.real(a) for a in e.args)
        return False

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
        slot = uc._nonlocal(name)
        if slot is None:
            raise _NoLower(f"unknown name {name!r} in {self.where}")
        _glaf_type(slot.spec)
        fixed = (not slot.allocatable and type(slot.store) is np.ndarray)
        rank = len(slot.dims) or slot.deferred_rank
        self.low.register(name, ("module", id(slot)),
                          self.low.uc._layout_index(slot), None, name,
                          (slot.spec, rank,
                           slot.store.shape if fixed else None))
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
        steps = []
        for k, s in enumerate(body):
            if isinstance(s, FDo):
                steps.append(self.step(f"{k}", *self.nest(s)))
                self.vars = []
            else:
                steps.append(Step(f"{k}", stmts=self.block([s])))
        return GlafFunction(sub.name, GlafType.T_VOID, params, grids,
                            steps), allocs

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
            do, last = body
            loop = [s for s in do.body if not _inert(s)]
            if not (len(loop) == 1 and isinstance(loop[0], FIf)
                    and len(loop[0].branches) == 1):
                raise why
            cond, then = loop[0].branches[0]
            then = [s for s in then if not _inert(s)]
            stride = 1 if do.step is None else _literal(self.uc, do.step)
            if (cond is None or stride is None or len(then) != 2
                    or not _sets(then[0], res)
                    or not isinstance(then[1], FReturn)):
                raise why
            start, end = self.expr(do.start), self.expr(do.end)
            self.vars = [do.var]
            hit = IfStmt(self.expr(cond), (Return(self.expr(then[0].value)),))
            self.vars = []
            steps = [Step("search", ranges=[Range(do.var, start, end,
                                                  Const(stride))],
                          stmts=[hit]),
                     Step("default", stmts=[Return(self.expr(last.value))])]
        else:
            raise why
        return GlafFunction(self.sub.name, _glaf_type(d[0].spec), params,
                            grids, steps)


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
        slot = uc.layout[i]
        if name in self.commons:
            key = ("common", self.commons[name], name)
        elif slot is not None:
            key = ("module", id(slot))
        else:
            key = ("frame", i)
        x = slot if slot is not None else uc.decls.get(name, (0, None))[1]
        rank = 0 if x is None else len(x.dims) or x.deferred_rank
        self.register(name, key, i, None, name,
                      (uc._spec_of(name), rank, None))

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

    # -- the nest ----------------------------------------------------------
    def lower(self) -> Nest:
        uc, do = self.uc, self.do
        top = _Scope(self, uc)
        loops, body = top.nest(do)
        step = top.step(f"DO {do.var}", loops, body)
        callees = {n: fn for n, (_, fn) in self.functions.items()
                   if n != uc.name}
        if callees:
            grids = {n: _decl(n, *d) for n, d in self.decls.items()}
            program = GlafProgram("fortran", modules={"callees": GlafModule(
                "callees", functions=callees)}, global_grids={
                    n: g for n, g in grids.items() if g is not None})
            lifted = compile_step(step, program, GlafFunction(uc.name))
        else:
            lifted = compile_step(step)
        if isinstance(lifted, LiftFailure):
            raise _NoLower(lifted.reason)
        shapes: dict[str, tuple] = {}
        if isinstance(lifted, LiftedSweep):
            prog = SweepProgram(lifted, strict=True)
            dims: dict[str, int] = {}
            for p in prog.programs:
                for name in p.names:
                    if name not in prog.specs:
                        rank = p.dims[name]
                        dims[name] = rank if dims.get(name, rank) == rank \
                            else -1
            for s in lifted.split.scratch:
                if s.target is not None and not s.in_nest:
                    shapes[s.target[1]] = tuple(s.dims)
                    dims[s.target[1]] = len(s.dims)
            sweep = (tuple((lp.var, uc._int(lp.start), uc._int(lp.end),
                            None if lp.step is None else uc._int(lp.step))
                           for lp in loops), self.allocs,
                     tuple((list(dims).index(g), shape)
                           for g, shape in shapes.items()))
        else:
            prog = compile_lifted(lifted, strict=True)
            dims, sweep = prog.dims, None
        written = set(lifted.written)
        getters, bases = [], []
        for name, rank in dims.items():
            if rank < 0:
                raise _NoLower(f"{name!r} used with two different ranks")
            where, fld, base = self.grids[name]
            getters.append((where, fld, rank, name in written, name))
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
        if isinstance(lifted, LiftedSweep) or lifted.inlined:
            note_inline(uc.name, do.line, f"DO {do.var}", lifted)
        return Nest(prog, tuple(getters), dovars, pairs, tuple(labels),
                    lifted.depth, sweep)


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
    the scalar closure when they refuse or the lift fails."""
    program, getters, dovars, pairs, labels, depth, sweep = nest
    if sweep is None:
        bounds, run, arith, fixed = (program.bounds, program.run,
                                     program.arith, program.fixed)
    else:
        top, allocs, shapes = sweep
        names, fixed = tuple(g[4] for g in getters), None
        label = f"{unit}/DO {do.var}"
    ndarray = np.ndarray
    noted = False

    def refuse(f, reason: str) -> None:
        nonlocal noted
        _count("exec.fortran.fallbacks")
        if not noted:
            noted = True
            _note(unit, do, reason)
        scalar(f)

    def lifted(f) -> None:
        if _rc._active.sentinels is not None:
            return refuse(f, "numeric sentinels are on")
        rt = f.rt
        if depth and rt._call_depth + depth > rt.max_call_depth:
            return refuse(f, "inlined call nesting would pass "
                          "max_call_depth")
        slots = f.slots
        S = []
        for where, fld, rank, written, name in getters:
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
                    if sweep is None:
                        ranges = bounds(S)
                    else:
                        ranges = tuple(
                            (lo(f), 1 if by is None else by(f), hi(f))
                            for _, lo, hi, by in top)
            except Exception as e:
                return refuse(f, f"loop bounds: {e}")
            if sweep is not None:
                ranges = tuple((start, stride, max(0, (end - start) // stride
                                                   + 1) if stride else 0)
                               for start, stride, end in ranges)
        for _, _, count in ranges:
            if not count:
                return refuse(f, "a range has zero trips or a zero step")
        if sweep is None:
            undo: list = []
            try:
                if arith:
                    with np.errstate(all="raise"):
                        run(S, ranges, None, undo)
                else:
                    run(S, ranges, None, undo)
            except Exception as e:
                # Whatever stopped the lift (a floating-point condition, a
                # zero divisor, an overflow, a cast, a bad gather), the
                # scalar closure decides the outcome from the state before
                # the nest.
                for region, copy in reversed(undo):
                    region[...] = copy
                return refuse(f, f"runtime lift failure: {e}")
        else:
            for j, shape in shapes:
                if S[j].shape != shape:
                    return refuse(f, f"{names[j]!r} is of another shape "
                                  "than declared")
            store = dict(zip(names, S))
            saved = [(store[g], store[g].copy())
                     for g in program.sweep.written]
            count = rt.allocation_count

            def account(note, n: int) -> None:
                if note.kind == "call":
                    rt.allocation_count += allocs[note.key] * n
            try:
                with np.errstate(all="raise"):
                    program.run(store.__getitem__, {
                        b[0]: r for b, r in zip(top, ranges)}, f,
                        account, lambda t: store[t[1]], {}, label)
            except Exception as e:
                # As above; the sweep also restores allocation_count.
                for region, copy in saved:
                    region[...] = copy
                rt.allocation_count = count
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
